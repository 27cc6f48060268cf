"""Functions that no graded run enters, kept as an exact list.

A function that nothing in ``src/`` references is never entered, and
neither is one that ``src/`` calls only on a path no run takes, so the
list holds both.  This test runs the 17 graded scenario files and the
first 20 draws of the trust-model sweep (seed 7) under
``sys.setprofile`` and records every function in ``src/`` that is
entered.  The six ``curve`` and ``keys``
memos are cleared first, since a memo hit skips the body it caches.

A function is matched to its ``def`` by name and line, so that a
decorated function, whose code starts at its first decorator, and a
comprehension, which Python 3.12 inlines into its function, are read
the same on Python 3.10 to 3.13.  A function run only at import is
never entered by the pass, as the modules are imported before it.

The list below names each unreached function and why it is kept; a
newly unreached function fails the test until it is listed or given a
run, and an entry that a run reaches, or that is gone, fails it until
the entry is removed.
"""

import ast
import pathlib
import sys

from bsa_sim import curve, keys
from bsa_sim.harness import MATRIX_DIR, run_scenario, trust_model_sweep
from bsa_sim.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bsa_sim"
GRADED_FILES = sorted((ROOT / "scenarios").glob("*.scn")) + sorted(MATRIX_DIR.glob("*.scn"))

_IMPORT = "runs at import, before the pass"
_AVAILABILITY = "ROADMAP item 3: availability in the loop; bsa-sim avail and tests call it"
_UPGRADES = "ROADMAP item 5: enclave upgrades and expiry, which no run reaches"
_ADAPTERS = "ROADMAP item 20: adapters and rebalance order; registry tests call it"
_CLI = "the bsa-sim console script; test_harness calls it"
_MATRIX = "bsa-sim matrix and test_c01 run the failure matrix"

# module.qualname -> the open item, entry point or test that keeps it
ALLOWED = {
    "arbitration.ArbitrationOracle.accepts_initial_version": _UPGRADES,
    "arbitration.ArbitrationOracle.accepts_upgrade": _UPGRADES,
    "arbitration.ArbitrationOracle.key_restore": _UPGRADES,
    "attestation.MockKms.decrypt": _UPGRADES,
    "attestation.MockKms.update_policy": _UPGRADES,
    "availability.AvailabilityError.__init__": _AVAILABILITY,
    "availability.AvailabilityReport.lines": _AVAILABILITY,
    "availability.UptimeSchedule.__post_init__": _AVAILABILITY,
    "availability.UptimeSchedule.is_online": _AVAILABILITY,
    "availability.UptimeSchedule.max_offline_gap": _AVAILABILITY,
    "availability.UptimeSchedule.next_online_time": _AVAILABILITY,
    "availability.UptimeSchedule.offline_gaps": _AVAILABILITY,
    "availability.UptimeSchedule.uptime_fraction": _AVAILABILITY,
    "availability.availability_report": _AVAILABILITY,
    "availability.challenge_uptime_bound": _AVAILABILITY,
    "availability.check_parameters": _AVAILABILITY,
    "availability.dispute_slack": _AVAILABILITY,
    "availability.exit_window_open": _AVAILABILITY,
    "availability.gap_condition": _AVAILABILITY,
    "availability.last_exit_start": _AVAILABILITY,
    "availability.required_uptime": _AVAILABILITY,
    "availability.response_time": _AVAILABILITY,
    "availability.serves_all_challenges": _AVAILABILITY,
    "availability.stays_synced": _AVAILABILITY,
    "availability.sync_uptime_bound": _AVAILABILITY,
    "chain.verify_spend": "tests check a spend at a chosen height without mining",
    "cli._cmd_avail": _CLI,
    "cli._cmd_ceremony": _CLI,
    "cli._cmd_matrix": _CLI,
    "cli._cmd_run": _CLI,
    "cli._fmt_triple": _CLI,
    "cli.main": _CLI,
    "curve._build_gen_table": _IMPORT,
    "curve.is_on_curve": "ROADMAP item 5; the curve tests call it",
    "curve.point_mul": "perfbench/tracer.py TARGETS; the key and curve tests call it",
    "harness.MatrixRow.ok": _MATRIX,
    "harness.SweepRow.consistent": "test_c10 and perfbench's run_sweep read it",
    "harness.ceremony_demo": "bsa-sim ceremony --demo and test_harness call it",
    "harness.ceremony_demo.corrupt": "bsa-sim ceremony --demo and test_harness call it",
    "harness.liquidation_spans": "ROADMAP items 9 and 16 propose to grade it; tests call it",
    "harness.matrix_scenarios": _MATRIX,
    "harness.run_matrix": _MATRIX,
    "keys.keypair_from_secret": "ROADMAP item 5: only key_restore reaches it",
    "psbt._min_deposit": _IMPORT,
    "registry.Adapter.balance_of": _ADAPTERS,
    "registry.Adapter.in_perimeter": _ADAPTERS,
    "registry.Registry.adapter_admin": _ADAPTERS,
    "registry.Registry.reject_deposit": "the ceremony workload's tampered deposits reach it",
    "registry.Registry.schedule_upgrade": _UPGRADES,
    "registry.Registry.set_rebalance_order": _ADAPTERS,
    "registry.TokenLedger.outstanding": _ADAPTERS,
    "registry._in_effect_order": _UPGRADES,
    "scenario._keys": _IMPORT,
    "scenario._or_none": _IMPORT,
    "scenario._refusal": "graded runs hold valid values; test_harness's refusal cases call it",
}


def _definitions(tree: ast.AST, module: str, prefix: str = ""):
    """``((module, name, line), qualified name)`` of every function and
    method under ``tree``, once for each line its code may start at: the
    ``def`` line and, for a decorated function, each line from its
    first decorator on."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module}.{prefix}{node.name}"
            first = min((d.lineno for d in node.decorator_list), default=node.lineno)
            for line in range(first, node.lineno + 1):
                yield (module, node.name, line), qualname
            yield from _definitions(node, module, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, module, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, module, prefix)


def _clear_memos() -> None:
    for memo in (
        curve.decode_point,
        keys.keypair_from_seed,
        keys.sign_digest,
        keys.verify_signature,
        keys.verify_signatures,
        keys.build_protocol_addresses,
    ):
        memo.cache_clear()


def _graded_runs() -> None:
    for path in GRADED_FILES:
        run_scenario(load_scenario(str(path)))
    trust_model_sweep(n=20, seed=7)


def unreached_functions() -> list[str]:
    defs, modules = {}, {}
    for path in sorted(SRC.glob("*.py")):
        modules[str(path.resolve())] = path.stem
        defs.update(_definitions(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    _clear_memos()
    sys.setprofile(profile)
    try:
        _graded_runs()
    finally:
        sys.setprofile(None)
    reached = set()
    for code in entered:
        module = modules.get(str(pathlib.Path(code.co_filename).resolve()))
        reached.add(defs.get((module, code.co_name, code.co_firstlineno)))
    return sorted(set(defs.values()) - reached)


def test_every_unreached_function_is_listed_with_its_keeper():
    assert len(GRADED_FILES) == 17
    assert unreached_functions() == sorted(ALLOWED)
    assert all(ALLOWED.values())
