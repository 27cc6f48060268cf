"""Functions that nothing in ``src/`` references, kept as an exact list.

A function or method whose name no code in ``src/`` uses (as a name, an
attribute or an import) is either an entry point that tests, the
benchmark or an open ROADMAP item keep, or dead code.  The list below
names each kept one and why; a new unreferenced function fails the test
until it is deleted or listed, and an entry that is referenced again, or
gone, fails it until the entry is removed.

The check is by name, so a name defined twice counts as referenced when
either definition is called, and an unused twin goes unseen.  One is
known: ``availability.UptimeSchedule.is_online``, which nothing in
``src/`` calls, is hidden by the called ``actors.OracleActor.is_online``;
it is kept for ROADMAP item 3.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bsa_sim"

_UPGRADES = "ROADMAP item 5: enclave upgrades and expiry, which no run reaches"
_AVAILABILITY = "ROADMAP item 3: availability in the loop; tests call it"

# module.qualname -> the open item or the caller that keeps it
ALLOWED = {
    "arbitration.ArbitrationOracle.accepts_initial_version": _UPGRADES,
    "arbitration.ArbitrationOracle.accepts_upgrade": _UPGRADES,
    "arbitration.ArbitrationOracle.key_restore": _UPGRADES,
    "attestation.MockKms.update_policy": _UPGRADES,
    "registry.Registry.schedule_upgrade": _UPGRADES,
    "availability.UptimeSchedule.uptime_fraction": _AVAILABILITY,
    "availability.exit_window_open": _AVAILABILITY,
    "availability.gap_condition": _AVAILABILITY,
    "availability.last_exit_start": _AVAILABILITY,
    "availability.serves_all_challenges": _AVAILABILITY,
    "availability.stays_synced": _AVAILABILITY,
    "chain.verify_spend": "tests check a spend at a chosen height without mining",
    "curve.is_on_curve": "ROADMAP item 5; the curve tests call it",
    "curve.point_mul": "perfbench/tracer.py TARGETS; the key and curve tests call it",
    "harness.SweepRow.consistent": "test_c10 and perfbench's run_sweep read it",
    "harness.liquidation_spans": "ROADMAP items 9 and 16 propose to grade it; tests call it",
    "harness.trust_model_sweep": "test_c10 runs it",
    "registry.Registry.adapter_admin": "ROADMAP item 5; registry and destchain tests call it",
    "registry.Registry.set_rebalance_order": "ROADMAP item 5; registry tests call it",
    "registry.TokenLedger.outstanding": "ROADMAP item 5; registry tests call it",
}


def _definitions(tree: ast.AST, prefix: str):
    """(name, qualified name) of every function and method under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, prefix + node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def unreferenced_functions() -> list[str]:
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(name, f"{path.stem}.{qual}") for name, qual in _definitions(tree, "")]
        referenced |= _referenced(tree)
    return sorted(
        qual
        for name, qual in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_unreferenced_function_is_listed_with_its_keeper():
    assert unreferenced_functions() == sorted(ALLOWED)
    assert all(ALLOWED.values())
