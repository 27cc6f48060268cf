"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench

The cross-process tests run each workload's traced run twice and its
shortest untraced run once, about three minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

run.load_program()

import tracer  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from bsa_sim import arbitration, chain, destchain, harness, keys  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.SPEC["workloads"])


def _cli(workload: str, trace: int, seed: int = 5, hash_seed: str = "0") -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--label", "test"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    name = f"BENCH_test_{workload}_seed{seed}_trace{trace}.json"
    record = json.loads((run.HERE / "results" / name).read_text())
    assert json.loads(done.stdout.splitlines()[-1])["correct"], record["failures"]
    return record


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.SPEC["workloads"])


def test_hold_steps_worlds_exactly_as_run_scenario_does():
    config = next(workloads.hold_stream(2, run.SPEC["workloads"]["hold"]["params"]))[0]
    config.horizon_blocks = 60
    world, verdicts, ticks = workloads.simulate(config)
    result = harness.run_scenario(config)
    assert len(ticks) == 60
    assert workloads.trace_digest(world.trace) == result.trace_digest
    assert world.registry.state_digest() == result.snapshot_digest
    assert verdicts.triple() == result.verdicts.triple()


def test_sweep_blocks_hold_the_shares_of_random_adversarial_config():
    params = run.SPEC["workloads"]["sweep"]["params"]
    blocks = workloads.sweep_stream(4, params)
    for _ in range(12):
        block = next(blocks)
        assert len(block) == 12
        oracles = [o for c in block for o in c.oracles]
        correct = [sum(harness.oracle_correct(o) for o in c.oracles) for c in block]
        kinds = Counter(
            "correct" if harness.oracle_correct(o) else "refuse" if o.refuse_resolutions
            else "offline" if o.offline == (0, params["horizon_blocks"]) else "window"
            for o in oracles
        )
        assert kinds == {"correct": 16, "refuse": 7, "offline": 7, "window": 6}
        assert Counter(correct) == {0: 2, 1: 5, 2: 4, 3: 1}
        assert Counter(len(c.amounts) for c in block) == {1: 4, 2: 4, 3: 4}
        assert sum(bool(c.fee_steps) for c in block) == 6
        assert all(sum(c.amounts) == 10_000 for c in block)


def test_tracer_patches_every_binding_and_restores_them():
    original = keys.verify_signature
    tr = tracer.Tracer()
    tr.install()
    try:
        bound = [m.verify_signature for m in (keys, chain, arbitration, destchain)]
        assert all(f is not original for f in bound)
        assert len({id(f) for f in bound}) == 1
    finally:
        tr.uninstall()
    assert all(m.verify_signature is original for m in (keys, chain, arbitration, destchain))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_repeats_in_process(workload):
    first, _ = run.trace(workload, seed=3, ops=2)
    second, _ = run.trace(workload, seed=3, ops=2)
    assert first["failed"] == 0, first["failures"]
    assert first["outputs_digest"] == first["untraced_outputs_digest"]
    assert second["outputs_digest"] == first["outputs_digest"]
    counts = lambda r: {k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
    assert counts(first) == counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_cli_runs_agree_across_processes(workload):
    untraced = _cli(workload, trace=0)
    traced = [_cli(workload, trace=1, hash_seed=h) for h in ("1", "2")]
    assert {r["outputs_digest"] for r in traced} == {untraced["outputs_digest"]}
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
              for r in traced]
    assert counts[0] == counts[1]
    layers = {name.split(".")[0] for name, value in counts[0].items() if value}
    assert {"curve", "keys", "chain", "psbt", "registry", "destchain",
            "arbitration", "attestation", "harness"} <= layers


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "ceremony", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
