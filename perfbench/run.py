"""Outside-in benchmark for bsa_sim.

    python3 perfbench/run.py --workload sweep|hold|ceremony --seed N \
        --seconds S --trace 0|1 [--label NAME]

One process, one thread, one caller in a closed loop: the next operation
starts when the previous one returns.  Inputs come only from ``--seed``
(see ``workloads.py``).

``--trace 0`` runs operations until ``--seconds`` have passed and the
current block of the workload's design is complete, and prints the
end-to-end metrics: set-up time (median of several fresh processes
spread over the run, each timed from spawn until its first block of
inputs is ready), throughput in the workload's unit of work, and peak
resident memory.  The results file adds the median and tail latency of
one operation.  They are taken over the first ``latency_ops`` operations
only, which have the same structure on every seed and every commit, so
that a faster machine or program does not change which inputs a
percentile covers.  They are not among the printed metrics because on a
shared 2-core machine, whose speed jumps by about 40% within a second,
their spread between runs reached the bound that the benchmark can set.

``--trace 1`` runs a fixed number of operations (``trace_ops`` in
``spec.json``) traced, so that its counts repeat exactly, then the same
operations untraced; it reports the per-layer metrics and the tracing
overhead.  Both modes check every operation's outputs and combine the
first ``trace_ops`` operation digests into ``outputs_digest``, which
therefore agrees between the two modes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with
breakdowns, sample counts and the spans of a traced run, is written to
``perfbench/results/BENCH_<label>_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
SETUP_PROBES = 9


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure that
    ``bsa_sim`` is imported from there and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bsa_sim

    if not Path(bsa_sim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"bsa_sim was imported from {bsa_sim.__file__}, not {src}")


# -- end-to-end metrics ------------------------------------------------------

END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank percentile."""
    return n - max(1, math.ceil(pct / 100 * n))


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n > 10 samples
    beyond it."""
    return (100 * (n - 10)) // n


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    program and drawn the first block of the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {child.returncode}")
    return elapsed


class Outputs:
    """Collects operation outcomes and checks them against the pins."""

    def __init__(self, workload: str, seed: int, digest_ops: int):
        self.digest_ops = digest_ops
        self.pins = SPEC["pins"].get(workload, []) if seed == SPEC["default_seed"] else []
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0

    def add(self, item, run, checking):
        """Run one operation, record its digest, and return its outcome
        (None when it raised)."""
        self.attempted += 1
        try:
            outcome = run(item, checking)
        except Exception as exc:
            self.failures.append(f"op {self.attempted - 1} raised {type(exc).__name__}: {exc}")
            self.digests.append("raised")
            return None
        index = len(self.digests)
        self.digests.append(outcome.digest)
        if outcome.failure:
            self.failures.append(outcome.failure)
        elif index < len(self.pins) and outcome.digest != self.pins[index]:
            self.failures.append(f"op {index} digest differs from the pinned value")
        return outcome

    @property
    def outputs_digest(self) -> str:
        prefix = "\n".join(self.digests[: self.digest_ops])
        return hashlib.sha256(prefix.encode()).hexdigest()

    def record(self) -> dict:
        return {
            "correct": not self.failures and len(self.digests) >= self.digest_ops,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "fail_ratio": len(self.failures) / max(1, self.attempted),
            "failures": self.failures[:10],
            "outputs_digest": self.outputs_digest,
            "digest_ops": self.digest_ops,
            "pins_checked": len(self.pins),
            "op_digests": self.digests[: self.digest_ops],
        }


def measure(workload_name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    spec = SPEC["workloads"][workload_name]
    workload = WORKLOADS[workload_name]
    blocks = workload.stream(seed, spec["params"])
    block = next(blocks)

    outputs = Outputs(workload_name, seed, spec["trace_ops"])
    latency_ops = spec["latency_ops"]
    units, busy, samples, probes = 0, 0.0, [], []
    start = time.perf_counter()
    deadline = start + seconds
    # Set-up probes are spread over the run, so that their median covers
    # the same stretch of the machine's time as the operations; the run is
    # extended by the time they take.
    next_probe = start
    while True:
        for item in block:
            outcome = outputs.add(item, workload.run, contextlib.nullcontext)
            if outcome is not None:
                units += outcome.units
                busy += outcome.busy_s
                if outputs.attempted <= latency_ops:
                    samples += outcome.samples
            if len(probes) < SETUP_PROBES and time.perf_counter() >= next_probe:
                probe_start = time.perf_counter()
                probes.append(setup_probe(workload_name, seed))
                deadline += time.perf_counter() - probe_start
                next_probe += seconds / SETUP_PROBES
        if (
            time.perf_counter() >= deadline
            and outputs.attempted >= max(outputs.digest_ops, latency_ops)
        ):
            break
        block = next(blocks)
    wall = time.perf_counter() - start
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload_name, seed))

    samples.sort()
    tail_pct = tail_percentile(len(samples))
    values = {
        "setup_s": statistics.median(probes),
        "throughput_per_s": units / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        **outputs.record(),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        "named_metrics": {
            f"{spec['unit']}s_per_s": values["throughput_per_s"],
            "op_p50_s": percentile(samples, 50),
            f"op_p{tail_pct}_s": percentile(samples, tail_pct),
        },
        "latency_op": spec["latency_op"],
        "unit_of_work": spec["unit"],
        "units": units,
        "busy_s": busy,
        "wall_s": wall,
        "latency_ops": latency_ops,
        "latency_samples": len(samples),
        "tail_pct": tail_pct,
        "tail_samples_beyond": beyond(len(samples), tail_pct),
        "setup_probes_s": probes,
    }


# -- per-layer metrics -------------------------------------------------------

# Extra counters kept by the tracer's hooks, by target: (stat, unit).
EXTRA = {
    "keys.verify_signature": [("distinct", "count"), ("distinct_ratio", "ratio")],
    "keys.build_protocol_addresses": [("distinct", "count"), ("distinct_ratio", "ratio")],
    "chain.BtcChain.submit_tx": [("rejected", "count")],
    "chain.BtcChain.mine_block": [("confirmed", "count")],
    "registry.Registry.export_snapshot": [("bytes", "B")],
    "registry.Registry.import_snapshot": [
        ("bytes", "B"), ("distinct", "count"), ("distinct_ratio", "ratio")
    ],
    "destchain.DestChain.advance": [("checkpoints", "count")],
    "arbitration.ArbitrationOracle.sync": [("rebootstraps", "count"), ("stale", "count")],
    "arbitration.ArbitrationOracle.verify_unbond_inputs": [("rejections", "count")],
    "arbitration.ArbitrationOracle.verify_rebalance_inputs": [("rejections", "count")],
    "arbitration.ArbitrationOracle.resolve_unbond_challenge": [
        ("signed", "count"), ("refused", "count")
    ],
    "arbitration.ArbitrationOracle.resolve_rebalance": [
        ("signed", "count"), ("refused", "count")
    ],
}
OVERALL = [
    ("chain.mempool.wait_mean_blocks", "blocks"),
    ("trace.spans", "count"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    from tracer import TARGETS

    names = []
    for module, qualname, _ in TARGETS:
        target = f"{module}.{qualname}"
        names += [(f"{target}.calls", "count"), (f"{target}.self_s", "s"),
                  (f"{target}.total_s", "s")]
        names += [(f"{target}.{stat}", unit) for stat, unit in EXTRA.get(target, [])]
    return names + OVERALL


def layer_values(tr, traced_s: float, untraced_s: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, _unit in per_layer_names():
        target, stat = name.rsplit(".", 1)
        calls = tr.calls[target]
        if stat == "calls":
            values[name] = calls
        elif stat == "self_s":
            values[name] = tr.self_ns[target] / 1e9
        elif stat == "total_s":
            values[name] = tr.total_ns[target] / 1e9
        elif stat == "distinct":
            values[name] = len(tr.distinct[target])
        elif stat == "distinct_ratio":
            values[name] = len(tr.distinct[target]) / calls if calls else 0.0
        elif stat == "rejected":
            values[name] = sum(tr.breakdown[f"{target}.raised"].values())
        elif stat == "stale":
            values[name] = tr.breakdown[f"{target}.raised"]["StaleCheckpoint"]
        elif stat == "rejections":
            values[name] = sum(tr.breakdown[name].values())
        else:
            values[name] = tr.counts[name]
    values["chain.mempool.wait_mean_blocks"] = (
        sum(tr.waits) / len(tr.waits) if tr.waits else 0.0
    )
    values["trace.spans"] = len(tr.spans)
    values["trace.traced_s"] = traced_s
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return values


def first_ops(workload_name: str, seed: int, ops: int) -> list:
    """The first ``ops`` inputs of a workload's stream, across its blocks."""
    from workloads import WORKLOADS

    params = SPEC["workloads"][workload_name]["params"]
    blocks = WORKLOADS[workload_name].stream(seed, params)
    return list(itertools.islice(itertools.chain.from_iterable(blocks), ops))


def trace(workload_name: str, seed: int, ops: int) -> tuple[dict, list]:
    """Run ``ops`` operations traced, then the same ones untraced."""
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    items = first_ops(workload_name, seed, ops)
    tr = Tracer()
    traced = Outputs(workload_name, seed, ops)
    tr.install()
    try:
        start = time.perf_counter()
        for op, item in enumerate(items):
            tr.op = op
            tr.span(f"bench.{workload_name}", traced.add, item, workload.run, tr.suspended)
        traced_s = time.perf_counter() - start
    finally:
        tr.uninstall()

    items = first_ops(workload_name, seed, ops)
    untraced = Outputs(workload_name, seed, ops)
    start = time.perf_counter()
    for item in items:
        untraced.add(item, workload.run, contextlib.nullcontext)
    untraced_s = time.perf_counter() - start

    failures = traced.failures + untraced.failures
    if untraced.digests != traced.digests:
        failures.append("traced and untraced operations produced different digests")
    record = traced.record()
    record.update(
        correct=record["correct"] and not failures,
        attempted=traced.attempted + untraced.attempted,
        failed=len(failures),
        fail_ratio=len(failures) / (traced.attempted + untraced.attempted),
        failures=failures[:10],
        untraced_outputs_digest=untraced.outputs_digest,
    )
    units = dict(per_layer_names())
    values = layer_values(tr, traced_s, untraced_s)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record["breakdown"] = {k: dict(sorted(v.items())) for k, v in sorted(tr.breakdown.items()) if v}
    record["mempool_wait_blocks"] = dict(sorted(Counter(tr.waits).items()))
    record["trace_ops"] = ops
    return record, tr.spans


# -- command line ------------------------------------------------------------


def write_results(args, record: dict, spans: list | None) -> Path:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"BENCH_{args.label}_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        **record,
    }
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        with open(out / f"{stem}_spans.jsonl", "w") as f:
            for span_id, parent, op, name, start, end in spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                    "name": name, "start_ns": start, "end_ns": end}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"cannot import bsa_sim from this checkout: {exc}", file=sys.stderr)
        return 2

    if args.probe:
        from workloads import WORKLOADS

        spec = SPEC["workloads"][args.workload]
        next(WORKLOADS[args.workload].stream(args.seed, spec["params"]))
        print("ready", flush=True)
        return 0

    spans = None
    if args.trace:
        ops = SPEC["workloads"][args.workload]["trace_ops"]
        record, spans = trace(args.workload, args.seed, ops)
    else:
        record = measure(args.workload, args.seed, args.seconds)
    path = write_results(args, record, spans)
    print(f"results: {path.relative_to(ROOT)}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
