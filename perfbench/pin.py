"""Pin the operation digests of the default seed in ``spec.json``.

    python3 perfbench/pin.py

Runs the first ``trace_ops`` operations of every workload on the default
seed and stores their digests under ``pins``.  Later runs on that seed
count an operation as failed when its digest differs.  Re-pin only in a
change that is meant to alter the simulator's traces or registry state,
and say so in that change.
"""

from __future__ import annotations

import contextlib
import json

import run


def main() -> None:
    run.load_program()
    from workloads import WORKLOADS

    seed = run.SPEC["default_seed"]
    pins = {}
    for name, spec in run.SPEC["workloads"].items():
        outcomes = [
            WORKLOADS[name].run(item, contextlib.nullcontext)
            for item in run.first_ops(name, seed, spec["trace_ops"])
        ]
        failures = [o.failure for o in outcomes if o.failure]
        if failures:
            raise SystemExit(f"{name}: not pinning failed operations: {failures}")
        pins[name] = [o.digest for o in outcomes]
    path = run.HERE / "spec.json"
    spec = json.loads(path.read_text())
    spec["pins"] = pins
    path.write_text(json.dumps(spec, indent=2) + "\n")


if __name__ == "__main__":
    main()
