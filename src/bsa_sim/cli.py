"""Command line front end.

Four subcommands:

* ``run <file>`` parses a scenario file, simulates it, and prints the
  graded verdicts; exits 1 when an ``[expect]`` section is present and
  the verdicts disagree with it, and 2, with one line on stderr naming
  the problem (its section and key, where it has one), when the file is
  malformed or cannot be read.
* ``matrix`` replays the scripted failure matrix, the scenario files
  shipped in the package as ``bsa_sim/matrix/NN_<name>.scn``, and exits
  nonzero on any mismatch.
* ``avail`` prints the duty-cycle bounds an arbitration oracle must
  meet for the given timing parameters, or exits 2 naming a bad flag.
* ``ceremony --demo`` narrates the deposit setup ceremony, including
  the rejection of a tampered registry copy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .availability import AvailabilityError, availability_report
from .harness import ceremony_demo, run_matrix, run_scenario
from .scenario import ScenarioError, load_scenario


def _fmt_triple(triple: tuple[bool, bool, bool]) -> str:
    return "/".join("Y" if v else "N" for v in triple)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_scenario(args.scenario)
    except OSError as exc:
        print(f"bsa-sim: {args.scenario}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"bsa-sim: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(config)
    verdicts = result.verdicts
    print(f"scenario: {result.name}")
    print(f"final height: {result.final_height}")
    print(f"trace digest: {result.trace_digest}")
    print(f"registry digest: {result.snapshot_digest}")
    print(
        f"verdicts: depositor_safe={verdicts.depositor_safe}"
        f" operator_safe={verdicts.operator_safe}"
        f" protocol_safe={verdicts.protocol_safe}"
    )
    for reason in verdicts.reasons:
        print(f"  reason: {reason}")
    if args.trace:
        for event in result.trace:
            print(json.dumps(event, sort_keys=True))
    if config.expected_verdicts is not None:
        expected, actual = config.expected_verdicts, verdicts.triple()
        if expected != actual:
            print(
                f"MISMATCH: expected {_fmt_triple(expected)},"
                f" got {_fmt_triple(actual)}"
            )
            return 1
        print(f"expected verdicts matched ({_fmt_triple(expected)})")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    rows = run_matrix()
    failures = 0
    for row in rows:
        status = "ok" if row.ok else "MISMATCH"
        print(
            f"{row.name:<26} expected={_fmt_triple(row.expected)}"
            f" actual={_fmt_triple(row.actual)} {status}"
        )
        if not row.ok:
            failures += 1
            for reason in row.reasons:
                print(f"    {reason}")
    print(f"{len(rows) - failures}/{len(rows)} rows matched")
    return 1 if failures else 0


def _cmd_avail(args: argparse.Namespace) -> int:
    try:
        report = availability_report(args.t1, args.t2, args.t3, args.t_op, args.t_check, args.wsp)
    except AvailabilityError as exc:  # a flag is its parameter's name with dashes
        flag = "--" + exc.param.replace("_", "-")
        print(f"bsa-sim: avail: {flag} {exc.value}: {exc.reason}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    return 0


def _cmd_ceremony(args: argparse.Namespace) -> int:
    for line in ceremony_demo():
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsa-sim",
        description="deterministic two-ledger custody protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file and grade it")
    p_run.add_argument("scenario", help="path to an INI-style scenario file")
    p_run.add_argument(
        "--trace", action="store_true", help="print the event trace as JSON lines"
    )
    p_run.set_defaults(func=_cmd_run)

    p_matrix = sub.add_parser("matrix", help="run the scripted failure matrix")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_avail = sub.add_parser("avail", help="oracle duty-cycle bounds")
    p_avail.add_argument("--t1", type=int, required=True, help="unbond delay")
    p_avail.add_argument("--t2", type=int, required=True, help="challenge delay")
    p_avail.add_argument("--t3", type=int, required=True, help="version validity window")
    p_avail.add_argument(
        "--t-op", dest="t_op", type=int, required=True, help="arbitration processing time"
    )
    p_avail.add_argument(
        "--t-check", dest="t_check", type=int, required=True, help="sync cadence"
    )
    p_avail.add_argument(
        "--wsp", type=int, required=True, help="weak subjectivity period"
    )
    p_avail.set_defaults(func=_cmd_avail)

    p_ceremony = sub.add_parser("ceremony", help="deposit setup walkthrough")
    p_ceremony.add_argument(
        "--demo", action="store_true", required=True, help="run the canned demonstration"
    )
    p_ceremony.set_defaults(func=_cmd_ceremony)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
