"""Command-line entry point: run and validate."""

from __future__ import annotations

import argparse
import sys

from .model import OonError
from .scenario import load_scenario, run


def _cmd_run(args) -> int:
    result = run(load_scenario(args.scenario))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in result.trace.lines)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(result.metrics.csv(args.run_id))
    print(f"trace_sha256={result.trace.sha256()}")
    print(result.metrics.csv(args.run_id), end="")
    for i, audit in enumerate(result.audits):
        print(f"audit[{i}] dangling={len(audit.dangling)} orphans={len(audit.orphans)}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {len(scenario.classes)} classes, {len(scenario.domains)} domains, "
          f"{len(scenario.objects)} objects, {len(scenario.script)} script steps")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oon-sim",
                                     description="Object networking simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", metavar="FILE", help="write the trace log")
    p_run.add_argument("--metrics", metavar="FILE", help="write the metrics CSV")
    p_run.add_argument("--run-id", default="run0")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and cross-check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OonError, OSError) as exc:
        print(f"oon-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
