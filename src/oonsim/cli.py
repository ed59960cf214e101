"""Command-line entry point: run, validate and bench."""

from __future__ import annotations

import argparse
import sys

from .infolayer import Action, InfoNetwork, Requester, SegmentCuts
from .model import AttributeKind, ObjectClass, make_form
from .scenario import (
    generate_workload,
    load_scenario,
    oracle_find,
    result_keys,
    run,
)
from .sim import EventLoop, Metrics, Trace


def _cmd_run(args) -> int:
    result = run(load_scenario(args.scenario))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(result.trace.text())
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


def _bench_class(dims: int) -> ObjectClass:
    return ObjectClass(
        class_name="bench",
        defining_attributes=tuple((f"a{i}", AttributeKind.TEXT) for i in range(dims)))


def _cmd_bench(args) -> int:
    """Synthetic register-then-find workload over one relay grid."""
    cls = _bench_class(args.dims)
    cuts = SegmentCuts({f"a{i}": ("g", "n", "t") for i in range(args.dims)})
    loop = EventLoop()
    trace = Trace(loop)
    metrics = Metrics()
    net = InfoNetwork(cls, cuts, args.irns, loop, trace, metrics)
    specs, queries = generate_workload(args.seed, args.objects, args.queries, cls)
    forms = []
    for spec in specs:
        form = make_form(cls, spec.values)
        forms.append(form)
        net.issue_request(0, Action.REGISTER, form, Requester("bench"))
        loop.run()
    mismatches = 0
    for query in queries:
        rid = net.issue_request(0, Action.FIND, query, Requester("bench"))
        loop.run()
        got = result_keys(net.request(rid).forms, cls)
        want = result_keys(oracle_find(forms, query, cls), cls)
        if got != want:
            mismatches += 1
    metrics.irn_store_sizes = net.store_sizes()
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(metrics.csv(args.run_id))
    print(metrics.csv(args.run_id), end="")
    print(f"queries={len(queries)} oracle_mismatches={mismatches} "
          f"max_xfind_hops={max(metrics.xfind_hops, default=0)} "
          f"store_sizes={metrics.irn_store_sizes}")
    return 1 if mismatches else 0


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

    p_bench = sub.add_parser("bench", help="synthetic discovery benchmark")
    p_bench.add_argument("--objects", type=int, default=100)
    p_bench.add_argument("--queries", type=int, default=20)
    p_bench.add_argument("--irns", type=int, default=4)
    p_bench.add_argument("--dims", type=int, default=2)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--metrics", metavar="FILE")
    p_bench.add_argument("--run-id", default="bench0")
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
