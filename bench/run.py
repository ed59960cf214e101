"""oonsim benchmark: one workload, one seed, timed for a fixed host time.

    python3 bench/run.py --workload discover --seed 3 --seconds 30 --trace 0

Runs from the root of a source checkout and imports oonsim from its
``src/``.  A run does, in order:

1. the golden check: ``scenarios/golden.json`` must hash to
   ``tests/data/golden_trace_hash.txt``;
2. rounds until --seconds of timed region have passed, at least two.
   Each round makes its inputs from the seed, times SETUP_REPS set-ups
   of the world, then runs the workload on a fresh world.  The first
   round also runs the oracle and the other checks, outside its timed
   region; every later round must reproduce its trace hash;
3. the report: the first round's simulated statistics, then the
   end-to-end metrics, each operation timed by its fastest round.

With --trace 1 every untraced round is followed by a traced round, the
per-layer metrics come from the traced rounds, and the spans of the last
one are written to ``bench/out/``.  The last line of standard output is
one JSON object; the exit code is 1 if any correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import tracemalloc
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5           # set-ups timed before each untraced round

# (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ok_ops_per_s", "ops/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def import_oonsim():
    """Import oonsim from this checkout's src/, or exit 1 if it is not there."""
    src = ROOT / "src"
    if not (src / "oonsim" / "__init__.py").is_file():
        sys.exit(f"error: no oonsim sources under {src}")
    sys.path.insert(0, str(src))
    import oonsim
    if Path(oonsim.__file__).resolve().parent != src / "oonsim":
        sys.exit(f"error: imported oonsim from {oonsim.__file__}, not {src}")


def golden_check() -> tuple:
    """(hash matches the committed one, a second run() of one Scenario agrees)."""
    from oonsim import load_scenario, run
    want = (ROOT / "tests" / "data" / "golden_trace_hash.txt").read_text().strip()
    sc = load_scenario(str(ROOT / "scenarios" / "golden.json"))
    first = run(sc).trace.sha256()
    again = run(sc).trace.sha256()
    return first == want, first == again


def best_of_rounds(rounds, kind) -> list:
    """Each operation's fastest host time over the rounds.

    Every round runs the same operations in the same order, so sample i
    of every round times the same operation.  The fastest of them is the
    figure least disturbed by contention from other tenants of the host.
    """
    return [min(times) for times in zip(*(r.samples[kind] for r in rounds))]


def end_to_end(wl, setup_times, rounds) -> tuple:
    """(metrics for the JSON line, the per-workload named metrics for the report)."""
    from harness import percentile
    best = {kind: best_of_rounds(rounds, kind) for kind in rounds[0].samples}
    op = best[wl.op]
    metrics = {
        "setup_s": median(setup_times),
        "ok_ops_per_s": rounds[0].ok_ops / sum(sum(best[k]) for k in wl.work),
        "op_ms_p50": percentile(op, 50) * 1e3,
        "op_ms_p90": percentile(op, 90) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {"setup_s": (metrics["setup_s"], "s"),
             "ok_ops_per_s": (metrics["ok_ops_per_s"], "ops/s"),
             "peak_rss_mib": (metrics["peak_rss_mib"], "MiB")}
    if wl.op == "find":
        named["find_ms_p50"] = (metrics["op_ms_p50"], "ms")
        named["find_ms_p90"] = (metrics["op_ms_p90"], "ms")
    if wl.name == "discover":
        named["register_us_p50"] = (percentile(best["register"], 50) * 1e6, "us")
    if wl.name == "transfer":
        named["data_msgs_per_s"] = (metrics["ok_ops_per_s"], "msg/s")
        named["turn_ms_p50"] = (metrics["op_ms_p50"], "ms")
    return metrics, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("discover", "transfer", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_oonsim()
    from harness import Tracer, patched
    import layers
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    errors = []
    golden_ok, rerun_same = golden_check()
    if not golden_ok:
        errors.append("golden trace hash differs from tests/data/golden_trace_hash.txt")

    setup_times = []

    def timed_round(check=False, tracer=None):
        """One round from freshly generated inputs; the first one checks."""
        inputs = wl.inputs(args.seed)
        gc.collect()
        if tracer is None:
            for _ in range(SETUP_REPS):
                t0 = perf_counter()
                wl.setup(inputs)
                setup_times.append(perf_counter() - t0)
        gc.collect()
        counts = {"events": 0}
        patches = layers.count_events(counts)
        if tracer is not None:
            patches += layers.instrument(tracer)
        with patched(patches):
            r = wl.round(inputs, check=check)
        r.stats["events"] = counts["events"]
        errors.extend(r.errors)
        if not check and r.stats["trace_sha256"] != ref.stats["trace_sha256"]:
            errors.append(f"trace hash {r.stats['trace_sha256']} differs from "
                          f"{ref.stats['trace_sha256']}")
        return r

    ref = timed_round(check=True)
    rounds, spent = [ref], ref.busy_s
    traced = []                  # (per-layer metrics, busy seconds) per traced round
    while len(rounds) < 2 or spent < args.seconds:
        rounds.append(timed_round())
        spent += rounds[-1].busy_s
        if args.trace:
            tracer = Tracer()
            r = timed_round(tracer=tracer)
            traced.append((layers.layer_metrics(tracer, r.stats), r.busy_s))
            spent += r.busy_s

    if args.trace:
        # median_low: counts are equal in every round and stay integers.
        metrics = {name: median_low([m[name] for m, _ in traced]) for name in traced[0][0]}
        metrics["scenario.oracle_s"] = ref.oracle_s
        untraced_s = median([r.busy_s for r in rounds[1:]])
        traced_s = median([busy for _, busy in traced])
        metrics["tracing.overhead_s"] = traced_s - untraced_s
        # Retained memory, in an untimed round of its own: tracemalloc
        # slows every allocation.
        tracemalloc.start()
        retained = timed_round().stats
        tracemalloc.stop()
        metrics["datalayer.retained_bytes_per_msg"] = (retained["traced_bytes"]
                                                       / retained["sent"])
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{wl.name}-seed{args.seed}.spans")
    else:
        metrics, named = end_to_end(wl, setup_times, rounds)
        named["fail_frac"] = (ref.failed / ref.attempted, "ratio")
        units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in metrics.items():
        if not math.isfinite(value):
            errors.append(f"metric {name} is {value}")

    s = ref.stats
    print(f"workload={wl.name} seed={args.seed} rounds={len(rounds)} "
          f"traced_rounds={len(traced)} timed_s={spent:.2f}")
    print(f"golden hash_ok={golden_ok} rerun_same_hash={rerun_same}")
    fmm = f"{s['find_msgs_mean']:.4f}" if "find_msgs_mean" in s else "n/a"
    print(f"sim trace_sha256={s['trace_sha256']} sent={s['sent']} delivered={s['delivered']} "
          f"dropped={s['dropped']} sim.events={s['events']} find_msgs_mean={fmm} "
          f"drops_by_cause={json.dumps(s['drops_by_cause'], sort_keys=True)}")
    if wl.name == "churn":
        print(f"churn sessions={s['sessions']} failed_sessions={s['failed_sessions']} "
              f"incomplete_finds={s['incomplete_finds']} "
              f"publish_errors={s['publish_errors']} audit_dangling={s['audit_dangling']}")
    if args.trace:
        print(f"tracing untraced_round_s={untraced_s:.4f} traced_round_s={traced_s:.4f} "
              f"spans={len(tracer.start)}")
    else:
        for name, (value, unit) in named.items():
            print(f"metric {name} {value:.6g} {unit}")
    print(f"checks {'ok' if not errors else 'FAILED'}")
    for e in errors[:20]:
        print(f"error {e}")

    print(json.dumps({
        "correct": not errors,
        "attempted": ref.attempted,
        "failed": ref.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
