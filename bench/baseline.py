"""Re-measure the ROADMAP item-2 baseline table; a one-off record.

    python3 bench/baseline.py

Not part of the gated benchmark.  Prints one line per case: the golden
run, register and find (and the oracle) at 2k and 8k objects on a 4x4
grid of 2 text dimensions with 16 relay nodes, and a 5000-chunk pull
over a chain of 20 domains.  Times are host medians.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter

from run import ROOT, import_oonsim


def main() -> None:
    import_oonsim()
    import oonsim
    from oonsim.infolayer import Action, InfoNetwork, Requester, SegmentCuts
    from oonsim.model import AttributeKind, ObjectClass, make_form
    from oonsim.sim import EventLoop, Metrics, Trace

    from workloads import Transfer

    raw = json.loads((ROOT / "scenarios" / "golden.json").read_text())
    runs = []
    for _ in range(300):
        sc = oonsim.parse_scenario(raw)
        t0 = perf_counter()
        oonsim.run(sc)
        runs.append(perf_counter() - t0)
    print(f"golden run: {median(runs) * 1e3:.3f} ms/run")

    cls = ObjectClass("bench", (("a0", AttributeKind.TEXT), ("a1", AttributeKind.TEXT)))
    cuts = SegmentCuts({"a0": ("g", "n", "t"), "a1": ("g", "n", "t")})
    who = Requester("bench")
    for n in (2000, 8000):
        specs, queries = oonsim.generate_workload(3, n, 200, cls)
        loop = EventLoop()
        net = InfoNetwork(cls, cuts, 16, loop, Trace(loop), Metrics())
        forms = [make_form(cls, s.values) for s in specs]
        reg, find, oracle = [], [], []
        for form in forms:
            t0 = perf_counter()
            net.issue_request(0, Action.REGISTER, form, who)
            loop.run()
            reg.append(perf_counter() - t0)
        for query in queries:
            t0 = perf_counter()
            net.issue_request(0, Action.FIND, query, who)
            loop.run()
            t1 = perf_counter()
            oonsim.oracle_find(forms, query, cls)
            find.append(t1 - t0)
            oracle.append(perf_counter() - t1)
        print(f"{n} objects: register {median(reg) * 1e6:.1f} us/object, "
              f"find {median(find) * 1e3:.3f} ms/query, "
              f"oracle {median(oracle) * 1e3:.3f} ms/query")

    rates = []
    for _ in range(3):
        net, first, last = Transfer.setup(None)
        t0 = perf_counter()
        oonsim.run_pull(net, first, last.pname, 5000)
        rates.append(sum(len(v) for _, _, v in net.deliveries) / (perf_counter() - t0))
    print(f"pull of 5000 chunks over 20 domains: {median(rates) / 1e3:.1f}k router visits/s")


if __name__ == "__main__":
    main()
