"""Look inside the discovery grid: cells, ownership and tree forwarding.

Shows how a class's namespace is cut into lexicographic segments, which
relay node owns which grid cell, where a query must travel, the parent
of every other node on an entry node's breadth-first tree, and that the
observed hop counts respect the analytic bound with zero routing state
exchanged.
"""

import random

from oonsim import (
    Action,
    AttributeKind,
    Eq,
    ObjectClass,
    Prefix,
    Query,
    Requester,
    SegmentCuts,
    build_partition_map,
    locate_partitions,
    make_form,
)
from oonsim.infolayer import InfoNetwork
from oonsim.sim import EventLoop, Metrics, Trace

TRACK = ObjectClass("track", (("artist", AttributeKind.TEXT),
                              ("title", AttributeKind.TEXT)))


def main():
    cuts = SegmentCuts({"artist": ["g", "n", "t"], "title": ["n"]})
    pmap, nodes = build_partition_map(TRACK, cuts, 3)
    print(f"grid {pmap.dims} over {len(nodes)} relay nodes, "
          f"analytic hop bound {pmap.max_hops()}")
    for node in nodes:
        print(f"  irn{node.irn_id} owns {sorted(node.owned)}, "
              f"tree parents {pmap.routes[node.irn_id]}")

    print("\n== where queries go ==")
    for q in (Query("track", {"artist": Eq("coltrane"), "title": Eq("naima")}),
              Query("track", {"artist": Prefix("m")}),
              Query("track", {})):
        cells = sorted(locate_partitions(pmap, q))
        print(f"  {dict(q.predicates) or 'match-all'} -> cells {cells}")

    print("\n== a populated network ==")
    loop = EventLoop()
    net = InfoNetwork(TRACK, cuts, 3, loop, Trace(loop), Metrics())
    rng = random.Random(4)
    requester = Requester("player")
    for _ in range(60):
        form = make_form(TRACK, {
            "artist": "".join(rng.choice("abcdefghinrstuz") for _ in range(5)),
            "title": "".join(rng.choice("abcdefghinrstuz") for _ in range(5))})
        net.issue_request(0, Action.REGISTER, form, requester)
    loop.run()
    print(f"  store sizes per node: {net.store_sizes()}")

    for entry in range(3):
        net.issue_request(entry, Action.FIND, Query("track", {}), requester)
        loop.run()
    m = net.metrics
    print(f"  worst observed hops {max(m.xfind_hops)} "
          f"(bound {pmap.max_hops()}), message types sent {sorted(m.sent)}")


if __name__ == "__main__":
    main()
