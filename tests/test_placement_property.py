"""Property test: the data layer's placement record follows a reference model.

Random connected domain graphs of 2 to 6 domains, and random sequences of
instantiate, migrate, delete, drop_host, re-publish and new links, all
through World.  After every step each object's host, its domain, every
domain's hosts and owned GlobalIds must equal what a small model says.
A twin World runs the same steps, installs the routes of every host it
attaches, and after each step routes afresh every prefix it has routed,
at the owner it last named; equal forwarding tables show that the route
record never skips a needed install and that a new link leaves no route
stale.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oonsim import AttributeKind, ObjectClass, ObjectSpec, World
from oonsim.lifecycle import AlreadyPublished, UnknownObject

BLOB = ObjectClass("blob", (("name", AttributeKind.TEXT),),
                   methods=("SendDataTo", "SinkDataFrom"))


def domain_names(n):
    return [f"d{i}" for i in range(n)]


@st.composite
def placement_cases(draw):
    """(domain count, links, each object's first domain, steps)."""
    n = draw(st.integers(2, 6))
    names = domain_names(n)
    links = [(names[i], names[draw(st.integers(0, i - 1))], draw(st.integers(1, 3)))
             for i in range(1, n)]  # a random spanning tree keeps the graph connected
    domains = st.sampled_from(names)
    homes = draw(st.lists(domains, min_size=1, max_size=5))
    objects = st.sampled_from([f"o{i}" for i in range(len(homes))])
    steps = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("instantiate", "delete", "drop_host", "publish")),
                  objects),
        st.tuples(st.just("migrate"), objects, domains),
        st.tuples(st.just("link"), domains, domains).filter(lambda s: s[1] != s[2]),
    ), max_size=25))
    return n, links, homes, steps


def build(n, links, homes) -> World:
    w = World()
    w.add_class(BLOB)
    for name in domain_names(n):
        w.add_domain(name)
    for a, b, latency in links:
        w.connect_domains(a, b, latency)
    w.add_partition("blob", {}, 1)
    for i, home in enumerate(homes):
        w.add_object(ObjectSpec(f"o{i}", "blob", {"name": f"o{i}"}, home))
    return w


def apply(w: World, step, live: dict, published: set) -> None:
    """Run one step; live and published are the model before it."""
    op, obj = step[0], step[1]
    if op == "instantiate":
        if obj not in live:
            w.instantiate(obj)
    elif op == "migrate" and obj in live:
        w.migrate(obj, step[2])
    elif op == "delete":
        w.delete(obj)
    elif op == "drop_host" and obj in live:
        w.drop_host(obj)
    elif op in ("migrate", "drop_host"):
        with pytest.raises(UnknownObject):
            getattr(w, op)(*step[1:])
    elif op == "publish":
        if obj not in live:
            w.instantiate(obj)
        if obj in published:
            with pytest.raises(AlreadyPublished):
                w.publish(obj)
        else:
            w.publish(obj)
    else:
        w.connect_domains(step[1], step[2])


def advance(step, live: dict, home: dict, published: set) -> None:
    """The model's version of apply."""
    op, obj = step[0], step[1]
    if op in ("instantiate", "publish"):
        live.setdefault(obj, home[obj])
        if op == "publish":
            published.add(obj)
    elif op == "migrate" and obj in live:
        live[obj] = home[obj] = step[2]
    elif op == "delete":
        live.pop(obj, None)
        published.discard(obj)
    elif op == "drop_host":
        live.pop(obj, None)


def check(w: World, live: dict) -> None:
    for obj in w.registry:
        host = w.host(obj)
        assert (host is not None) == (obj in live)
        if host is not None:
            pname = w.record(obj).pname
            assert host.pname == pname
            assert w.datanet.domain_of(pname) == host.domain == live[obj]
    for name, domain in w.datanet.domains.items():
        here = [w.record(obj).pname for obj, d in live.items() if d == name]
        assert set(domain.hosts) == {(p.global_id, p.local_id) for p in here}
        assert domain.owned_globals == {p.global_id for p in here}


def fibs(w: World) -> dict:
    return {name: dict(d.fib.inter) for name, d in w.datanet.domains.items()}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(placement_cases())
# A migration away and back: the prefix must route to the old home again.
@example((3, [("d1", "d0", 1), ("d2", "d1", 1)], ["d0"],
          [("instantiate", "o0"), ("migrate", "o0", "d2"), ("migrate", "o0", "d0")]))
# A link made after the prefix was routed: the prefix must route over the
# shortcut, and the next attach under it, whose owner domain is unchanged,
# must keep that route.
@example((3, [("d1", "d0", 1), ("d2", "d1", 1)], ["d0", "d0"],
          [("instantiate", "o0"), ("link", "d2", "d0"), ("instantiate", "o1")]))
# Delete, then publish again: a fresh p-name under the same prefix.
@example((2, [("d1", "d0", 2)], ["d1"],
          [("publish", "o0"), ("delete", "o0"), ("publish", "o0"), ("drop_host", "o0"),
           ("migrate", "o0", "d0")]))
def test_placement_follows_the_model(case):
    n, links, homes, steps = case
    world, twin = build(n, links, homes), build(n, links, homes)
    owners, install = {}, twin.datanet.install_routes   # prefix -> last owner named

    def install_always(gid, owner):
        owners[gid] = owner
        twin.datanet.route_owner.clear()
        install(gid, owner)
    twin.datanet.install_routes = install_always
    live, published = {}, set()
    home = {f"o{i}": d for i, d in enumerate(homes)}
    for step in steps:
        apply(world, step, live, published)
        apply(twin, step, live, published)
        for gid, owner in list(owners.items()):
            install_always(gid, owner)
        advance(step, live, home, published)
        check(world, live)
        assert fibs(world) == fibs(twin)
