"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass line;
run with `pytest -v -s tests/test_acceptance.py` to see them.
"""

import pathlib
import random
import time

from oonsim import (
    Action,
    AttributeKind,
    Eq,
    InfoNetwork,
    ObjectClass,
    ObjectSpec,
    Query,
    Requester,
    SegmentCuts,
    load_scenario,
    make_form,
    oracle_find,
    result_keys,
    run,
)

from conftest import make_sim
from test_lifecycle import add_book, make_world

DATA = pathlib.Path(__file__).resolve().parent / "data"
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
REQ = Requester("anonymous")


def _ok(n, text):
    print(f"ACCEPTANCE {n}: {text}: PASS")


def _text_class(dims):
    attrs = tuple((f"a{i}", AttributeKind.TEXT) for i in range(dims))
    return ObjectClass(f"c{dims}", attrs)


def _rand_word(rng):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                   for _ in range(rng.randint(1, 6)))


def _info_net(cls, grid):
    cuts = {}
    for (name, _), segs in zip(cls.defining_attributes, grid):
        cuts[name] = list({4: ("g", "n", "t"), 2: ("n",)}[segs])
    loop, trace, metrics = make_sim()
    irn_count = max(2, len(grid) * 2)
    return InfoNetwork(cls, SegmentCuts(cuts), irn_count, loop, trace, metrics)


def _random_store(rng, cls, net, size):
    forms, seen = [], set()
    while len(forms) < size:
        values = {name: _rand_word(rng) for name, _ in cls.defining_attributes}
        key = tuple(values.values())
        if key in seen:
            continue
        seen.add(key)
        form = make_form(cls, values)
        net.issue_request(0, Action.REGISTER, form, REQ)
        forms.append(form)
    net.loop.run()
    return forms


def _random_query(rng, cls, forms):
    from oonsim import ANY, Prefix, Range
    preds = []
    for name, _ in cls.defining_attributes:
        pivot = rng.choice(forms).description[name]
        kind = rng.random()
        if kind < 0.3:
            preds.append((name, Eq(pivot)))
        elif kind < 0.55:
            preds.append((name, Prefix(pivot[:rng.randint(1, len(pivot))])))
        elif kind < 0.8:
            other = rng.choice(forms).description[name]
            lo, hi = sorted((pivot, other))
            preds.append((name, Range(lo, hi)))
        else:
            preds.append((name, ANY))
    return Query(cls.class_name, tuple(preds))


def test_1_location_correctness_all_dimensions():
    """Partitioned find equals brute force for 1..4 dimensional grids."""
    start = time.monotonic()
    grids = {1: (4,), 2: (4, 4), 3: (4, 4, 2), 4: (4, 4, 2, 2)}
    rng = random.Random(1001)
    for d, grid in grids.items():
        cls = _text_class(d)
        pairs = 0
        for round_no in range(5):
            net = _info_net(cls, grid)
            size = 1000 if (d, round_no) == (2, 0) else rng.randint(20, 120)
            forms = _random_store(rng, cls, net, size)
            for _ in range(20):
                q = _random_query(rng, cls, forms)
                rid = net.issue_request(rng.randrange(len(net.nodes)),
                                        Action.FIND, q, REQ)
                net.loop.run()
                rec = net.request(rid)
                assert rec.status == "complete"
                expected = result_keys(oracle_find(forms, q, cls), cls)
                assert result_keys(rec.forms, cls) == expected
                pairs += 1
        assert pairs == 100
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _ok(1, "partitioned find matches brute force on 1-4 dim grids "
           f"(100 store/query pairs each, {elapsed:.1f}s)")


def test_2_discovery_without_routing_exchange():
    """All published objects are findable; only protocol messages are ever sent."""
    rng = random.Random(1002)
    w = make_world()
    published = []
    for i in range(30):
        title, author = _rand_word(rng), _rand_word(rng)
        if any(t == title and a == author for _, t, a in published):
            continue
        oid = f"o{i}"
        add_book(w, oid, title, author, ("d1", "d2", "d3")[i % 3], entry=i % 4)
        w.instantiate(oid)
        w.publish(oid)
        published.append((oid, title, author))
    for oid, title, author in published:
        res = w.discover(Query("book", {"title": Eq(title), "author": Eq(author)}))
        assert res.complete and len(res.items) >= 1
    assert set(w.metrics.sent) <= {"xfind", "results", "data"}
    _ok(2, f"{len(published)} published objects all discoverable, "
           f"message types sent {sorted(w.metrics.sent)}")


def test_3_fib_scales_with_providers_not_objects():
    """Inter-domain tables stay bounded by the provider count at N=10,000."""
    from oonsim import World
    for providers in (2, 5, 10):
        w = World()
        w.add_class(ObjectClass("blob", (("name", AttributeKind.TEXT),)))
        names = [f"p{i}" for i in range(providers)]
        for n in names:
            w.add_domain(n)
        for a, b in zip(names, names[1:]):
            w.connect_domains(a, b, 1)
        per = 10_000 // providers
        for i in range(providers * per):
            oid = f"b{i}"
            w.add_object(ObjectSpec(oid, "blob", {"name": f"n{i}"},
                                    names[i % providers]))
            w.instantiate(oid)
        for d in w.datanet.domains.values():
            assert len(d.fib.inter) <= providers
        assert sum(len(d.hosts) for d in w.datanet.domains.values()) == 10_000
    _ok(3, "inter-domain FIB <= provider count for P in {2,5,10} at N=10,000")


def test_4_migration_transparent_to_holders():
    """A name learned before migration keeps working, with no re-discovery."""
    w = make_world()
    add_book(w, "prod", "dune", "herbert", "d1")
    w.instantiate("prod")
    w.publish("prod")
    w.add_object(ObjectSpec("cons", "person", {"name": "alice"}, "d3"))
    w.instantiate("cons")
    res = w.discover(Query("book", {"title": Eq("dune"), "author": Eq("herbert")}))
    pname = res.items[0][1][0]
    w.migrate("prod", "d2")
    xfind_before = w.metrics.sent["xfind"]
    st = w.pull("cons", pname, 3)
    assert st.outcome == "completed"
    assert w.metrics.sent["xfind"] == xfind_before
    _ok(4, "pre-migration pname pulls successfully after migration, "
           "0 extra discovery messages")


def test_5_session_message_counts():
    """Pull costs 1+k messages; an interactive session of t turns costs 2t."""
    for k in (1, 3, 10):
        w = make_world()
        add_book(w, "prod", "dune", "herbert", "d1")
        w.instantiate("prod")
        w.add_object(ObjectSpec("cons", "person", {"name": "alice"}, "d3"))
        w.instantiate("cons")
        st = w.pull("cons", w.record("prod").pname, k)
        assert (st.outcome, st.messages_sent) == ("completed", 1 + k)
    for t in (1, 3, 10):
        w = make_world()
        w.add_object(ObjectSpec("p1", "person", {"name": "bob"}, "d1"))
        w.add_object(ObjectSpec("p2", "person", {"name": "carol"}, "d3"))
        w.instantiate("p1")
        w.instantiate("p2")
        st = w.interactive("p1", w.record("p2").pname, t)
        assert (st.outcome, st.messages_sent) == ("completed", 2 * t)
        # strict alternation across domains
        hops = [v for _, _, v in w.datanet.deliveries]
        assert [h[0] for h in hops] == ["d1", "d3"] * t
    _ok(5, "pull = 1+k messages, interactive = 2t alternating messages "
           "for k,t in {1,3,10}")


def test_6_denied_operations_single_results():
    """Duplicate register and absent modify/delete: one negative Results each."""
    w = make_world()
    add_book(w, "a", "dune", "herbert")
    w.instantiate("a")
    w.publish("a")
    net = w.info["book"]
    cls = w.classes["book"]
    dup = make_form(cls, {"title": "dune", "author": "herbert"})
    absent = make_form(cls, {"title": "ghost", "author": "nobody"})
    cases = [(Action.REGISTER, dup, "AlreadyExists"),
             (Action.MODIFY, absent, "NotFound"),
             (Action.DELETE, absent, "NotFound")]
    for action, form, want in cases:
        before = w.metrics.sent["results"]
        rid = net.issue_request(0, action, form, REQ)
        w.loop.run()
        rec = net.request(rid)
        assert rec.status == "complete"
        assert rec.ack is False and rec.detail == want
        assert w.metrics.sent["results"] - before == 1
    _ok(6, "duplicate register / absent modify / absent delete each denied "
           "with exactly one Results")


def test_7_hop_bound():
    """Observed xfind hops never exceed the grid's analytic bound."""
    rng = random.Random(1007)
    cls = _text_class(2)
    net = _info_net(cls, (4, 4))
    forms = _random_store(rng, cls, net, 80)
    for _ in range(40):
        q = _random_query(rng, cls, forms)
        net.issue_request(rng.randrange(len(net.nodes)), Action.FIND, q, REQ)
        net.loop.run()
    bound = net.pmap.max_hops()
    worst = max(net.metrics.xfind_hops)
    assert worst <= bound
    _ok(7, f"max observed xfind hops {worst} <= analytic bound {bound}")


def test_8_deterministic_replay():
    """Golden scenario reproduces the committed trace hash and metrics row."""
    results = [run(load_scenario(str(SCENARIOS / "golden.json")))
               for _ in range(2)]
    h1, h2 = (r.trace.sha256() for r in results)
    assert h1 == h2
    assert h1 == (DATA / "golden_trace_hash.txt").read_text().strip()
    assert results[0].trace.text() == (DATA / "golden_trace.log").read_text()
    assert results[0].metrics.csv_row("golden") == \
        (DATA / "golden_metrics.csv").read_text().strip().splitlines()[-1]
    _ok(8, "two golden replays identical and equal to the committed "
           "trace hash and metrics row")


def test_9_audit_consistency():
    """Fault-free runs audit clean; a dropped host shows up as one dangle."""
    clean = run(load_scenario(str(SCENARIOS / "golden.json")))
    assert clean.audits and all(len(a.dangling) == 0 for a in clean.audits)
    faulty = run(load_scenario(str(SCENARIOS / "fault.json")))
    assert len(faulty.audits[-1].dangling) == 1
    _ok(9, "audits report 0 dangling pointers fault-free and exactly 1 "
           "after a host drop")
