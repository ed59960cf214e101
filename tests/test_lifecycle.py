import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oonsim import (
    AccessPolicy,
    AttributeKind,
    AuditReport,
    Eq,
    ObjectClass,
    ObjectSpec,
    PName,
    Prefix,
    Query,
    Range,
    World,
    allow_classes,
    eval_query,
    iname_key,
    make_form,
)
from oonsim.lifecycle import AlreadyPublished, NotInstantiated, UnknownObject

from conftest import BOOK, PERSON


def make_world(title_cuts=("n",), **kw):
    w = World(**kw)
    w.add_class(BOOK)
    w.add_class(PERSON)
    for d in ("d1", "d2", "d3"):
        w.add_domain(d)
    w.connect_domains("d1", "d2", 1)
    w.connect_domains("d2", "d3", 1)
    w.add_partition("book", {"title": list(title_cuts), "author": ["n"]}, 4)
    w.add_partition("person", {"name": ["m"]}, 2)
    return w


def add_book(w, obj_id, title, author, domain="d1", pages=None, entry=0):
    values = {"title": title, "author": author}
    if pages is not None:
        values["pages"] = pages
    w.add_object(ObjectSpec(obj_id, "book", values, domain, entry_irn=entry))


class TestInstantiate:
    def test_domain_assigner_one_prefix_per_domain(self):
        w = make_world()
        add_book(w, "a", "t1", "x", "d1")
        add_book(w, "b", "t2", "x", "d1")
        add_book(w, "c", "t3", "x", "d2")
        names = [w.instantiate(o)[1] for o in ("a", "b", "c")]
        assert names[0].global_id == names[1].global_id
        assert names[2].global_id != names[0].global_id
        assert (names[0].local_id, names[1].local_id) == (1, 2)

    def test_host_reachable_after_instantiate(self):
        w = make_world()
        add_book(w, "a", "t", "x", "d3")
        _, p = w.instantiate("a")
        assert w.datanet.host_of(p) is not None
        assert w.datanet.domain_of(p) == "d3"


class TestPublish:
    def test_bottom_up_requires_host(self):
        w = make_world()
        add_book(w, "a", "t", "x")
        with pytest.raises(NotInstantiated):
            w.publish("a", order="bottom_up")

    def test_bottom_up_form_lands_with_pointer(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        _, p = w.instantiate("a")
        assert w.publish("a") == "Registered"
        forms = w.info["book"].all_forms()
        assert len(forms) == 1
        assert tuple(forms[0].relationship) == (p,)

    def test_top_down_pointer_filled_in(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        w.publish("a", order="top_down")
        rec = w.record("a")
        host = w.host("a")
        assert rec.pname is not None and host is not None
        form = w.info["book"].all_forms()[0]
        assert tuple(form.relationship) == (rec.pname,)
        assert host.pname == rec.pname and host.domain == "d1"

    @pytest.mark.parametrize("order", ["bottom_up", "top_down"])
    def test_each_form_of_an_object_has_its_own_description_and_relationship(self, order):
        w = make_world()
        add_book(w, "a", "dune", "herbert", pages=412)
        if order == "bottom_up":
            w.instantiate("a")
        sent = []
        issue = w.info["book"].issue_request
        w.info["book"].issue_request = lambda *args: sent.append(args[2]) or issue(*args)
        w.publish("a", order=order)
        rec = w.record("a")
        forms = [rec.checked] + sent
        assert len(forms) == (2 if order == "bottom_up" else 3)
        assert rec.form is sent[-1] and rec.form.relationship == [rec.pname]
        assert rec.checked.relationship == []
        for i, f in enumerate(forms):
            assert f.iname is rec.checked.iname
            assert f.description == {"title": "dune", "author": "herbert", "pages": 412}
            for g in forms[i + 1:]:
                assert f.description is not g.description
                assert f.relationship is not g.relationship

    def test_duplicate_publish_denied(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        w.instantiate("a")
        w.publish("a")
        add_book(w, "b", "dune", "herbert", "d2")
        w.instantiate("b")
        with pytest.raises(AlreadyPublished):
            w.publish("b")

    def test_published_form_discoverable(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        w.instantiate("a")
        w.publish("a")
        res = w.discover(Query("book", {"title": Eq("dune"),
                                        "author": Eq("herbert")}))
        assert res.complete
        assert [it[0].values for it in res.items] == [("dune", "herbert")]


def _populate(w, rng, count):
    """Publish `count` random books across the domains; return their specs."""
    specs, seen = [], set()
    domains = ("d1", "d2", "d3")
    while len(specs) < count:
        title = "".join(rng.choice("abcdefmnoz") for _ in range(5))
        author = "".join(rng.choice("abcdefmnoz") for _ in range(5))
        if (title, author) in seen:
            continue
        seen.add((title, author))
        obj_id = f"o{len(specs)}"
        add_book(w, obj_id, title, author, rng.choice(domains),
                 pages=rng.randint(1, 999), entry=rng.randrange(4))
        w.instantiate(obj_id)
        w.publish(obj_id)
        specs.append((obj_id, title, author))
    return specs


class TestDiscover:
    def test_matches_linear_scan_oracle(self):
        rng = random.Random(71)
        w = make_world()
        specs = _populate(w, rng, 40)
        queries = [
            Query("book", {"title": Prefix("a")}),
            Query("book", {"author": Range("b", "n")}),
            Query("book", {"title": Eq(specs[7][1]), "author": Eq(specs[7][2])}),
            Query("book", {}),
        ]
        for q in queries:
            res = w.discover(q, entry=rng.randrange(4))
            assert res.complete
            # oracle: scan the ground-truth spec list directly
            expected = sorted(
                iname_key(BOOK, w.record(oid).form.iname)
                for oid, _, _ in specs
                if eval_query(q, w.record(oid).form, BOOK))
            got = [iname_key(BOOK, it[0]) for it in res.items]
            assert got == expected

    def test_returns_sorted_items_and_the_settled_request(self):
        w = make_world()
        _populate(w, random.Random(73), 10)
        res = w.discover(Query("book", {}))
        keys = [iname_key(BOOK, it[0]) for it in res.items]
        assert len(keys) == 10 and keys == sorted(keys)
        assert res.request.status == "complete"
        assert {f.iname for f in res.request.forms} == {it[0] for it in res.items}
        # the World took every request, writes included, out of the network
        assert all(net.requests == {} for net in w.info.values())

    def test_items_sort_the_projection_of_forms_from_many_cells(self):
        # 4x2 cells over 4 relay nodes, so each node owns two cells and
        # answers them one after the other: the forms arrive out of key order
        w = make_world(title_cuts=("g", "n", "t"))
        _populate(w, random.Random(74), 40)
        res = w.discover(Query("book", {}))
        forms, pmap = res.request.forms, w.info["book"].pmap
        cells = {pmap.cell_of_iname(f.iname) for f in forms}
        per_node = Counter(pmap.assignment[c] for c in cells)
        assert len(per_node) >= 2 and max(per_node.values()) >= 2
        assert [iname_key(BOOK, f.iname) for f in forms] != sorted(
            iname_key(BOOK, f.iname) for f in forms)
        keys = [iname_key(BOOK, it[0]) for it in res.items]
        assert len(keys) == 40 and keys == sorted(keys)
        assert res.items == sorted(((f.iname, tuple(f.relationship)) for f in forms),
                                   key=lambda it: iname_key(BOOK, it[0]))

    def test_pointers_resolve_to_live_hosts(self):
        rng = random.Random(72)
        w = make_world()
        _populate(w, rng, 10)
        res = w.discover(Query("book", {}))
        assert len(res.items) == 10
        for _, pointers in res.items:
            assert len(pointers) == 1
            assert w.datanet.host_of(pointers[0]) is not None


class TestMigrate:
    def test_pre_migration_pname_still_works(self):
        w = make_world()
        add_book(w, "prod", "dune", "herbert", "d1")
        w.instantiate("prod")
        w.publish("prod")
        w.add_object(ObjectSpec("cons", "person", {"name": "alice"}, "d3"))
        w.instantiate("cons")
        p = w.record("prod").pname
        assert w.pull("cons", p, 2).outcome == "completed"
        w.migrate("prod", "d2")
        st = w.pull("cons", p, 2)
        assert st.outcome == "completed"
        assert w.datanet.domain_of(p) == "d2"

    def test_informational_form_untouched(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert", "d1")
        w.instantiate("a")
        w.publish("a")
        before = w.info["book"].all_forms()
        w.migrate("a", "d3")
        assert w.info["book"].all_forms() == before

    def test_same_domain_migration_noop(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert", "d2")
        _, p = w.instantiate("a")
        w.migrate("a", "d2")
        assert w.datanet.domain_of(p) == "d2"

    def test_unpublished_object_can_migrate(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert", "d1")
        _, p = w.instantiate("a")
        w.migrate("a", "d3")
        assert w.datanet.domain_of(p) == "d3"

    def test_uninstantiated_object_cannot(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        with pytest.raises(UnknownObject):
            w.migrate("a", "d2")


class TestSessions:
    def _world_with_pair(self):
        w = make_world()
        add_book(w, "prod", "dune", "herbert", "d1")
        w.instantiate("prod")
        w.add_object(ObjectSpec("p1", "person", {"name": "bob"}, "d1"))
        w.add_object(ObjectSpec("p2", "person", {"name": "carol"}, "d3"))
        w.instantiate("p1")
        w.instantiate("p2")
        return w

    def test_pull_message_count(self):
        w = self._world_with_pair()
        st = w.pull("p2", w.record("prod").pname, 3)
        assert (st.outcome, st.messages_sent) == ("completed", 4)

    def test_push_message_count(self):
        w = self._world_with_pair()
        st = w.push("prod", w.record("p2").pname, 2)
        assert (st.outcome, st.messages_sent) == ("completed", 2)

    def test_interactive_message_count(self):
        w = self._world_with_pair()
        st = w.interactive("p1", w.record("p2").pname, 3)
        assert (st.outcome, st.messages_sent) == ("completed", 6)

    def test_exchange_rule_reads_the_callers_class(self):
        w = self._world_with_pair()
        only_persons = AccessPolicy(exchange_rule=allow_classes("person"))
        w.add_object(ObjectSpec("p3", "person", {"name": "dave"}, "d2",
                                policy=only_persons))
        w.instantiate("p3")
        target = w.record("p3").pname
        assert w.push("p1", target, 2).outcome == "completed"
        assert w.metrics.drops_by_cause["exchange_denied"] == 0
        assert w.push("prod", target, 2).outcome == "failed"
        assert w.metrics.drops_by_cause["exchange_denied"] == 2
        assert w.metrics.conservation_holds()

    def test_session_requires_instantiation(self):
        w = self._world_with_pair()
        add_book(w, "ghost", "t", "x")
        with pytest.raises(NotInstantiated):
            w.pull("ghost", w.record("prod").pname, 1)


class TestAuditAndDelete:
    def test_clean_world_audits_clean(self):
        rng = random.Random(73)
        w = make_world()
        _populate(w, rng, 15)
        report = w.audit_consistency()
        assert report.dangling == []
        assert report.orphans == []

    def test_dropped_host_dangles(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        w.instantiate("a")
        w.publish("a")
        p = w.record("a").pname
        w.drop_host("a")
        report = w.audit_consistency()
        assert [d[1] for d in report.dangling] == [p]

    def test_instantiate_only_is_orphan(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        _, p = w.instantiate("a")
        report = w.audit_consistency()
        assert report.dangling == []
        assert report.orphans == [p]

    def test_delete_removes_both_layers(self):
        w = make_world()
        add_book(w, "a", "dune", "herbert")
        _, p = w.instantiate("a")
        w.publish("a")
        w.delete("a")
        assert w.info["book"].all_forms() == []
        assert w.datanet.host_of(p) is None
        report = w.audit_consistency()
        assert report.dangling == [] and report.orphans == []

    def test_finalize_metrics_gauges(self):
        rng = random.Random(74)
        w = make_world()
        _populate(w, rng, 12)
        m = w.finalize_metrics()
        assert m.fib_inter_size <= 3  # at most one prefix per other domain
        assert m.conservation_holds()

    def test_dangling_in_key_order_within_a_node(self):
        # One relay node owns every cell; o0's cell (0,0) comes before o1's
        # (0,1) in coordinate order, but o1's key ("a", "z") sorts first.
        w = audit_world(1, 1, [("zeta", "b", "a", "d0"), ("zeta", "a", "z", "d0")])
        for obj in ("o0", "o1"):
            w.instantiate(obj)
            w.publish(obj)
        pointers = [w.record(obj).pname for obj in ("o1", "o0")]
        for obj in ("o0", "o1"):
            w.drop_host(obj)
        report = w.audit_consistency()
        assert [(n.values, p) for n, p in report.dangling] == list(zip([("a", "z"), ("b", "a")],
                                                                       pointers))


# --- the audit against its reference definition -------------------------------

# Added in this order, audited in name order; the "m" cuts make four cells,
# and LETTERS has values on both sides of them.
AUDIT_CLASSES = ("zeta", "alpha")
LETTERS = "abmnyz"


def audit_world(n, irns, objects) -> World:
    """n chained domains d0.., two-attribute classes over irns relay nodes
    each, and objects o0.. as (class, a0, a1, first domain)."""
    w = World()
    names = [f"d{i}" for i in range(n)]
    for name in names:
        w.add_domain(name)
    for a, b in zip(names, names[1:]):
        w.connect_domains(a, b)
    for name in AUDIT_CLASSES:
        w.add_class(ObjectClass(name, (("a0", AttributeKind.TEXT), ("a1", AttributeKind.TEXT))))
        w.add_partition(name, {"a0": ["m"], "a1": ["m"]}, irns)
    for i, (cls, a0, a1, domain) in enumerate(objects):
        w.add_object(ObjectSpec(f"o{i}", cls, {"a0": a0, "a1": a1}, domain))
    return w


@st.composite
def audit_cases(draw):
    """(domain count, relay nodes per class, objects, steps)."""
    n = draw(st.integers(1, 3))
    domains = st.sampled_from([f"d{i}" for i in range(n)])
    letters = st.sampled_from(LETTERS)
    objects = draw(st.lists(st.tuples(st.sampled_from(AUDIT_CLASSES), letters, letters, domains),
                            min_size=1, max_size=6, unique_by=lambda o: o[:3]))
    ids = st.sampled_from([f"o{i}" for i in range(len(objects))])
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("publish"), ids, st.sampled_from(("bottom_up", "top_down"))),
        st.tuples(st.sampled_from(("instantiate", "delete", "drop_host")), ids),
        st.tuples(st.just("migrate"), ids, domains),
    ), max_size=20))
    return n, draw(st.integers(1, 3)), objects, steps


def audit_step(w: World, step) -> None:
    """Run one step, skipping those the object's state makes an error."""
    op, obj = step[0], step[1]
    live = w.host(obj) is not None
    if op == "publish" and w.record(obj).form is None:
        if step[2] == "bottom_up" and not live:
            w.instantiate(obj)
        w.publish(obj, step[2])
    elif op == "instantiate" and not live:
        w.instantiate(obj)
    elif op == "migrate" and live:
        w.migrate(obj, step[2])
    elif op == "delete":
        w.delete(obj)
    elif op == "drop_host" and live:
        w.drop_host(obj)


def reference_audit(w: World) -> AuditReport:
    """The audit as first defined: every pointer of every form, class by
    class, in all_forms order; every host sorted by (domain, global id,
    local id), less those some form points to."""
    dangling, referenced = [], set()
    for class_name in sorted(w.info):
        for form in w.info[class_name].all_forms():
            for p in form.relationship:
                referenced.add(p)
                if w.datanet.host_of(p) is None:
                    dangling.append((form.iname, p))
    hosts = sorted(w.datanet.hosts.values(),
                   key=lambda h: (h.domain, h.pname.global_id, h.pname.local_id))
    return AuditReport(dangling, [h.pname for h in hosts if h.pname not in referenced])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(audit_cases())
# Two dangling pointers on one relay node, in cells whose coordinate order
# is not their key order, and a third in the other class.
@example((1, 1, [("zeta", "b", "a", "d0"), ("zeta", "a", "z", "d0"), ("alpha", "a", "a", "d0")],
          [("publish", "o0", "bottom_up"), ("publish", "o1", "top_down"),
           ("publish", "o2", "bottom_up"), ("drop_host", "o0"), ("drop_host", "o1"),
           ("drop_host", "o2")]))
# Orphans in three domains: o1 migrates from d0 to d2, so d2 holds a lower
# global id than its own, and o3 is re-instantiated after its host dropped.
@example((3, 2, [("alpha", "a", "a", "d2"), ("zeta", "n", "n", "d0"),
                 ("alpha", "z", "b", "d1"), ("zeta", "b", "y", "d0")],
          [("instantiate", "o0"), ("instantiate", "o1"), ("instantiate", "o2"),
           ("publish", "o3", "bottom_up"), ("migrate", "o1", "d2"), ("drop_host", "o3"),
           ("instantiate", "o3")]))
def test_audit_equals_its_reference(case):
    n, irns, objects, steps = case
    w = audit_world(n, irns, objects)
    assert w.audit_consistency() == reference_audit(w)
    for step in steps:
        audit_step(w, step)
        assert w.audit_consistency() == reference_audit(w)
