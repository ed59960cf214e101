"""Property test: the networked find equals a reference matcher.

The reference is written here from the predicate definitions (``==``,
``str.startswith`` and ordered comparison of normalized keys), not from
``predicate_interval``, so it checks the one predicate definition that
matching and location share.  Cuts are random, and the relay-node count
runs from 1 to more than the number of cells.  Every query locates at
least one cell, because every key interval is closed below.  The same
finds check the forwarding: each relay node serves a request at most
once, every node the request awaits responds, and hops stay within the
grid's bound.  A second test interleaves register, modify, delete and find, and checks
each node's per-cell key index against its store after every step.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oonsim import (
    ANY,
    Action,
    AttributeKind,
    Eq,
    ObjectClass,
    Prefix,
    Query,
    Range,
    Requester,
    iname_key,
    locate_partitions,
    make_form,
    normalize_value,
    result_keys,
)

from conftest import make_info

TEXT, INTEGER = AttributeKind.TEXT, AttributeKind.INTEGER
ITEM = ObjectClass(
    "item",
    defining_attributes=(("name", TEXT), ("rank", INTEGER)),
    extra_description_attributes=(("note", TEXT), ("size", INTEGER)),
)
KINDS = dict(ITEM.defining_attributes + ITEM.extra_description_attributes)
REQ = Requester("tester")

# Case folding ("S", "ß" -> "ss"), neighbouring letters ("a"/"b", "n"/"o")
# and the largest code point, which has no successor, are where key bounds
# are easiest to get wrong.
texts = st.text(alphabet="abnoSsß\U0010ffff", min_size=1, max_size=3)
integers = st.integers(0, 40)


def values(kind, pool):
    """Fresh values, or values already used by a form or a cut, which put
    predicate bounds right on stored keys and segment boundaries."""
    fresh = texts if kind is TEXT else integers
    return st.one_of(fresh, st.sampled_from(pool)) if pool else fresh


@st.composite
def predicates(draw, kind, pool):
    choice = draw(st.sampled_from(("eq", "prefix", "range", "any")))
    if choice == "eq":
        return Eq(draw(values(kind, pool)))
    if choice == "prefix":
        if kind is TEXT:
            text = draw(values(kind, pool))
            return Prefix(text[:draw(st.integers(1, len(text)))])
        # Keys of 0..40 differ only in their last two of 20 digits.
        key = normalize_value(draw(values(kind, pool)), kind)
        return Prefix(key[:draw(st.integers(17, len(key)))])
    if choice == "any":
        return ANY
    lo, hi = sorted((draw(values(kind, pool)), draw(values(kind, pool))),
                    key=lambda v: normalize_value(v, kind))
    return Range(lo, hi)


def value_pools(name_cuts, rank_cuts, rows) -> dict:
    """Per attribute, the values on a cut or in a row."""
    pools = {"name": list(name_cuts), "rank": list(rank_cuts), "note": [], "size": []}
    for row in rows:
        for attr, value in row.items():
            pools[attr].append(value)
    return pools


@st.composite
def find_cases(draw):
    name_cuts = draw(st.lists(texts.map(str.casefold), max_size=3, unique=True))
    rank_cuts = draw(st.lists(integers, max_size=3, unique=True))
    cells = (len(name_cuts) + 1) * (len(rank_cuts) + 1)
    irn_count = draw(st.integers(1, cells + 2))
    rows = draw(st.lists(
        st.fixed_dictionaries({"name": texts, "rank": integers},
                              optional={"note": texts, "size": integers}),
        max_size=12))
    pools = value_pools(name_cuts, rank_cuts, rows)
    preds = []
    for attr in draw(st.lists(st.sampled_from(sorted(KINDS)), unique=True)):
        preds.append((attr, draw(predicates(KINDS[attr], pools[attr]))))
    entry = draw(st.integers(0, irn_count - 1))
    cuts = {"name": sorted(name_cuts),
            "rank": sorted(normalize_value(v, INTEGER) for v in rank_cuts)}
    return cuts, irn_count, rows, tuple(preds), entry


def reference_match(pred, raw, kind) -> bool:
    if pred is ANY:
        return True
    if raw is None:
        return False
    key = normalize_value(raw, kind)
    if isinstance(pred, Eq):
        return key == normalize_value(pred.value, kind)
    if isinstance(pred, Prefix):
        return key.startswith(pred.text.casefold())
    lo, hi = normalize_value(pred.lo, kind), normalize_value(pred.hi, kind)
    return lo <= key <= hi


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(find_cases())
# A range ending on a cut, over fewer relay nodes than cells.
@example(({"name": ["n"], "rank": []}, 1,
          [{"name": "m", "rank": 1}, {"name": "n", "rank": 2}],
          (("name", Range("a", "n")),), 0))
# A prefix's upper bound is open: "b" does not start with "a".
@example(({"name": [], "rank": []}, 1,
          [{"name": "a", "rank": 1}, {"name": "ab", "rank": 2}, {"name": "b", "rank": 3}],
          (("name", Prefix("a")),), 0))
# A prefix of only U+10FFFF has no upper bound.
@example(({"name": ["\U0010ffff"], "rank": []}, 2,
          [{"name": "\U0010ffff\U0010ffff", "rank": 1}, {"name": "z", "rank": 2}],
          (("name", Prefix("\U0010ffff")),), 1))
# A request entering at a node that owns no cell (more nodes than cells).
@example(({"name": [], "rank": []}, 2, [], (), 1))
# A one-value range that case-folds onto a cut.
@example(({"name": ["s"], "rank": []}, 1, [{"name": "s", "rank": 0}],
          (("name", Range("S", "S")),), 0))
# Six cells over three nodes, where a walk over the cell grid reached
# one node twice.
@example(({"name": ["a", "s"], "rank": ["00000000000000000000"]}, 3, [], (), 0))
def test_networked_find_equals_reference(case):
    cuts, irn_count, rows, preds, entry = case
    net = make_info(ITEM, cuts, irn_count)
    stored = []
    for row in rows:
        form = make_form(ITEM, row)
        rid = net.issue_request(0, Action.REGISTER, form, REQ)
        net.loop.run()
        if net.request(rid).detail == "Registered":
            stored.append(form)
    query = Query("item", preds)
    assert locate_partitions(net.pmap, query)
    hops_before = len(net.metrics.xfind_hops)
    rid = net.issue_request(entry, Action.FIND, query, REQ)
    net.loop.run()
    request = net.request(rid)
    want = [f for f in stored
            if all(reference_match(p, f.description.get(a), KINDS[a]) for a, p in preds)]
    assert request.status == "complete"
    assert result_keys(request.forms, ITEM) == result_keys(want, ITEM)
    assert len(request.forms) == len(want)

    visits = [line.split(" at=")[1].split()[0] for line in net.trace.lines
              if f" XFIND find req={rid} " in line]
    assert len(visits) == len(set(visits))
    assert request.responded == request.expected
    bound = net.pmap.max_hops() if net.nodes[entry].owned else 1
    assert max(net.metrics.xfind_hops[hops_before:], default=0) <= bound


@st.composite
def churn_cases(draw):
    """A grid, a pool of rows and a random sequence of register, modify,
    delete and find steps over them, each entering at a random node."""
    cuts, irn_count, rows, _, _ = draw(find_cases())
    rows = rows or [{"name": "a", "rank": 0}]
    pools = value_pools(cuts["name"], [int(k) for k in cuts["rank"]], rows)
    steps = []
    for action in draw(st.lists(st.sampled_from(list(Action)), max_size=20)):
        entry = draw(st.integers(0, irn_count - 1))
        if action is Action.FIND:
            attrs = draw(st.lists(st.sampled_from(sorted(KINDS)), unique=True))
            steps.append((action, entry, tuple(
                (a, draw(predicates(KINDS[a], pools[a]))) for a in attrs)))
        else:
            row = dict(draw(st.sampled_from(rows)))
            row["note"] = draw(texts)  # a modify replaces the extra attributes
            steps.append((action, entry, row))
    return cuts, irn_count, steps


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(churn_cases())
def test_cell_index_tracks_the_store_under_churn(case):
    cuts, irn_count, steps = case
    net = make_info(ITEM, cuts, irn_count)
    live = {}                     # normalized key -> the form stored under it
    for action, entry, arg in steps:
        if action is Action.FIND:
            rid = net.issue_request(entry, action, Query("item", arg), REQ)
            net.loop.run()
            want = [f for f in live.values() if all(
                reference_match(p, f.description.get(a), KINDS[a]) for a, p in arg)]
            assert net.request(rid).status == "complete"
            assert sorted(map(id, net.request(rid).forms)) == sorted(map(id, want))
        else:
            form = make_form(ITEM, arg)
            key = iname_key(ITEM, form.iname)
            rid = net.issue_request(entry, action, form, REQ)
            net.loop.run()
            if action is Action.REGISTER:
                assert net.request(rid).ack is (key not in live)
                live.setdefault(key, form)
            elif action is Action.MODIFY:
                assert net.request(rid).ack is (key in live)
                if key in live:
                    live[key] = form
            else:
                assert net.request(rid).ack is (live.pop(key, None) is not None)
        for node in net.nodes:
            assert all(keys == sorted(keys) for keys in node.cells.values())
            indexed = [(cell, k) for cell, keys in node.cells.items() for k in keys]
            assert sorted(k for _, k in indexed) == sorted(node.store)
            assert all(net.pmap.cell_of_key(k) == cell for cell, k in indexed)
