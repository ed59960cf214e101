import random
from dataclasses import replace

import pytest

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
    SegmentCuts,
    allow_classes,
    build_partition_map,
    check_access,
    eval_query,
    handle_xfind,
    iname_key,
    locate_partitions,
    make_form,
    next_hops,
)
from oonsim import infolayer
from oonsim.infolayer import (
    InvalidCuts,
    InvalidPayload,
    ResultsMessage,
    UnknownRequest,
    WrongOwner,
    XFindMessage,
)
from oonsim.model import OPEN_POLICY, AccessPolicy, KindMismatch, OonError, Rule

from conftest import BOOK, make_info

REQ = Requester("person")


def _msg(action, payload, targets, path=(), rid=1):
    return XFindMessage(request_id=rid, action=action, payload=payload,
                        requester=REQ,
                        targets=frozenset(targets), path=tuple(path))


class TestPartitionMap:
    def test_two_by_two_one_cell_each(self):
        cuts = SegmentCuts({"title": ["n"], "author": ["n"]})
        pmap, nodes = build_partition_map(BOOK, cuts, 4)
        assert pmap.dims == (2, 2)
        assert sorted(len(n.owned) for n in nodes) == [1, 1, 1, 1]

    def test_single_node_owns_everything(self):
        cuts = SegmentCuts({"title": ["n"], "author": ["n"]})
        pmap, nodes = build_partition_map(BOOK, cuts, 1)
        assert nodes[0].owned == set(pmap.assignment)
        q = Query("book", {"title": ANY, "author": ANY})
        assert locate_partitions(pmap, q) <= nodes[0].owned

    def test_round_robin_row_major(self):
        # 3x2 grid over 2 nodes, enumerated by hand:
        # cells in row-major order get node ids 0,1,0,1,0,1
        cuts = SegmentCuts({"title": ["h", "p"], "author": ["n"]})
        pmap, nodes = build_partition_map(BOOK, cuts, 2)
        assert pmap.dims == (3, 2)
        assert nodes[0].owned == {(0, 0), (1, 0), (2, 0)}
        assert nodes[1].owned == {(0, 1), (1, 1), (2, 1)}

    def test_unsorted_cuts_rejected(self):
        with pytest.raises(InvalidCuts):
            build_partition_map(BOOK, SegmentCuts({"title": ["p", "h"]}), 2)

    def test_assignment_total_and_disjoint(self):
        cuts = SegmentCuts({"title": ["g", "n", "t"], "author": ["m"]})
        pmap, nodes = build_partition_map(BOOK, cuts, 3)
        owned = [c for n in nodes for c in n.owned]
        assert sorted(owned) == sorted(pmap.assignment)


class TestLocatePartitions:
    def setup_method(self):
        self.pmap, self.nodes = build_partition_map(
            BOOK, SegmentCuts({"title": ["n"], "author": ["n"]}), 4)

    def test_point_query_single_cell(self):
        q = Query("book", {"title": Eq("foundation"), "author": Eq("asimov")})
        assert locate_partitions(self.pmap, q) == {(0, 0)}

    def test_range_spanning_both_segments(self):
        # title range l..p straddles the cut at n, author unconstrained:
        # interval overlap puts every cell in scope
        q = Query("book", {"title": Range("l", "p"), "author": ANY})
        assert locate_partitions(self.pmap, q) == \
            {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_any_everywhere(self):
        q = Query("book", {})
        assert locate_partitions(self.pmap, q) == frozenset(self.pmap.assignment)

    def test_prefix_stays_in_one_segment(self):
        q = Query("book", {"title": Prefix("fo"), "author": ANY})
        assert locate_partitions(self.pmap, q) == {(0, 0), (0, 1)}

    def test_every_iname_maps_to_exactly_one_cell(self):
        rng = random.Random(8)
        for _ in range(200):
            title = "".join(rng.choice("abcyz") for _ in range(4))
            author = "".join(rng.choice("abcyz") for _ in range(4))
            q = Query("book", {"title": Eq(title), "author": Eq(author)})
            assert len(locate_partitions(self.pmap, q)) == 1


class TestNextHops:
    def test_own_cell_handled_locally(self):
        pmap, nodes = build_partition_map(
            BOOK, SegmentCuts({"title": ["n"], "author": ["n"]}), 4)
        msg = _msg(Action.FIND, Query("book", {}), [(0, 0)])
        assert next_hops(nodes[0], pmap, msg, set()) == []

    def test_line_topology_moves_toward_target(self):
        one_dim = ObjectClass("tag", (("label", AttributeKind.TEXT),))
        pmap, nodes = build_partition_map(
            one_dim, SegmentCuts({"label": ["g", "n", "t"]}), 4)
        msg = _msg(Action.FIND, Query("tag", {}), [(3,)])
        hops = next_hops(nodes[0], pmap, msg, {(3,)})
        assert hops == [(1, frozenset({(3,)}))]

    def test_two_by_two_fanout_batches(self):
        # from the (0,0) owner, the breadth-first tree enumerated by hand:
        # irn1 (0,1) and irn2 (1,0) are its neighbours in id order, and
        # irn3 (1,1) hangs below irn1 -- two forwards
        pmap, nodes = build_partition_map(
            BOOK, SegmentCuts({"title": ["n"], "author": ["n"]}), 4)
        msg = _msg(Action.FIND, Query("book", {}), set(pmap.assignment))
        hops = next_hops(nodes[0], pmap, msg, set(pmap.assignment) - nodes[0].owned)
        assert hops == [(1, frozenset({(0, 1), (1, 1)})), (2, frozenset({(1, 0)}))]


class TestHandleXfind:
    def setup_method(self):
        self.pmap, self.nodes = build_partition_map(
            BOOK, SegmentCuts({"title": ["n"], "author": ["n"]}), 4)

    def _register(self, node, form, rid=1):
        cell = self.pmap.cell_of_iname(form.iname)
        return handle_xfind(node, self.pmap,
                            _msg(Action.REGISTER, form, [cell], rid=rid))

    def test_register_into_empty_store(self):
        form = make_form(BOOK, {"title": "dune", "author": "herbert"})
        results, forwards = self._register(self.nodes[0], form)
        assert results.ack is True and results.detail == "Registered"
        assert forwards == []
        assert self.nodes[0].store[iname_key(BOOK, form.iname)] is form

    def test_duplicate_register_denied(self):
        form = make_form(BOOK, {"title": "dune", "author": "herbert"})
        self._register(self.nodes[0], form)
        results, _ = self._register(self.nodes[0], form, rid=2)
        assert results.ack is False and results.detail == "AlreadyExists"

    def test_find_matches_brute_force(self):
        titles = ["foundation", "foundling", "dune"]
        for t in titles:
            form = make_form(BOOK, {"title": t, "author": "a"})
            self._register(self.nodes[0], form)
        q = Query("book", {"title": Prefix("found")})
        results, _ = handle_xfind(self.nodes[0], self.pmap,
                                  _msg(Action.FIND, q, [(0, 0)]))
        expected = {t for t in titles if t.startswith("found")}
        assert {f.description["title"] for f in results.forms} == expected

    def test_modify_absent_denied(self):
        form = make_form(BOOK, {"title": "dune", "author": "herbert"})
        cell = self.pmap.cell_of_iname(form.iname)
        results, _ = handle_xfind(self.nodes[0], self.pmap,
                                  _msg(Action.MODIFY, form, [cell]))
        assert results.ack is False and results.detail == "NotFound"

    def test_delete_then_gone(self):
        form = make_form(BOOK, {"title": "dune", "author": "herbert"})
        self._register(self.nodes[0], form)
        cell = self.pmap.cell_of_iname(form.iname)
        results, _ = handle_xfind(self.nodes[0], self.pmap,
                                  _msg(Action.DELETE, form, [cell], rid=2))
        assert results.ack is True
        assert self.nodes[0].store == {}

    def test_wrong_owner_detected(self):
        # a write routed to a node that does not own the form's cell is a
        # partition-map bug, not a soft failure
        form = make_form(BOOK, {"title": "zelazny", "author": "zelazny"})
        cell = self.pmap.cell_of_iname(form.iname)
        wrong = self.nodes[(self.pmap.assignment[cell] + 1) % 4]
        with pytest.raises(WrongOwner):
            handle_xfind(wrong, self.pmap,
                         _msg(Action.REGISTER, form, list(wrong.owned)))


class TestNarrowedScan:
    """A find evaluates only the stored forms that could match: those in
    its local target cells whose first key lies in the query's interval.
    In a cell that lies wholly inside the query, it evaluates none."""

    TITLES = ("dune", "emma", "ubik", "zorba")
    AUTHORS = ("asimov", "herbert", "tolkien", "zelazny")
    HIDDEN = AccessPolicy(view_rule=Rule("deny_all"))

    def _find(self, monkeypatch, query, hidden=()):
        # one node owns all four cells of the 2x2 grid, which hold
        # every title/author pair; pair i has i pages, and the pairs in
        # hidden deny every view
        net = make_info(irn_count=1)
        pairs = [(t, a) for t in self.TITLES for a in self.AUTHORS]
        for pages, (title, author) in enumerate(pairs):
            policy = self.HIDDEN if (title, author) in hidden else OPEN_POLICY
            form = make_form(BOOK, {"title": title, "author": author, "pages": pages},
                             policy=policy)
            net.issue_request(0, Action.REGISTER, form, REQ)
            net.loop.run()
        evaluated = []

        def counting(q, form, cls):
            evaluated.append(form)
            return eval_query(q, form, cls)

        monkeypatch.setattr(infolayer, "eval_query", counting)
        rid = net.issue_request(0, Action.FIND, query, REQ)
        net.loop.run()
        return net, net.request(rid).forms, evaluated

    def test_eq_on_first_attribute_evaluates_only_that_key(self, monkeypatch):
        _, forms, evaluated = self._find(monkeypatch, Query("book", {"title": Eq("Emma")}))
        assert {f.description["title"] for f in evaluated} == {"emma"}
        assert len(evaluated) == len(forms) == len(self.AUTHORS)

    def test_other_cells_of_the_node_are_not_evaluated(self, monkeypatch):
        # author < "n" targets cells (0, 0) and (1, 0) of the node's four
        net, forms, evaluated = self._find(monkeypatch,
                                           Query("book", {"author": Range("a", "m")}))
        cells = {net.pmap.cell_of_iname(f.iname) for f in evaluated}
        assert cells == {(0, 0), (1, 0)} < net.nodes[0].owned
        assert len(evaluated) == len(forms) == len(self.TITLES) * 2

    def test_results_stay_in_key_order_across_cells(self, monkeypatch):
        # every cell is covered by a query with no predicate
        _, forms, evaluated = self._find(monkeypatch, Query("book", {}))
        keys = [iname_key(BOOK, f.iname) for f in forms]
        assert len(evaluated) == 0 and len(keys) == 16 and keys == sorted(keys)

    def test_denied_form_in_a_covered_cell_is_not_returned(self, monkeypatch):
        query = Query("book", {"author": ANY})
        net, forms, evaluated = self._find(monkeypatch, query, hidden={("dune", "asimov")})
        assert all(infolayer.cell_covered(net.pmap, query, c) for c in net.nodes[0].owned)
        assert evaluated == [] and len(forms) == 15
        assert ("dune", "asimov") not in {f.iname.values for f in forms}

    def test_extra_attribute_predicate_evaluates_every_target_form(self, monkeypatch):
        # pages constrains no segment, so no cell is covered
        _, forms, evaluated = self._find(monkeypatch, Query("book", {"pages": Range(0, 7)}))
        assert len(evaluated) == 16
        assert sorted(f.description["pages"] for f in forms) == list(range(8))


class TestRequestLifecycle:
    def test_find_expected_responses_count_owners(self):
        net = make_info()
        rid = net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        assert net.request(rid).expected == frozenset({0, 1, 2, 3})

    def test_register_expects_single_response(self):
        net = make_info()
        form = make_form(BOOK, {"title": "dune", "author": "herbert"})
        rid = net.issue_request(0, Action.REGISTER, form, REQ)
        assert net.request(rid).expected == frozenset({net.pmap.assignment[(0, 0)]})

    def test_shared_owner_cells_collapse(self):
        # 2x2 grid over 2 nodes: a full find touches 4 cells but only the
        # 2 distinct owners are awaited
        net = make_info(irn_count=2)
        rid = net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        assert net.request(rid).expected == frozenset({0, 1})

    def test_ill_typed_query_raises_before_anything_is_posted(self):
        net = make_info()
        with pytest.raises(KindMismatch):
            net.issue_request(0, Action.FIND, Query("book", {"pages": Eq("x")}), REQ)
        assert net.requests == {} and net.loop.run() == 0
        assert net.metrics.messages_sent() == 0

    def test_gather_completes_on_full_coverage(self):
        net = make_info()
        rid = net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        net.loop.run()
        assert net.request(rid).status == "complete"

    def test_gather_pending_until_all_respond(self):
        net = make_info()
        rid = net.issue_request(
            0, Action.FIND,
            Query("book", {"title": Eq("dune"), "author": Eq("herbert")}), REQ)
        rec = net.request(rid)
        assert rec.status == "pending"
        net.gather_results(ResultsMessage(request_id=rid, responder=99, entry=0))
        assert rec.status == "pending"  # 99 is not the expected owner

    def test_duplicate_results_ignored(self):
        net = make_info()
        rid = net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        form = make_form(BOOK, {"title": "dune", "author": "herbert"})
        dup = ResultsMessage(request_id=rid, responder=1, entry=0, forms=(form,))
        net.gather_results(dup)
        net.gather_results(dup)
        assert len(net.request(rid).forms) == 1

    def test_deadline_marks_timeout_with_partial_results(self):
        net = make_info(deadline=10)
        rid = net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        net.gather_results(ResultsMessage(request_id=rid, responder=0, entry=0))
        net._on_deadline(rid)
        rec = net.request(rid)
        assert rec.status == "timeout"
        assert rec.responded == {0}

    @pytest.mark.parametrize("entry", [4, -1])
    def test_entry_outside_relay_nodes_rejected(self, entry):
        net = make_info()
        with pytest.raises(OonError):
            net.issue_request(entry, Action.FIND, Query("book", {}), REQ)
        assert net.requests == {} and net.loop.run() == 0

    def test_unknown_request_rejected(self):
        net = make_info()
        with pytest.raises(UnknownRequest):
            net.request(404)

    def test_invalid_payload_rejected(self):
        net = make_info()
        with pytest.raises(InvalidPayload):
            net.issue_request(0, Action.FIND, "not a query", REQ)
        bad = make_form(BOOK, {"title": "t", "author": "a"})
        del bad.description["author"]
        with pytest.raises(InvalidPayload):
            net.issue_request(0, Action.REGISTER, bad, REQ)


class TestAccessControl:
    def test_allow_all(self):
        form = make_form(BOOK, {"title": "t", "author": "a"})
        assert check_access(form, Requester("sensor"), "view")

    def test_allow_classes_denies_other_class(self):
        policy = AccessPolicy(view_rule=allow_classes("person"))
        form = make_form(BOOK, {"title": "t", "author": "a"}, policy=policy)
        assert not check_access(form, Requester("sensor"), "view")
        assert check_access(form, Requester("person"), "view")

    def test_denied_forms_excluded_from_find(self):
        net = make_info()
        hidden = make_form(BOOK, {"title": "dune", "author": "herbert"},
                           policy=AccessPolicy(view_rule=Rule("deny_all")))
        shown = make_form(BOOK, {"title": "dawn", "author": "butler"})
        for form in (hidden, shown):
            net.issue_request(0, Action.REGISTER, form, REQ)
            net.loop.run()
        rid = net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        net.loop.run()
        assert [f.description["title"] for f in net.request(rid).forms] == ["dawn"]


class TestNetworkProperties:
    def test_registered_form_lands_on_assigned_node(self):
        net = make_info()
        rng = random.Random(44)
        for _ in range(50):
            title = "".join(rng.choice("abmnyz") for _ in range(4))
            author = "".join(rng.choice("abmnyz") for _ in range(4))
            form = make_form(BOOK, {"title": title, "author": author})
            rid = net.issue_request(0, Action.REGISTER, form, REQ)
            net.loop.run()
            if net.request(rid).detail != "Registered":
                continue  # duplicate iname
            cell = net.pmap.cell_of_iname(form.iname)
            owner = net.nodes[net.pmap.assignment[cell]]
            assert iname_key(BOOK, form.iname) in owner.store

    def test_no_routing_update_messages_ever(self):
        net = make_info()
        for title in ("alpha", "omega", "middle"):
            net.issue_request(
                0, Action.REGISTER,
                make_form(BOOK, {"title": title, "author": title}), REQ)
            net.loop.run()
        net.issue_request(0, Action.FIND, Query("book", {}), REQ)
        net.loop.run()
        assert set(net.metrics.sent) == {"xfind", "results"}

    def test_hop_count_bounded_by_grid_perimeter(self):
        net = make_info(cuts={"title": ["g", "n", "t"], "author": ["g", "n", "t"]},
                        irn_count=5)
        for entry in range(5):
            net.issue_request(entry, Action.FIND, Query("book", {}), REQ)
            net.loop.run()
        assert max(net.metrics.xfind_hops) <= net.pmap.max_hops()

    def test_eighty_node_line_completes(self):
        # 80 segments over 80 nodes: the last node is max_hops() == 79 hops
        # from entry 0, further than any fixed 64-hop limit would allow
        line = ObjectClass("tag", (("label", AttributeKind.TEXT),))
        net = make_info(line, {"label": [f"{i:02d}" for i in range(1, 80)]}, 80)
        form = make_form(line, {"label": "99"})
        reg = net.issue_request(0, Action.REGISTER, form, REQ)
        net.loop.run()
        find = net.issue_request(0, Action.FIND, Query("tag", {}), REQ)
        net.loop.run()
        assert net.request(reg).detail == "Registered"
        assert net.request(find).status == "complete"
        assert net.request(find).forms == [form]
        assert max(net.metrics.xfind_hops) == net.pmap.max_hops() == 79

    def test_results_climb_entry_tree_on_eighty_node_line(self):
        # node i owns segment i; "04x" lies in segment 4, six hops below
        # entry 10, so its results pass exactly nodes 4, 5, ..., 10
        tag = ObjectClass("tag", (("label", AttributeKind.TEXT),))
        net = make_info(tag, {"label": [f"{i:02d}" for i in range(1, 80)]}, 80)
        rid = net.issue_request(10, Action.REGISTER, make_form(tag, {"label": "04x"}), REQ)
        net.loop.run()
        at = [int(text.split(" at=irn")[1].split()[0])
              for text in net.trace.lines if " RESULTS " in text]
        assert at == list(range(4, 11))
        assert net.request(rid).detail == "Registered"
        assert net.metrics.sent["results"] == net.metrics.delivered["results"] == 1

    def test_message_conservation(self):
        net = make_info()
        for title in ("a", "b", "c"):
            net.issue_request(0, Action.REGISTER,
                              make_form(BOOK, {"title": title, "author": title}), REQ)
        net.issue_request(2, Action.FIND, Query("book", {}), REQ)
        net.loop.run()
        assert net.metrics.conservation_holds()
