import copy
import json
import pathlib

import pytest

from oonsim import (
    build_world,
    generate_workload,
    load_scenario,
    oracle_find,
    parse_scenario,
    result_keys,
    run,
)
from oonsim.infolayer import Action, Requester
from oonsim.model import Eq, Prefix, Query, make_form
from oonsim.scenario import MAX_STEP_COUNT, ScenarioParseError, ValidationError, parse_query

from conftest import BOOK
from test_lifecycle import make_world

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = SCENARIOS / "golden.json"
DATA = SCENARIOS.parent / "tests" / "data"


def golden_raw():
    return json.loads(GOLDEN.read_text())


def late_delete_raw():
    """golden.json at deadline 2 with `delete b2` and `audit` appended: b2's
    register and its delete both answer after the deadline."""
    raw = golden_raw()
    raw["deadline"] = 2
    raw["script"] += [{"action": "delete", "object": "b2"}, {"action": "audit"}]
    return raw


class TestParsing:
    def test_golden_loads(self):
        sc = load_scenario(str(GOLDEN))
        assert [c.class_name for c in sc.classes] == ["book", "reader", "person"]
        assert len(sc.script) == 16

    def test_json_error_carries_location(self):
        bad = SCENARIOS.parent / "tests" / "data" / "bad.json"
        bad.write_text('{\n  "seed": 1,\n}\n')
        try:
            with pytest.raises(ScenarioParseError) as exc:
                load_scenario(str(bad))
            assert "line 3" in str(exc.value)
        finally:
            bad.unlink()

    def test_unknown_cut_attribute_named(self):
        raw = golden_raw()
        raw["partitions"][0]["cuts"] = {"isbn": ["n"]}
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "isbn" in str(exc.value) and "partitions[0]" in str(exc.value)

    def test_unknown_domain_in_object(self):
        raw = golden_raw()
        raw["objects"][0]["domain"] = "d9"
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "objects[0]" in str(exc.value)

    def test_duplicate_object_id(self):
        raw = golden_raw()
        raw["objects"][1]["id"] = raw["objects"][0]["id"]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "duplicate" in str(exc.value)

    def test_unknown_script_action(self):
        raw = golden_raw()
        raw["script"].append({"action": "explode"})
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "unknown action" in str(exc.value)

    def test_script_references_validated(self):
        raw = golden_raw()
        raw["script"].append({"action": "migrate", "object": "nope", "to": "d1"})
        with pytest.raises(ValidationError):
            parse_scenario(raw)

    def test_missing_defining_value(self):
        raw = golden_raw()
        del raw["objects"][0]["values"]["author"]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "author" in str(exc.value)

    @pytest.mark.parametrize("entry", [4, -1])
    def test_discover_entry_outside_relay_nodes(self, entry):
        raw = golden_raw()
        raw["script"][6]["entry"] = entry  # a book find; book has 4 relay nodes
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "script[6]" in str(exc.value)

    @pytest.mark.parametrize("entry_irn", [4, -1])
    def test_object_entry_irn_outside_relay_nodes(self, entry_irn):
        raw = golden_raw()
        raw["objects"][0]["entry_irn"] = entry_irn  # b1, a book, published first
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "script[0]" in str(exc.value) and "b1" in str(exc.value)

    def test_publish_without_partition(self):
        raw = golden_raw()
        raw["partitions"] = [p for p in raw["partitions"] if p["class"] != "reader"]
        raw["script"] = [{"action": "publish", "object": "r1"}]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "script[0]" in str(exc.value) and "r1" in str(exc.value)

    def test_discover_without_partition(self):
        raw = golden_raw()
        raw["partitions"] = [p for p in raw["partitions"] if p["class"] != "reader"]
        raw["script"] = [{"action": "discover", "class": "reader", "query": {}}]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert "script[0]" in str(exc.value) and "reader" in str(exc.value)

    @pytest.mark.parametrize("where, edit", [
        ("script[0]", lambda raw: raw["script"][0].pop("object")),
        ("script[13]", lambda raw: raw["script"][13].pop("object")),
        ("script[16]", lambda raw: raw["script"].append({"action": "delete"})),
        ("script[16]", lambda raw: raw["script"].append({"action": "drop_host"})),
        ("script[9]", lambda raw: raw["script"][9].pop("consumer")),
        ("script[9]", lambda raw: raw["script"][9].pop("producer")),
        ("script[10]", lambda raw: raw["script"][10].pop("consumer")),
        ("script[10]", lambda raw: raw["script"][10].pop("producer")),
        ("script[11]", lambda raw: raw["script"][11].pop("a")),
        ("script[11]", lambda raw: raw["script"][11].pop("b")),
        ("script[0]", lambda raw: raw["script"][0].update(order="sideways")),
        ("script[9]", lambda raw: raw["script"][9].update(chunks="three")),
        ("script[10]", lambda raw: raw["script"][10].update(chunks=None)),
        ("script[11]", lambda raw: raw["script"][11].update(turns="3x")),
        ("script[9].chunks", lambda raw: raw["script"][9].update(chunks=-3)),
        ("script[10].chunks", lambda raw: raw["script"][10].update(chunks=-3)),
        ("script[11].turns", lambda raw: raw["script"][11].update(turns=0)),
        ("partitions[3]", lambda raw: (
            raw["classes"].append({"name": "atlas", "defining": [["name", "text"]]}),
            raw["partitions"].append({"class": "atlas", "cuts": {}, "irn_count": 0}))),
        ("links[1]", lambda raw: raw["links"][1].__setitem__(2, 0)),
        ("info_latency", lambda raw: raw.update(info_latency=-1)),
        ("deadline", lambda raw: raw.update(deadline=-1)),
        ("objects[0].entry_irn", lambda raw: raw["objects"][0].update(entry_irn="x")),
        ("script[6].entry", lambda raw: raw["script"][6].update(entry="x")),
        ("objects[0]", lambda raw: raw["objects"][0].pop("id")),
        ("links[0]", lambda raw: raw["links"].__setitem__(0, ["d1"])),
        ("script[6].query", lambda raw: raw["script"][6].update(query=["author"])),
        ("script[6].query.author",
         lambda raw: raw["script"][6].update(query={"author": {"range": ["a"]}})),
        ("script[6].query.author",
         lambda raw: raw["script"][6].update(query={"author": {"range": ["a", "b", "c"]}})),
        ("script[6].query.pages",
         lambda raw: raw["script"][6].update(query={"pages": {"eq": "x"}})),
        ("script[6].query.pages",
         lambda raw: raw["script"][6].update(query={"pages": {"eq": -1}})),
        ("script[6].query.pages",
         lambda raw: raw["script"][6].update(query={"pages": {"range": [1, "b"]}})),
        ("script[6].query.title",
         lambda raw: raw["script"][6].update(query={"title": {"range": ["z", "a"]}})),
        ("script[6].query.title",
         lambda raw: raw["script"][6].update(query={"title": {"eq": ""}})),
        ("script[6].query.title",
         lambda raw: raw["script"][6].update(query={"title": {"prefix": 5}})),
        ("partitions[0].cuts",
         lambda raw: raw["partitions"][0]["cuts"].update(pages=["00000000000000000100"])),
        ("partitions[0].cuts.title",
         lambda raw: raw["partitions"][0].update(cuts={"title": [5]})),
        ("partitions[0].cuts.title",
         lambda raw: raw["partitions"][0].update(cuts={"title": ["n", "a"]})),
        ("partitions[0].cuts.title",
         lambda raw: raw["partitions"][0].update(cuts={"title": ["n", "n"]})),
        ("partitions[0].cuts.title",
         lambda raw: raw["partitions"][0].update(cuts={"title": "nt"})),
        ("classes", lambda raw: raw.update(classes=5)),
        ("domains", lambda raw: raw.update(domains=5)),
        ("links", lambda raw: raw.update(links=5)),
        ("classes[0]", lambda raw: raw["classes"].__setitem__(0, 5)),
        ("partitions[0]", lambda raw: raw["partitions"].__setitem__(0, 5)),
        ("objects[0]", lambda raw: raw["objects"].__setitem__(0, 5)),
        ("script[0]", lambda raw: raw["script"].__setitem__(0, 5)),
        ("objects[0].values", lambda raw: raw["objects"][0].update(values=5)),
        ("objects[0].policy", lambda raw: raw["objects"][0].update(policy=5)),
        ("objects[0].view",
         lambda raw: raw["objects"][0].update(policy={"view": {"classes": 5}})),
        ("classes[0]", lambda raw: raw["classes"][0].update(defining=5)),
        ("classes[0]", lambda raw: raw["classes"][0].update(methods=5)),
        ("domains[3]", lambda raw: raw["domains"].append("d1")),
        ("domains[3]", lambda raw: raw["domains"].append(5)),
        ("script[16]", lambda raw: raw["script"].append({"action": ["audit"]})),
        ("classes[2].methods", lambda raw: raw["classes"][2].update(methods="Talking")),
        ("classes[0].name", lambda raw: raw["classes"][0].update(name=["book"])),
        ("partitions[0]", lambda raw: raw["partitions"][0].update({"class": ["book"]})),
        ("objects[0]", lambda raw: raw["objects"][0].update({"class": ["book"]})),
        ("objects[0]", lambda raw: raw["objects"][0].update(id=["b1"])),
        ("script[0]", lambda raw: raw["script"][0].update(object=["b1"])),
        ("script[6]", lambda raw: raw["script"][6].update({"class": ["book"]})),
        ("script[9].reply_to", lambda raw: raw["script"][9].update(reply_to=5)),
        ("script[6].requester_class",
         lambda raw: raw["script"][6].update(requester_class=5)),
    ], ids=["publish-object", "migrate-object", "delete-object", "drop_host-object",
            "pull-consumer", "pull-producer", "push-consumer", "push-producer",
            "interactive-a", "interactive-b", "publish-order", "pull-chunks",
            "push-chunks", "interactive-turns", "pull-chunks-negative",
            "push-chunks-negative", "interactive-turns-0", "irn_count-0", "link-latency-0",
            "info_latency-negative", "deadline-negative", "entry_irn-text",
            "discover-entry-text", "object-without-id", "link-one-end",
            "query-list", "range-one-bound", "range-three-bounds", "eq-text-on-integer",
            "eq-negative-integer", "range-text-on-integer", "range-reversed", "eq-empty-text",
            "prefix-integer", "cuts-extra-attribute", "cuts-integer", "cuts-decreasing", "cuts-repeated",
            "cuts-string", "classes-integer", "domains-integer", "links-integer",
            "class-integer", "partition-integer", "object-integer", "step-integer",
            "values-integer", "policy-integer", "policy-classes-integer",
            "defining-integer", "methods-integer", "domain-repeated", "domain-integer",
            "action-list", "methods-string", "class-name-list", "partition-class-list",
            "object-class-list", "object-id-list", "step-object-list", "discover-class-list",
            "pull-reply_to-integer", "discover-requester_class-integer"])
    def test_input_that_would_crash_run_is_rejected(self, where, edit):
        raw = golden_raw()
        edit(raw)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where.startswith(where)

    @pytest.mark.parametrize("step, key", [(9, "chunks"), (10, "chunks"), (11, "turns")])
    def test_chunks_and_turns_are_bounded(self, step, key):
        raw = golden_raw()
        raw["script"][step][key] = MAX_STEP_COUNT
        assert parse_scenario(raw).script[step][key] == MAX_STEP_COUNT
        raw["script"][step][key] = 10**20
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == f"script[{step}].{key}"

    def test_relay_nodes_times_cells_are_bounded(self):
        """Relay nodes times cells, summed over the partitions, may reach
        MAX_STEP_COUNT and no more; the partition that crosses it is named."""
        raw = golden_raw()            # book: 4 nodes over 4 cells, person 2 over 2
        raw["partitions"][2]["irn_count"] = MAX_STEP_COUNT - 20
        assert [p[2] for p in parse_scenario(raw).partitions] == [
            4, 2, MAX_STEP_COUNT - 20]
        raw["partitions"][2]["irn_count"] += 1
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == "partitions[2].irn_count"

        raw = golden_raw()            # book alone reaches the bound; person crosses it
        raw["partitions"][0]["irn_count"] = MAX_STEP_COUNT // 4
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == "partitions[1].irn_count"

        raw = golden_raw()            # book alone crosses the bound over its 4 cells
        raw["partitions"][0]["irn_count"] = MAX_STEP_COUNT // 4 + 1
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == "partitions[0].irn_count"

        raw = golden_raw()            # reader first leaves 12, which book's 4 x 4 crosses
        raw["partitions"].insert(0, raw["partitions"].pop(2))
        raw["partitions"][0]["irn_count"] = MAX_STEP_COUNT - 12
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == "partitions[1].irn_count"
        raw["partitions"][1]["irn_count"] = 2      # 8, and person's 2 x 2 makes 12
        assert [p[2] for p in parse_scenario(raw).partitions] == [MAX_STEP_COUNT - 12, 2, 2]

        raw = golden_raw()            # three one-cell partitions, each at the bound
        for p in raw["partitions"]:
            p.update(cuts={}, irn_count=MAX_STEP_COUNT)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == "partitions[1].irn_count"

    def test_second_partition_for_a_class_is_rejected(self):
        raw = golden_raw()
        raw["partitions"].append({"class": "book", "cuts": {}, "irn_count": 3})
        with pytest.raises(ValidationError) as exc:
            parse_scenario(raw)
        assert exc.value.where == "partitions[3].class"

    def test_root_that_is_not_an_object_is_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_scenario([golden_raw()])
        assert exc.value.where == "scenario"

    def test_seed_is_accepted_and_ignored(self):
        raw = golden_raw()
        raw["seed"] = "x"
        assert run(parse_scenario(raw)).trace.sha256() == \
            run(parse_scenario(golden_raw())).trace.sha256()

    def test_query_predicates(self):
        q = parse_query({"title": {"prefix": "fo"}, "author": "any",
                         "pages": {"range": [10, 20]}}, BOOK)
        kinds = {name: type(p).__name__ for name, p in q.predicates}
        assert kinds == {"title": "Prefix", "author": "AnyValue", "pages": "Range"}

    def test_empty_prefix_accepted(self):
        q = parse_query({"title": {"prefix": ""}}, BOOK)
        assert q.predicates == (("title", Prefix("")),)

    def test_discover_step_keeps_its_parsed_query(self):
        sc = parse_scenario(golden_raw())
        assert sc.script[6]["query"] == Query("book", (("author", Eq("asimov")),))

    def test_query_unknown_attribute(self):
        with pytest.raises(ValidationError):
            parse_query({"isbn": {"eq": "x"}}, BOOK)


class TestRun:
    def test_golden_runs_to_completion(self):
        result = run(load_scenario(str(GOLDEN)))
        assert all(d.complete for d in result.discoveries)
        assert all(s.outcome == "completed" for s in result.sessions)
        assert all(len(a.dangling) == 0 for a in result.audits)
        assert result.metrics.conservation_holds()

    def test_two_runs_identical(self):
        r1 = run(load_scenario(str(GOLDEN)))
        r2 = run(load_scenario(str(GOLDEN)))
        assert r1.trace.sha256() == r2.trace.sha256()
        assert r1.metrics.csv_row("x") == r2.metrics.csv_row("x")

    @pytest.mark.parametrize("name", ["golden.json", "fault.json"])
    def test_rerun_of_one_loaded_scenario_identical(self, name):
        # migrate must not write into the scenario's object specs
        sc = load_scenario(str(SCENARIOS / name))
        assert run(sc).trace.sha256() == run(sc).trace.sha256()

    def test_empty_script_sends_nothing(self):
        raw = golden_raw()
        raw["script"] = []
        result = run(parse_scenario(raw))
        assert sum(result.metrics.sent.values()) == 0
        assert result.trace.text() == ""

    def test_failed_publish_is_trace_not_crash(self):
        raw = golden_raw()
        # republished object: denial must land in the trace, not raise
        raw["script"] = [
            {"action": "publish", "object": "b1", "order": "bottom_up"},
            {"action": "publish", "object": "b1", "order": "bottom_up"},
        ]
        result = run(parse_scenario(raw))
        assert "ERROR publish b1" in result.trace.text()

    # b4 is a book at d2 that no step publishes.
    @pytest.mark.parametrize("step, error", [
        ({"action": "migrate", "object": "b4", "to": "d1"},
         "ERROR migrate b4 'b4' has no live host"),
        ({"action": "drop_host", "object": "b4"},
         "ERROR drop_host b4 'b4' has no live host"),
        ({"action": "pull", "consumer": "b4", "producer": "b1"},
         "ERROR pull b4 b1 'b4' has no live host"),
        ({"action": "interactive", "a": "b4", "b": "p2"},
         "ERROR interactive b4 p2 'b4' has no live host"),
        ({"action": "pull", "consumer": "r1", "producer": "b4"},
         "ERROR pull r1 b4 'b4' was never instantiated"),
        ({"action": "push", "producer": "b2", "consumer": "b4"},
         "ERROR push b2 b4 'b4' was never instantiated"),
        ({"action": "interactive", "a": "p1", "b": "b4"},
         "ERROR interactive p1 b4 'b4' was never instantiated"),
    ], ids=["migrate-unpublished", "drop_host-unpublished", "pull-unpublished-consumer",
            "interactive-unpublished-a", "pull-uninstantiated-producer",
            "push-uninstantiated-consumer", "interactive-uninstantiated-b"])
    def test_failing_step_is_an_error_line_not_a_crash(self, step, error):
        raw = golden_raw()
        raw["objects"].append({"id": "b4", "class": "book", "domain": "d2",
                               "values": {"title": "ubik", "author": "dick"}})
        raw["script"].append(step)
        result = run(parse_scenario(raw))
        golden = (DATA / "golden_trace.log").read_text().splitlines()
        assert result.trace.lines[:-1] == golden
        assert result.trace.lines[-1].split(" ", 1)[1] == error
        assert result.metrics.conservation_holds()

    def test_defining_value_of_the_wrong_kind_is_an_error_line(self):
        raw = golden_raw()
        raw["objects"][0]["values"]["title"] = 5
        result = run(parse_scenario(raw))
        # instantiate applies the relay node's check, so it reports the same violation
        assert "t=0 ERROR publish b1 kind mismatch for 'title'" in result.trace.lines
        assert result.world.host("b1") is None

    def test_extra_value_of_the_wrong_kind_leaves_no_orphan_host(self):
        raw = golden_raw()
        raw["objects"][0]["values"]["pages"] = "x"
        result = run(parse_scenario(raw))
        errors = [line for line in result.trace.lines if " ERROR publish b1 " in line]
        assert errors == ["t=0 ERROR publish b1 kind mismatch for 'pages'"]
        assert result.audits and all(not report.orphans for report in result.audits)
        assert result.world.host("b1") is None

    def test_top_down_extra_value_of_the_wrong_kind_sends_nothing(self):
        raw = golden_raw()
        raw["objects"][0]["values"]["pages"] = "x"
        raw["script"][0]["order"] = "top_down"
        result = run(parse_scenario(raw))
        # rejected before its register is issued, so b2's register is request 1
        assert result.trace.lines[:2] == ["t=0 ERROR publish b1 kind mismatch for 'pages'",
                                          "t=0 XFIND register req=1 at=irn0 targets=(1,0)"]
        assert result.audits and all(not report.orphans for report in result.audits)
        assert result.world.host("b1") is None

    def test_late_write_is_recorded_as_the_relay_node_applied_it(self):
        # at deadline 2, b2's register answers late: an error step, but the
        # relay node stored b2's form, so deleting b2 must delete that form
        result = run(parse_scenario(late_delete_raw()))
        assert "t=2 ERROR publish b2 register for 'b2' timeout" in result.trace.lines
        assert not any(form.iname.values[0] == "rendezvous with rama"
                       for form in result.world.info["book"].all_forms())
        assert " AUDIT dangling=0 " in result.trace.lines[-1]

    def test_timed_out_delete_still_detaches_the_host(self):
        # the relay node deleted b2's form, so b2's host goes with it,
        # although the step still reports the timeout
        result = run(parse_scenario(late_delete_raw()))
        assert result.trace.lines[-2:] == ["t=35 ERROR delete b2 delete for 'b2' timeout",
                                           "t=35 AUDIT dangling=0 orphans=0"]
        assert result.world.host("b2") is None
        assert result.metrics.conservation_holds()

    @pytest.mark.parametrize("raw", [
        golden_raw(), json.loads((SCENARIOS / "fault.json").read_text()), late_delete_raw(),
    ], ids=["golden", "fault", "late-delete"])
    def test_run_keeps_no_request_and_no_find_items(self, raw):
        result = run(parse_scenario(raw))
        assert all(net.requests == {} for net in result.world.info.values())
        assert len(result.discoveries) == 2
        assert all(d.items == [] and d.request is None
                   for d in result.discoveries)

    def test_top_down_publish_over_a_live_host_attaches_no_second_host(self):
        raw = golden_raw()
        raw["objects"].append({"id": "b4", "class": "book", "domain": "d2",
                               "values": {"title": "foundation", "author": "asimov"}})
        raw["script"] = [
            {"action": "publish", "object": "b1"},
            {"action": "publish", "object": "b4"},
            {"action": "delete", "object": "b1"},
            {"action": "publish", "object": "b4", "order": "top_down"},
            {"action": "audit"},
        ]
        result = run(parse_scenario(raw))
        world = result.world
        assert "ERROR publish b4 'b4': AlreadyExists" in result.trace.text()
        assert list(world.datanet.hosts) == [world.registry["b4"].pname]
        assert world.info["book"].all_forms()[0].relationship == [world.registry["b4"].pname]
        assert result.trace.lines[-1].endswith("AUDIT dangling=0 orphans=0")


class TestWorkload:
    def test_seed_repeatability(self):
        a = generate_workload(42, 20, 10, BOOK)
        b = generate_workload(42, 20, 10, BOOK)
        assert [s.values for s in a[0]] == [s.values for s in b[0]]
        assert a[1] == b[1]

    def test_distinct_inames(self):
        specs, _ = generate_workload(1, 200, 0, BOOK)
        keys = {(s.values["title"].casefold(), s.values["author"].casefold())
                for s in specs}
        assert len(keys) == 200

    def test_all_eq_queries_target_one_cell(self):
        from oonsim import SegmentCuts, build_partition_map, locate_partitions
        pmap, _ = build_partition_map(
            BOOK, SegmentCuts({"title": ["g", "n", "t"], "author": ["n"]}), 4)
        _, queries = generate_workload(9, 30, 50, BOOK, proportions=(1, 0, 0, 0))
        for q in queries:
            assert len(locate_partitions(pmap, q)) == 1

    def test_objects_land_in_predicted_cells(self):
        from oonsim import SegmentCuts, build_partition_map, iname_key
        pmap, _ = build_partition_map(
            BOOK, SegmentCuts({"title": ["g", "n", "t"], "author": ["n"]}), 4)
        specs, _ = generate_workload(11, 1000, 0, BOOK)
        for s in specs:
            form = make_form(BOOK, s.values)
            cell = pmap.cell_of_iname(form.iname)
            # independent re-derivation: count cut keys below the normalized key
            key = iname_key(BOOK, form.iname)
            expected = tuple(sum(1 for c in cuts if c <= k)
                             for cuts, k in zip(pmap.dim_cuts, key))
            assert cell == expected


class TestOracle:
    def test_oracle_basic(self):
        from oonsim import Eq, Query
        forms = [make_form(BOOK, {"title": t, "author": "x"})
                 for t in ("alpha", "beta")]
        hit = oracle_find(forms, Query("book", {"title": Eq("alpha")}), BOOK)
        assert result_keys(hit, BOOK) == {("alpha", "x")}

    def test_network_matches_oracle_medium(self):
        w = make_world()
        specs, queries = generate_workload(5, 120, 25, BOOK)
        for i, s in enumerate(specs):
            s.domain = ("d1", "d2", "d3")[i % 3]
            s.entry_irn = i % 4
            w.add_object(s)
            w.instantiate(s.obj_id)
            w.publish(s.obj_id)
        ground = [w.record(s.obj_id).form for s in specs]
        for i, q in enumerate(queries):
            res = w.discover(q, entry=i % 4)
            assert res.complete
            expected = result_keys(oracle_find(ground, q, BOOK), BOOK)
            got = {k for k in (result_keys([f], BOOK).pop()
                               for f in res.request.forms)}
            assert got == expected
