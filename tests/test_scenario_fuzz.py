"""golden.json with one to three hostile edits: parse_scenario accepts it
or raises ValidationError, and an accepted scenario runs without raising,
conserves messages, leaves no request in any relay network and reproduces
its trace hash."""

import copy
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oonsim import parse_scenario, run
from oonsim.scenario import MAX_STEP_COUNT, ValidationError

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = json.loads((SCENARIOS / "golden.json").read_text())


def _paths(node, path=()):
    """(path, value) of every key and index under node, node's own first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


# Every place in golden.json, and optional keys it leaves out.
PATHS = [p for p, _ in _paths(GOLDEN) if p] + [
    ("objects", 0, "entry_irn"), ("objects", 4, "policy"), ("classes", 0, "methods"),
    ("script", 6, "requester_class"), ("script", 9, "reply_to"), ("script", 7, "entry")]
# The places that hold a number, so that bounds are hit often.
NUMBER_PATHS = [p for p, v in _paths(GOLDEN) if type(v) is int] + [
    ("objects", 0, "entry_irn"), ("script", 7, "entry")]
NUMBERS = [0, 1, 2, 3, -1, 10**20, -10**20, MAX_STEP_COUNT, MAX_STEP_COUNT + 1]

# Wrong types, empty strings, huge and negative numbers, unknown and known
# names, and counts on both sides of MAX_STEP_COUNT.
VALUES = [None, True, 0, 1, 2, -1, 1.5, 10**20, -10**20, MAX_STEP_COUNT, MAX_STEP_COUNT + 1,
          "", "x", "d9", "b9", "d2", "b1", "r1", "book", "person", "top_down", "delete",
          "drop_host", "deny_all", [], {}, [[]], ["d1", "d3"], {"eq": "asimov"},
          {"classes": ["reader"]}, {"title": ["a", "z"]}]

# A count above this is accepted but takes too long to run in tier-1.
RUN_LIMIT = 50

edits = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(PATHS), st.sampled_from(VALUES)),
    st.tuples(st.just("set"), st.sampled_from(NUMBER_PATHS), st.sampled_from(NUMBERS)),
    st.tuples(st.sampled_from(["swap", "dup"]), st.integers(0, 99), st.integers(0, 99)))


def _apply(raw, edit):
    """raw with one edit made in place; a path whose parent an earlier edit
    replaced, and a script that is no longer a list, are left as they are."""
    kind, a, b = edit
    if kind == "set":
        parent = raw
        for key in a[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                return
        if isinstance(parent, dict) or (isinstance(parent, list) and isinstance(a[-1], int)
                                        and a[-1] < len(parent)):
            parent[a[-1]] = copy.deepcopy(b)
        return
    script = raw.get("script")
    if isinstance(script, list) and script:
        i, j = a % len(script), b % len(script)
        if kind == "swap":
            script[i], script[j] = script[j], script[i]
        else:
            script.insert(j, copy.deepcopy(script[i]))


@settings(max_examples=500, deadline=None)
@given(st.lists(edits, min_size=1, max_size=3))
# Parsed, then built 10**20 relay nodes until memory ran out.
@example([("set", ("partitions", 0, "irn_count"), 10**20)])
# Each partition within the bound, their sum over it.
@example([("set", ("partitions", 2, "irn_count"), MAX_STEP_COUNT)])
@example([("set", ("script", 9, "chunks"), MAX_STEP_COUNT)])
@example([("set", ("script", 11, "turns"), MAX_STEP_COUNT + 1)])
@example([("dup", 13, 0), ("swap", 0, 15)])
@example([("set", ("partitions",), []), ("set", ("script",), [])])
def test_an_edited_golden_scenario_is_rejected_or_runs_cleanly(edit_list):
    raw = copy.deepcopy(GOLDEN)
    for edit in edit_list:
        _apply(raw, edit)
    try:
        scenario = parse_scenario(raw)
    except ValidationError:
        return
    counts = [step[key] for step in scenario.script for key in ("chunks", "turns")
              if key in step] + [irns for _, _, irns in scenario.partitions]
    assert max(counts, default=0) <= MAX_STEP_COUNT
    cells = {c.class_name: c.defining_names for c in scenario.classes}
    assert sum(irns * math.prod(len(cuts.get(n, ())) + 1 for n in cells[cname])
               for cname, cuts, irns in scenario.partitions) <= MAX_STEP_COUNT
    if max(counts, default=0) > RUN_LIMIT:
        return
    first = run(scenario)
    assert first.metrics.conservation_holds()
    assert not any(net.requests for net in first.world.info.values())
    assert run(scenario).trace.sha256() == first.trace.sha256()


@pytest.mark.parametrize("name", ["golden", "fault"])
def test_a_committed_scenario_leaves_no_request(name):
    result = run(parse_scenario(json.loads((SCENARIOS / f"{name}.json").read_text())))
    assert not any(net.requests for net in result.world.info.values())
