"""Tests of the benchmark's own helpers: python3 -m pytest bench -q"""

import json
import sys
from pathlib import Path

import pytest

from harness import Tracer, patched, percentile, read_spans, self_times

ROOT = Path(__file__).resolve().parent.parent


class TestPercentile:
    def test_median_needs_ten_beyond(self):
        assert percentile(list(range(20)), 50) == 9
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)

    def test_p90_needs_ten_beyond(self):
        assert percentile(list(range(100)), 90) == 89
        with pytest.raises(ValueError):
            percentile(list(range(99)), 90)

    def test_order_of_samples_does_not_matter(self):
        samples = [float(x) for x in range(40, 0, -1)]
        assert percentile(samples, 50) == 20.0

    def test_failed_operation_misses_every_limit(self):
        samples = [1.0] * 19 + [float("inf")] * 11
        assert percentile(samples, 50) == 1.0
        assert percentile(samples + [float("inf")] * 10, 50) == float("inf")


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                 ("d", 5.0, 7.0, 0)]
        times = self_times(spans)
        assert times["a"] == (1, 10.0, 5.0)
        assert times["b"] == (1, 3.0, 2.0)
        assert times["c"] == (1, 1.0, 1.0)
        assert times["d"] == (1, 2.0, 2.0)

    def test_calls_of_one_name_add_up(self):
        spans = [("a", 0.0, 2.0, -1), ("x", 0.5, 1.0, 0), ("a", 3.0, 4.0, -1)]
        assert self_times(spans)["a"] == (2, 3.0, 2.5)

    def test_tracer_records_parents_from_call_nesting(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
        inner = tracer.wrap(lambda: None, "inner")
        outer = tracer.wrap(lambda: (inner(), inner()), "outer")
        outer()
        assert tracer.spans() == [("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0),
                                  ("inner", 3.0, 4.0, 0)]
        assert self_times(tracer.spans())["outer"] == (1, 5.0, 3.0)

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0))

        def boom():
            raise KeyError
        with pytest.raises(KeyError):
            tracer.wrap(boom, "boom")()
        tracer.wrap(lambda: None, "after")()
        assert tracer.spans() == [("boom", 0.0, 1.0, -1), ("after", 2.0, 3.0, -1)]

    def test_written_spans_read_back(self, tmp_path):
        tracer = Tracer()
        tracer.wrap(tracer.wrap(lambda: None, "b"), "a")()
        tracer.write(tmp_path / "x.spans")
        assert read_spans(tmp_path / "x.spans") == tracer.spans()


def test_patched_restores_after_an_error():
    class Owner:
        value = 1
    with pytest.raises(RuntimeError):
        with patched([(Owner, "value", 2)]):
            assert Owner.value == 2
            raise RuntimeError
    assert Owner.value == 1


def test_benchmark_json_lists_what_run_reports():
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import run
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
