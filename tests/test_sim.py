import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oonsim import EventLoop, Trace


def _recorder(loop):
    seen = []

    def handler(*args):
        seen.append((loop.now,) + args)
    return seen, handler


def test_same_tick_events_run_in_post_order():
    loop = EventLoop()
    seen, handler = _recorder(loop)
    for name in ("c", "a", "b"):
        loop.post(2, handler, name)
    loop.post(1, handler, "first")
    assert loop.run() == 4
    assert seen == [(1, "first"), (2, "c"), (2, "a"), (2, "b")]


def test_handler_receives_exactly_the_posted_args():
    loop = EventLoop()
    seen, handler = _recorder(loop)
    payload = {"k": 1}
    loop.post(0, handler)
    loop.post(0, handler, payload, None, 3)
    loop.run()
    assert seen == [(0,), (0, payload, None, 3)]
    assert seen[1][1] is payload


def test_max_events_stops_early_and_a_second_run_resumes():
    loop = EventLoop()
    seen, handler = _recorder(loop)
    for i in range(5):
        loop.post(i, handler, i)
    assert loop.run(max_events=2) == 2
    assert seen == [(0, 0), (1, 1)]
    assert loop.run() == 3
    assert seen == [(i, i) for i in range(5)]


@pytest.mark.parametrize("max_events", [0, -1])
def test_max_events_zero_or_negative_processes_nothing(max_events):
    loop = EventLoop()
    seen, handler = _recorder(loop)
    for i in range(3):
        loop.post(i, handler, i)
    assert loop.run(max_events=max_events) == 0
    assert seen == [] and loop.now == 0
    assert loop.run() == 3
    assert seen == [(i, i) for i in range(3)]


# Each case: the delays posted before the first run, the delays the i-th
# processed event posts, and the max_events of each run before a last
# run() that drains the queue.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6),
       st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=12),
       st.lists(st.sampled_from([None, 0, 1, 2, 3]), max_size=5))
# The tick-0 event posts a tick-1 event behind the two queued at tick 1
# and ahead of tick 3, and the first run stops just after that insert.
@example([0, 1, 1, 3], [[1]], [1])
# Two inserts at the head's own tick, after a run cut at 0.
@example([4, 0], [[0, 0], [4]], [0, None])
def test_events_run_in_tick_seq_order_across_cut_runs(delays, children, cuts):
    loop = EventLoop()
    posted, processed = [], []

    def post(delay):
        posted.append((loop.now + delay, len(posted)))
        loop.post(delay, handler, *posted[-1])

    def handler(tick, seq):
        assert loop.now == tick
        processed.append((tick, seq))
        if len(processed) <= len(children):
            for delay in children[len(processed) - 1]:
                post(delay)

    for delay in delays:
        post(delay)
    counts = [loop.run(max_events=n) for n in cuts] + [loop.run()]
    assert processed == sorted(posted)
    assert sum(counts) == len(posted)
    assert loop.run() == 0


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.post(-1, print)
    assert loop.run() == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text()))
@example([])
@example(["one line"])
@example(["naïve café", "日本語 の 行", "a  b ", " "])
@example([f"t={i} line {i}" for i in range(4096)])
@example([f"t={i} line {i}" for i in range(4097)])
def test_streamed_hash_equals_the_hash_of_the_text(lines):
    trace = Trace(EventLoop())
    trace.lines.extend(lines)
    assert trace.sha256() == hashlib.sha256(trace.text().encode("utf-8")).hexdigest()
