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
# The tick-3 event drains the queue, then posts at its own tick, after it
# and at it again (an insert before the new tail); the first run stops there.
@example([3], [[0, 1, 0], [], [2]], [1])
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


def test_a_handler_that_raises_mid_run_keeps_tick_seq_order():
    loop = EventLoop()
    seen, record = _recorder(loop)

    def boom(*args):
        record(*args)
        loop.post(0, record, "posted before the raise")
        raise RuntimeError("boom")
    loop.post(1, record, "a")
    loop.post(1, boom, "b")
    loop.post(1, record, "c")
    loop.post(2, record, "d")
    with pytest.raises(RuntimeError):
        loop.run()
    assert loop.now == 1
    assert loop.run() == 3
    assert seen == [(1, "a"), (1, "b"), (1, "c"), (1, "posted before the raise"), (2, "d")]


# The check must also hold after a run that a handler's exception ended.
@pytest.mark.parametrize("raises", [False, True])
def test_an_event_older_than_the_last_one_run_trips_the_order_check(raises):
    loop = EventLoop()
    seen, handler = _recorder(loop)

    def last(*args):
        handler(*args)
        if raises:
            raise RuntimeError("boom")
    loop.post(2, last, "run")
    if raises:
        with pytest.raises(RuntimeError):
            loop.run()
    else:
        assert loop.run() == 1
    loop._queue.appendleft((1, 99, handler, ("older tick",)))
    with pytest.raises(AssertionError, match="event ordering violated"):
        loop.run()
    loop._queue.appendleft((2, 0, handler, ("same tick, older seq",)))
    with pytest.raises(AssertionError, match="event ordering violated"):
        loop.run()
    assert seen == [(2, "run")]


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


# Each case: lines logged before the first event, then one step per script
# entry, each run that many ticks after the one before: it logs its lines
# to the first or the second of two traces on one loop.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans()), max_size=10))
@example(2, [(0, 2, False), (0, 1, True), (1, 3, True), (0, 1, False), (2, 0, False),
             (1, 2, False)])
def test_each_line_carries_the_tick_it_was_logged_at(before, script):
    loop = EventLoop()
    traces = (Trace(loop), Trace(loop))
    want = ([], [])

    def log(which, tick, text):
        traces[which].log(text)
        want[which].append(f"t={tick} {text}")

    def step(i, tick):
        _, count, which = script[i]
        for j in range(count):
            log(which, tick, f"step {i} line {j}")
        if i + 1 < len(script):
            loop.post(script[i + 1][0], step, i + 1, tick + script[i + 1][0])

    for j in range(before):
        log(j % 2, 0, f"before line {j}")
    if script:
        loop.post(script[0][0], step, 0, script[0][0])
    loop.run()
    assert [t.lines for t in traces] == list(want)


# Each case: one entry per log call, (ticks after the call before, text,
# whether `lines` is emptied first, as a test that reuses a trace does).
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["", "a", "a b", "DATA x hop=d1"]),
                          st.booleans()), max_size=30))
@example([(0, "a b", False), (0, "a b", False), (1, "a b", False), (0, "a", False),
          (0, "a b", False), (0, "a b", True), (0, "a b", False), (0, "a", True)])
def test_a_line_repeated_at_its_tick_is_the_line_before_it(calls):
    loop = EventLoop()
    trace = Trace(loop)
    want, logged = [], []           # since the last clear: lines, (tick, text)
    for step, text, clear in calls:
        loop.now += step
        if clear:
            del trace.lines[:]
            want, logged = [], []
        trace.log(text[:1] + text[1:])      # a fresh string: sharing rests on ==
        want.append(f"t={loop.now} {text}")
        logged.append((loop.now, text))
    assert trace.lines == want
    for i in range(1, len(want)):
        assert (trace.lines[i] is trace.lines[i - 1]) == (logged[i] == logged[i - 1])
