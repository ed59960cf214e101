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
