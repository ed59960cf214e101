import pytest

from oonsim import EventLoop


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
