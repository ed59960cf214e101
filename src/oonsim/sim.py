"""Discrete-event engine, trace log and run metrics.

A single integer-tick clock; events are processed in (tick, insertion
sequence) order, which makes every run a pure function of its inputs.
Each event names the handler it calls and the arguments it passes, as a
forwarding element's table entry names the next element directly.  On the
data layer an event is one router visit for a message that travels alone,
or a burst: consecutive transmissions into one router at one tick, which
the loop would have run back to back.  So `max_events` counts events, not
transmissions.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from collections import Counter, deque


class EventLoop:
    """Single-threaded deterministic event loop over one deque in (tick, seq)
    order: an event due no earlier than the tail tick, the last queued one's,
    is appended in O(1) and moves it; one due earlier is inserted in place."""

    def __init__(self):
        self.now = 0
        self._queue = deque()
        self._seq = 0
        self._tail = 0
        self._last = (-1, -1)

    def post(self, delay: int, handler, *args) -> None:
        """Schedule handler(*args) delay ticks from now."""
        if delay < 0:
            raise ValueError("negative delay")
        tick = self.now + delay
        if tick < self._tail:
            insort(self._queue, (tick, self._seq, handler, args))
        else:
            self._queue.append((tick, self._seq, handler, args))
            self._tail = tick
        self._seq += 1

    def run(self, max_events: int = None) -> int:
        """Drain the queue, or run at most max_events events (a burst is one);
        returns the number of events processed."""
        queue = self._queue
        popleft = queue.popleft
        limit = None if max_events is None else max(max_events, 0)
        last_tick, last_seq = self._last
        processed = 0
        try:
            while queue and processed != limit:
                tick, seq, handler, args = popleft()
                assert tick > last_tick or (tick == last_tick and seq > last_seq), \
                    "event ordering violated"
                last_tick, last_seq = tick, seq
                self.now = tick
                handler(*args)
                processed += 1
        finally:
            self._last = (last_tick, last_seq)
        return processed


class Trace:
    """Append-only run log; lines are prefixed with the current tick.

    The `t=<tick> ` prefix is formatted once per tick.  A call with the tick
    and text of the call before, as a burst's chunks make at every router,
    appends that call's line object again: a repeat costs one list slot.
    sha256() streams the lines in chunks and never holds the whole text.
    """

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self._tick, self._prefix = None, ""
        self._text = self._line = None
        self.lines = []

    def log(self, text: str) -> None:
        now = self._loop.now
        if now != self._tick:
            self._tick, self._prefix = now, f"t={now} "
        elif text == self._text:
            self.lines.append(self._line)
            return
        self._text, self._line = text, self._prefix + text
        self.lines.append(self._line)

    def text(self) -> str:
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for i in range(0, len(self.lines), 4096):
            digest.update(("\n".join(self.lines[i:i + 4096]) + "\n").encode("utf-8"))
        return digest.hexdigest()


METRICS_CSV_HEADER = ("run_id,messages_sent,delivered,dropped,"
                      "mean_hops,fib_inter_size,fib_intra_size")


class Metrics:
    """Counters and samples collected over one run.

    Conservation invariant: every message sent is eventually counted as
    delivered or dropped, exactly once.
    """

    def __init__(self):
        self.sent = Counter()        # by message type: data | xfind | results
        self.delivered = Counter()
        self.drops_by_cause = Counter()  # data messages only, by cause
        self.data_hop_total = 0      # inter-domain hops over delivered data messages
        self.xfind_hops = Counter()  # inter-relay hops -> processed xfinds
        self.fib_inter_size = 0      # max over routers at end of run
        self.fib_intra_size = 0

    def messages_sent(self) -> int:
        return sum(self.sent.values())

    def messages_delivered(self) -> int:
        return sum(self.delivered.values())

    def messages_dropped(self) -> int:
        return sum(self.drops_by_cause.values())

    def conservation_holds(self) -> bool:
        return self.messages_sent() == self.messages_delivered() + self.messages_dropped()

    def mean_hops(self) -> float:
        if not self.delivered["data"]:
            return 0.0
        return self.data_hop_total / self.delivered["data"]

    def csv_row(self, run_id: str) -> str:
        return (f"{run_id},{self.messages_sent()},{self.messages_delivered()},"
                f"{self.messages_dropped()},{self.mean_hops():.4f},"
                f"{self.fib_inter_size},{self.fib_intra_size}")

    def csv(self, run_id: str) -> str:
        return METRICS_CSV_HEADER + "\n" + self.csv_row(run_id) + "\n"
