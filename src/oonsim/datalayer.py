"""Data layer: where each host lives, routing on physical names, and dispatch.

One router per domain.  Inter-domain forwarding is keyed on the global id
only, so a router's table grows with the number of providers, not with
the number of objects.  Intra-domain delivery looks up the local id among
the domain's attached hosts.  Routing reads nothing but the callee name.
Attaching a host routes its GlobalId prefix to the host's domain: this
module alone records where each host lives and where each prefix routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import AccessPolicy, OonError, PName, format_pname
from .sim import EventLoop, Metrics, Trace


class UnknownDomain(OonError):
    pass


@dataclass
class DataMessage:
    """The single data-layer message.

    Data exchange always happens in method context: the header names the
    calling object and method, the called object and method, and the
    reply-to method the callee should address subsequent data to.

    Its trace text is built with it, as attributes outside the fields: every
    message is routed, and a `cached_property` on this per-visit object slows
    every attribute read on CPython 3.11.  `ends` holds caller and callee as
    `<p-name>.<method>`; `trace_head`, a router visit's line but its domain.
    """

    caller: PName
    caller_method: str
    callee: PName
    callee_method: str
    reply_to_method: str
    payload: bytes = b""
    hop_limit: int = 64
    visited: list = field(default_factory=list)  # routers seen; instrumentation

    def __post_init__(self):
        self.ends = ends = (f"{format_pname(self.caller)}.{self.caller_method}",
                            f"{format_pname(self.callee)}.{self.callee_method}")
        self.trace_head = f"DATA {ends[0]} -> {ends[1]} reply={self.reply_to_method} hop="


@dataclass
class ForwardingTable:
    inter: dict = field(default_factory=dict)   # GlobalId -> interface id


# --- hosts -------------------------------------------------------------------


def _chunk_payloads(k: int) -> list:
    """The k payloads of a transfer; the last one carries the end marker."""
    out = [b"chunk:%d/%d" % (i, k) for i in range(1, k + 1)]
    if out:
        out[-1] += b";end"
    return out


def _serve_send(host, msg):
    """Serve a pull request: emit the requested chunks to the reply-to method.

    A zero-chunk request still gets one bare end marker so the consumer
    terminates.
    """
    k = 0
    if msg.payload.startswith(b"pull:"):
        k = int(msg.payload.split(b":", 1)[1])
    return [host.emit(msg.caller, msg.reply_to_method, payload, caller_method="SendDataTo")
            for payload in _chunk_payloads(k) or [b"end"]]


def _sink(host, msg):
    host.buffers.append((msg.callee_method, msg.payload))
    return []


def _listening(host, msg):
    """Conversation partner: buffer, and answer turn messages once."""
    host.buffers.append((msg.callee_method, msg.payload))
    if msg.payload.startswith(b"turn:"):
        n = msg.payload.split(b":", 1)[1]
        return [host.emit(msg.caller, msg.reply_to_method, b"reply:" + n,
                          caller_method="Talking", reply_to="Listening")]
    return []


# Method name -> handler; every other declared method buffers what it receives.
_HANDLERS = {"SendDataTo": _serve_send, "Listening": _listening}


class ObjectHost:
    """A physical form: its class's declared methods plus received buffers."""

    def __init__(self, pname: PName, class_name: str, methods=(),
                 policy: AccessPolicy = None):
        self.pname = pname
        self.class_name = class_name
        self.methods = tuple(methods)
        self.policy = policy
        self.buffers = []
        self.domain = None           # attached domain; DataNetwork sets it

    def emit(self, callee: PName, callee_method: str, payload: bytes,
             caller_method: str = "SendDataTo", reply_to: str = "SinkDataFrom"):
        return DataMessage(caller=self.pname, caller_method=caller_method,
                           callee=callee, callee_method=callee_method,
                           reply_to_method=reply_to, payload=payload)


def dispatch(host: ObjectHost, msg: DataMessage) -> list:
    """Invoke the addressed method; unknown methods get a soft error reply."""
    assert msg.callee == host.pname
    if msg.callee_method not in host.methods:
        return [DataMessage(
            caller=host.pname, caller_method=msg.callee_method,
            callee=msg.caller, callee_method=msg.reply_to_method,
            reply_to_method="SinkDataFrom",
            payload=b"error:unknown-method:" + msg.callee_method.encode())]
    return _HANDLERS.get(msg.callee_method, _sink)(host, msg)


# --- domains and routing -----------------------------------------------------


@dataclass
class Domain:
    name: str
    fib: ForwardingTable = field(default_factory=ForwardingTable)
    interfaces: dict = field(default_factory=dict)   # peer domain name -> link latency
    hosts: dict = field(default_factory=dict)        # PName -> ObjectHost
    owned_globals: set = field(default_factory=set)


def route_data(domain: Domain, msg: DataMessage):
    """Forwarding decision from the callee name alone.

    Returns ("deliver", host) | ("forward", interface id) | ("drop", cause).
    """
    gid = msg.callee.global_id
    if gid in domain.owned_globals:
        host = domain.hosts.get(msg.callee)
        if host is None:
            return ("drop", "no_such_local")
        return ("deliver", host)
    ifid = domain.fib.inter.get(gid)
    if ifid is None:
        return ("drop", "no_route")
    return ("forward", ifid)


class DataNetwork:
    """Domains, links, host placement and the message plumbing over the loop.

    One event is one router visit for a message that travels alone, or a
    burst: messages sent back to back, as a pull's chunks are, visit each
    router in one event while they share their next hop, in the order and
    at the ticks one event per visit would give.
    """

    def __init__(self, loop: EventLoop, trace: Trace, metrics: Metrics):
        self.loop = loop
        self.trace = trace
        self.metrics = metrics
        self.domains = {}
        # (tick, summary, visited) per delivered msg; a record equal to the
        # one before, as a burst's chunks make, is that tuple again: a repeat
        # costs one list slot
        self.deliveries = []
        self.hosts = {}             # PName -> attached ObjectHost
        self.route_owner = {}       # GlobalId -> domain its routes point to

    def add_domain(self, name: str) -> Domain:
        if name in self.domains:
            raise ValueError(f"duplicate domain {name!r}")
        d = self.domains[name] = Domain(name)
        return d

    def domain(self, name: str) -> Domain:
        if name not in self.domains:
            raise UnknownDomain(f"{name!r}")
        return self.domains[name]

    def link(self, a: str, b: str, latency: int = 1) -> None:
        """Bidirectional link; interface ids are the peer domain names."""
        if latency < 1:
            raise ValueError("link latency must be >= 1 tick")
        self.domain(a).interfaces[b] = latency
        self.domain(b).interfaces[a] = latency
        owners = dict(self.route_owner)
        self.route_owner.clear()     # shortest paths may change: route afresh
        for gid, owner in owners.items():
            self.install_routes(gid, owner)

    def add_host(self, domain_name: str, host: ObjectHost) -> None:
        """Attach the host and route its GlobalId prefix to this domain."""
        d = self.domain(domain_name)
        gid = host.pname.global_id
        d.hosts[host.pname] = host
        d.owned_globals.add(gid)
        self.hosts[host.pname] = host
        host.domain = domain_name
        self.install_routes(gid, domain_name)

    def remove_host(self, pname: PName) -> ObjectHost:
        host = self.hosts.pop(pname)
        d = self.domains[host.domain]
        del d.hosts[pname]
        d.owned_globals = {h.pname.global_id for h in d.hosts.values()}
        host.domain = None
        return host

    def host_of(self, pname: PName) -> Optional[ObjectHost]:
        return self.hosts.get(pname)

    def domain_of(self, pname: PName) -> Optional[str]:
        host = self.hosts.get(pname)
        return host.domain if host is not None else None

    def install_routes(self, global_id: int, owner_domain: str) -> None:
        """Point every router's entry for this prefix toward the owner.

        Shortest paths over the link graph; deterministic tie-break by
        domain name.  Scripted plumbing, not a routing protocol.  Returns
        at once when the prefix already routes to this owner.
        """
        if self.route_owner.get(global_id) == owner_domain:
            return
        parent = {owner_domain: None}
        frontier = [owner_domain]
        while frontier:
            nxt = []
            for name in frontier:
                for peer in sorted(self.domain(name).interfaces):
                    if peer not in parent:
                        parent[peer] = name
                        nxt.append(peer)
            frontier = sorted(nxt)
        for name in sorted(self.domains):
            if name == owner_domain or name not in parent:
                continue
            self.domains[name].fib.inter[global_id] = parent[name]
        self.route_owner[global_id] = owner_domain

    # -- message plumbing -----------------------------------------------------

    def send(self, msg: DataMessage, from_domain: str) -> None:
        """Inject a message at its sender's domain router."""
        self.metrics.sent["data"] += 1
        self.loop.post(0, self._on_router, self.domains[from_domain], msg)

    def _inject(self, msgs: list, from_domain: str) -> None:
        """Inject messages sent back to back: two or more travel as one burst."""
        if len(msgs) == 1:
            self.send(msgs[0], from_domain)
        elif msgs:
            self.metrics.sent["data"] += len(msgs)
            self.loop.post(0, self._on_burst, self.domains[from_domain], msgs)

    def _on_router(self, domain: Domain, msg: DataMessage) -> None:
        """A message that travels alone: one event per router visit."""
        msg.visited.append(domain.name)
        self.trace.log(msg.trace_head + domain.name)
        decision, arg = route_data(domain, msg)
        if decision == "forward":
            if msg.hop_limit <= 0:
                self._drop("hop_limit")
                return
            msg.hop_limit -= 1
            self.loop.post(domain.interfaces[arg], self._on_router, self.domains[arg], msg)
        elif decision == "drop":
            self._drop(arg)
        else:
            self._deliver(domain, arg, msg)

    def _on_burst(self, domain: Domain, msgs: list) -> None:
        """Visit each message in order, as `_on_router` would in one event each.

        A message forwarded to the same next hop as the message visited just
        before it joins that message's list, which is still queued: the loop
        would have run their two posts back to back.  Any other outcome, a
        delivery (which may post replies), a drop or another next hop,
        starts a new list.  The visit is written out, not called from a
        helper shared with `_on_router`: that call made single turns 4% slower.
        """
        log, post, domains = self.trace.log, self.loop.post, self.domains
        name = domain.name
        batch = last = None
        for msg in msgs:
            msg.visited.append(name)
            log(msg.trace_head + name)
            decision, arg = route_data(domain, msg)
            if decision == "forward" and msg.hop_limit > 0:
                msg.hop_limit -= 1
                if arg == last:
                    batch.append(msg)
                else:
                    batch, last = [msg], arg
                    post(domain.interfaces[arg], self._on_burst, domains[arg], batch)
                continue
            last = None
            if decision == "forward":
                self._drop("hop_limit")
            elif decision == "drop":
                self._drop(arg)
            else:
                self._deliver(domain, arg, msg)

    def _drop(self, cause: str) -> None:
        self.metrics.drops_by_cause[cause] += 1

    def _deliver(self, domain: Domain, host: ObjectHost, msg: DataMessage) -> None:
        if host.policy is not None:
            caller = self.host_of(msg.caller)
            requester_class = caller.class_name if caller is not None else None
            if not host.policy.exchange_rule.allows(requester_class):
                self._drop("exchange_denied")
                return
        self.metrics.delivered["data"] += 1
        self.metrics.data_hop_total += len(msg.visited) - 1
        record = (self.loop.now, "->".join(msg.ends), tuple(msg.visited))
        if self.deliveries and record == self.deliveries[-1]:
            record = self.deliveries[-1]
        self.deliveries.append(record)
        self._inject(dispatch(host, msg), domain.name)


# --- sessions ----------------------------------------------------------------


@dataclass
class SessionTrace:
    entries: list                 # (tick, message summary) at delivery
    outcome: str                  # completed | failed
    messages_sent: int = 0


def _session(net: DataNetwork, start_deliveries: int, start_sent: int,
             completed: bool) -> SessionTrace:
    # one (tick, summary) pair per record object: a burst's shared record
    # gives each of its chunks the same pair
    entries, record, pair = [], None, None
    for rec in net.deliveries[start_deliveries:]:
        if rec is not record:
            record, pair = rec, rec[:2]
        entries.append(pair)
    return SessionTrace(entries=entries,
                        outcome="completed" if completed else "failed",
                        messages_sent=net.metrics.sent["data"] - start_sent)


def run_pull(net: DataNetwork, consumer: ObjectHost, producer: PName,
             chunk_count: int, reply_to: str = "SinkDataFrom") -> SessionTrace:
    """Consumer-initiated retrieval: one request, then the chunks flow back."""
    d0, s0 = len(net.deliveries), net.metrics.sent["data"]
    buf0 = len(consumer.buffers)
    req = consumer.emit(producer, "SendDataTo",
                        b"pull:%d" % chunk_count,
                        caller_method="GetDataFrom", reply_to=reply_to)
    net.send(req, consumer.domain)
    net.loop.run()
    received = [p for m, p in consumer.buffers[buf0:] if m == reply_to]
    completed = (len(received) == max(chunk_count, 1)
                 and received[-1].endswith(b"end"))
    return _session(net, d0, s0, completed)


def run_push(net: DataNetwork, producer: ObjectHost, consumer: PName,
             chunk_count: int) -> SessionTrace:
    """Producer-initiated transfer: the chunks flow with no request message."""
    d0, s0 = len(net.deliveries), net.metrics.sent["data"]
    target_host = net.host_of(consumer)
    buf0 = len(target_host.buffers) if target_host is not None else 0
    net._inject([producer.emit(consumer, "SinkDataFrom", payload)
                 for payload in _chunk_payloads(chunk_count)], producer.domain)
    net.loop.run()
    if target_host is None:
        completed = False
    else:
        received = [p for m, p in target_host.buffers[buf0:] if m == "SinkDataFrom"]
        completed = len(received) == chunk_count and (
            chunk_count == 0 or received[-1].endswith(b"end"))
    return _session(net, d0, s0, completed)


def run_interactive(net: DataNetwork, a: ObjectHost, b: PName,
                    turns: int) -> SessionTrace:
    """Alternating conversation; every turn message gets one reply."""
    d0, s0 = len(net.deliveries), net.metrics.sent["data"]
    buf0 = len(a.buffers)
    for i in range(1, turns + 1):
        msg = a.emit(b, "Listening", b"turn:%d" % i,
                     caller_method="Talking", reply_to="Listening")
        net.send(msg, a.domain)
        net.loop.run()
    replies = [p for m, p in a.buffers[buf0:]
               if m == "Listening" and p.startswith(b"reply:")]
    return _session(net, d0, s0, len(replies) == turns)
