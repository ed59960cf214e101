import dataclasses
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oonsim import (
    DataMessage,
    DataNetwork,
    ObjectHost,
    PName,
    dispatch,
    route_data,
    run_interactive,
    run_pull,
    run_push,
)
from oonsim.datalayer import Domain
from oonsim.model import AccessPolicy, Rule, format_pname

from conftest import make_datanet, make_sim

GENERIC = ("SendDataTo", "GetDataFrom", "SinkDataFrom")


def _host(gid, lid, class_name="book", methods=GENERIC, policy=None):
    return ObjectHost(PName(gid, lid), class_name, methods=methods, policy=policy)


def _wire(net, placements, extra_methods=()):
    """Attach hosts and install routes; placements = [(domain, gid, lid), ...]."""
    hosts = {}
    for domain, gid, lid in placements:
        h = _host(gid, lid, methods=GENERIC + tuple(extra_methods))
        net.add_host(domain, h)
        hosts[(gid, lid)] = h
    for domain, gid, _ in placements:
        net.install_routes(gid, domain)
    return hosts


def _data_line(tick, msg, hop):
    """A router visit's trace line, formatted in full as each visit once did."""
    return (f"t={tick} DATA {format_pname(msg.caller)}.{msg.caller_method} -> "
            f"{format_pname(msg.callee)}.{msg.callee_method} "
            f"reply={msg.reply_to_method} hop={hop}")


class TestPlacement:
    def test_add_host_alone_routes_its_prefix(self):
        net = make_datanet()
        producer = _host(1, 1)
        net.add_host("d1", producer)
        net.add_host("d3", _host(2, 1))
        st = run_push(net, producer, PName(2, 1), 2)
        assert st.outcome == "completed"
        assert net.metrics.drops_by_cause == {}

    def test_repeated_install_for_the_same_owner_updates_no_fib(self):
        net = make_datanet()
        net.add_host("d3", _host(2, 1))
        writes = []

        class RecordingTable(dict):
            def __init__(self, name, entries):
                super().__init__(entries)
                self.name = name

            def __setitem__(self, gid, via):
                writes.append((self.name, gid, via))
                super().__setitem__(gid, via)

        for d in net.domains.values():
            d.fib.inter = RecordingTable(d.name, d.fib.inter)
        net.install_routes(2, "d3")
        net.add_host("d3", _host(2, 2))
        assert writes == []
        net.install_routes(2, "d1")
        assert writes == [("d2", 2, "d1"), ("d3", 2, "d2")]

    def test_new_link_reroutes_the_next_host_under_a_routed_prefix(self):
        net = make_datanet()                    # d1 - d2 - d3
        producer = _host(1, 1)
        net.add_host("d1", producer)
        net.add_host("d3", _host(2, 1))
        assert net.domain("d1").fib.inter[2] == "d2"
        net.link("d1", "d3", 1)
        net.add_host("d3", _host(2, 2))
        assert net.domain("d1").fib.inter[2] == "d3"
        st = run_push(net, producer, PName(2, 2), 1)
        assert st.outcome == "completed"
        assert (net.metrics.delivered["data"], net.metrics.mean_hops()) == (1, 1.0)

    def test_new_link_reroutes_prefixes_routed_before_it(self):
        net = make_datanet(domains=("a", "b", "c"), links=[("a", "b", 1)])
        hosts = {name: _host(gid, 1) for gid, name in enumerate("abc", 1)}
        for name, host in hosts.items():
            net.add_host(name, host)
        net.link("b", "c")
        assert (net.domain("c").fib.inter, net.domain("a").fib.inter) == \
            ({1: "b", 2: "b"}, {2: "b", 3: "b"})
        for src, dst in (("c", "a"), ("a", "c")):
            assert run_push(net, hosts[src], hosts[dst].pname, 2).outcome == "completed"
        assert net.metrics.drops_by_cause == {}

    def test_remove_host_clears_its_domain(self):
        net = make_datanet()
        host = _host(1, 1)
        net.add_host("d2", host)
        assert host.domain == net.domain_of(host.pname) == "d2"
        assert net.remove_host(host.pname) is host
        assert host.domain is None
        assert net.host_of(host.pname) is None and net.domain_of(host.pname) is None


class TestRouteData:
    def setup_method(self):
        self.domain = Domain("d1")
        self.domain.interfaces["d2"] = 1
        self.host = _host(1, 1)
        self.domain.hosts[(1, 1)] = self.host
        self.domain.owned_globals.add(1)

    def _msg(self, gid, lid):
        return DataMessage(caller=PName(9, 9), caller_method="GetDataFrom",
                           callee=PName(gid, lid), callee_method="SendDataTo",
                           reply_to_method="SinkDataFrom")

    def test_owned_prefix_delivers(self):
        assert route_data(self.domain, self._msg(1, 1)) == ("deliver", self.host)

    def test_owned_prefix_unknown_local_drops(self):
        assert route_data(self.domain, self._msg(1, 2)) == ("drop", "no_such_local")

    def test_foreign_prefix_uses_fib(self):
        self.domain.fib.inter[7] = "d2"
        assert route_data(self.domain, self._msg(7, 1)) == ("forward", "d2")

    def test_foreign_prefix_without_route_drops(self):
        assert route_data(self.domain, self._msg(7, 1)) == ("drop", "no_route")

    def test_fib_size_tracks_prefixes_not_objects(self):
        # 3 providers x 100 locals each: the table still has 3 entries
        for gid in (10, 11, 12):
            self.domain.fib.inter[gid] = "d2"
            for lid in range(100):
                assert route_data(self.domain, self._msg(gid, lid)) == \
                    ("forward", "d2")
        assert len(self.domain.fib.inter) == 3


class TestDispatch:
    def test_send_data_to_emits_chunks_with_end_marker(self):
        producer = _host(1, 1)
        req = DataMessage(caller=PName(2, 1), caller_method="GetDataFrom",
                          callee=PName(1, 1), callee_method="SendDataTo",
                          reply_to_method="SinkDataFrom", payload=b"pull:3")
        out = dispatch(producer, req)
        assert [m.payload for m in out] == \
            [b"chunk:1/3", b"chunk:2/3", b"chunk:3/3;end"]
        assert all(m.callee == PName(2, 1) and m.callee_method == "SinkDataFrom"
                   for m in out)

    def test_zero_chunk_pull_still_terminates(self):
        producer = _host(1, 1)
        req = producer.emit(PName(1, 1), "x", b"")  # reuse builder for header
        req = DataMessage(caller=PName(2, 1), caller_method="GetDataFrom",
                          callee=PName(1, 1), callee_method="SendDataTo",
                          reply_to_method="SinkDataFrom", payload=b"pull:0")
        out = dispatch(producer, req)
        assert [m.payload for m in out] == [b"end"]

    def test_sink_buffers_payload(self):
        consumer = _host(1, 1)
        msg = DataMessage(caller=PName(2, 1), caller_method="SendDataTo",
                          callee=PName(1, 1), callee_method="SinkDataFrom",
                          reply_to_method="SinkDataFrom", payload=b"blob")
        assert dispatch(consumer, msg) == []
        assert consumer.buffers == [("SinkDataFrom", b"blob")]

    def test_unknown_method_soft_error(self):
        consumer = _host(1, 1)
        msg = DataMessage(caller=PName(2, 1), caller_method="GetDataFrom",
                          callee=PName(1, 1), callee_method="Frobnicate",
                          reply_to_method="SinkDataFrom")
        out = dispatch(consumer, msg)
        assert len(out) == 1
        assert out[0].payload == b"error:unknown-method:Frobnicate"
        assert out[0].callee == PName(2, 1)


class TestPull:
    def test_three_chunks_is_four_messages(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)])
        st = run_pull(net, hosts[(2, 1)], PName(1, 1), 3)
        assert st.outcome == "completed"
        assert st.messages_sent == 4  # 1 request + 3 chunks

    def test_zero_chunks_is_two_messages(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)])
        st = run_pull(net, hosts[(2, 1)], PName(1, 1), 0)
        assert st.outcome == "completed"
        assert st.messages_sent == 2  # request + empty completion

    def test_custom_reply_method(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d2", 2, 1)], extra_methods=("Ingest",))
        consumer = hosts[(2, 1)]
        st = run_pull(net, consumer, PName(1, 1), 2, reply_to="Ingest")
        assert st.outcome == "completed"
        assert [m for m, _ in consumer.buffers] == ["Ingest", "Ingest"]

    def test_unreachable_producer_fails(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)])
        net.remove_host(PName(1, 1))
        st = run_pull(net, hosts[(2, 1)], PName(1, 1), 3)
        assert st.outcome == "failed"
        assert net.metrics.messages_dropped() == 1


class TestPush:
    def test_k_chunks_is_k_messages(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)])
        st = run_push(net, hosts[(1, 1)], PName(2, 1), 5)
        assert st.outcome == "completed"
        assert st.messages_sent == 5

    def test_exchange_policy_denies_at_consumer(self):
        net = make_datanet()
        producer = _host(1, 1)
        consumer = _host(2, 1, policy=AccessPolicy(exchange_rule=Rule("deny_all")))
        net.add_host("d1", producer)
        net.add_host("d2", consumer)
        net.install_routes(1, "d1")
        net.install_routes(2, "d2")
        st = run_push(net, producer, PName(2, 1), 2)
        assert st.outcome == "failed"
        assert net.metrics.drops_by_cause["exchange_denied"] == 2

    def test_same_domain_push_zero_inter_hops(self):
        net = make_datanet()
        hosts = _wire(net, [("d2", 1, 1), ("d2", 1, 2)])
        st = run_push(net, hosts[(1, 1)], PName(1, 2), 1)
        assert st.outcome == "completed"
        assert (net.metrics.delivered["data"], net.metrics.mean_hops()) == (1, 0.0)


class TestInteractive:
    def test_one_turn_two_messages(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)],
                      extra_methods=("Talking", "Listening"))
        st = run_interactive(net, hosts[(1, 1)], PName(2, 1), 1)
        assert st.outcome == "completed"
        assert st.messages_sent == 2

    def test_turns_alternate_directions(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)],
                      extra_methods=("Talking", "Listening"))
        st = run_interactive(net, hosts[(1, 1)], PName(2, 1), 10)
        assert st.outcome == "completed"
        assert st.messages_sent == 20
        # delivered order alternates turn, reply, turn, reply, ...
        from oonsim import format_pname
        directions = ["turn" if s.startswith(format_pname(PName(1, 1))) else "reply"
                      for _, s in st.entries]
        assert directions == ["turn", "reply"] * 10

    def test_unreachable_partner_fails(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1)], extra_methods=("Talking", "Listening"))
        st = run_interactive(net, hosts[(1, 1)], PName(2, 1), 3)
        assert st.outcome == "failed"


class TestRoutingProperties:
    def _random_net(self, rng):
        names = [f"d{i}" for i in range(5)]
        links = [("d0", "d1", 1), ("d1", "d2", 1), ("d2", "d3", 2),
                 ("d1", "d4", 1)]
        return make_datanet(domains=names, links=links)

    def test_payload_and_caller_never_affect_route(self):
        # route_data must read only the callee name: mutate everything else
        rng = random.Random(61)
        net = self._random_net(rng)
        _wire(net, [("d3", 1, 1)])
        for domain in net.domains.values():
            base = DataMessage(caller=PName(5, 5), caller_method="GetDataFrom",
                               callee=PName(1, 1), callee_method="SendDataTo",
                               reply_to_method="SinkDataFrom")
            want = route_data(domain, base)
            for _ in range(20):
                mutated = DataMessage(
                    caller=PName(rng.randint(0, 99), rng.randint(0, 99)),
                    caller_method=rng.choice(["GetDataFrom", "Talking"]),
                    callee=PName(1, 1),
                    callee_method=rng.choice(["SendDataTo", "Listening"]),
                    reply_to_method=rng.choice(["SinkDataFrom", "Ingest"]),
                    payload=bytes(rng.randrange(256) for _ in range(8)))
                assert route_data(domain, mutated) == want

    def test_routing_loop_ends_at_hop_limit(self):
        net = make_datanet()
        producer = _wire(net, [("d1", 1, 1)])[(1, 1)]
        net.domain("d1").fib.inter[99] = "d2"
        net.domain("d2").fib.inter[99] = "d1"
        st = run_push(net, producer, PName(99, 1), 1)
        assert st.outcome == "failed"
        router_visits = [line for line in net.trace.lines if " DATA " in line]
        assert len(router_visits) == 65
        looping = DataMessage(caller=producer.pname, caller_method="SendDataTo",
                              callee=PName(99, 1), callee_method="SinkDataFrom",
                              reply_to_method="SinkDataFrom")
        assert router_visits == [_data_line(t, looping, ("d1", "d2")[t % 2])
                                 for t in range(65)]
        assert net.metrics.drops_by_cause == {"hop_limit": 1}
        assert net.metrics.conservation_holds()
        assert net.loop.now == 64

    def test_delivered_paths_are_loop_free(self):
        rng = random.Random(62)
        net = self._random_net(rng)
        hosts = _wire(net, [("d0", 1, 1), ("d3", 2, 1), ("d4", 3, 1)])
        run_pull(net, hosts[(2, 1)], PName(1, 1), 2)
        run_push(net, hosts[(3, 1)], PName(2, 1), 2)
        assert net.deliveries
        for _, _, visited in net.deliveries:
            assert len(visited) == len(set(visited))

    def test_message_conservation(self):
        net = make_datanet()
        hosts = _wire(net, [("d1", 1, 1), ("d3", 2, 1)])
        run_pull(net, hosts[(2, 1)], PName(1, 1), 3)
        net.remove_host(PName(1, 1))
        run_pull(net, hosts[(2, 1)], PName(1, 1), 1)
        assert net.metrics.conservation_holds()
        assert net.metrics.sent["data"] == \
            net.metrics.delivered["data"] + net.metrics.messages_dropped()


class TestTraceLines:
    """DATA lines and delivery summaries, byte for byte."""

    def _chain(self):
        names = ("d1", "d2", "d3", "d4")
        net = make_datanet(domains=names,
                           links=[(a, b, 1) for a, b in zip(names, names[1:])])
        return net, _wire(net, [("d1", 1, 1), ("d4", 2, 1)])

    def test_each_router_logs_its_own_hop(self):
        net, hosts = self._chain()
        msg = hosts[(1, 1)].emit(PName(2, 1), "SinkDataFrom", b"x",
                                 caller_method="GetDataFrom", reply_to="Ingest")
        net.send(msg, "d1")
        net.loop.run()
        want = [_data_line(t, msg, hop) for t, hop in enumerate(("d1", "d2", "d3", "d4"))]
        assert net.trace.lines == want
        summary = (f"{format_pname(PName(1, 1))}.GetDataFrom->"
                   f"{format_pname(PName(2, 1))}.SinkDataFrom")
        assert net.deliveries == [(3, summary, ("d1", "d2", "d3", "d4"))]

    def test_unknown_method_reply_is_logged_at_every_router(self):
        net, hosts = self._chain()
        request = hosts[(2, 1)].emit(PName(1, 1), "Frobnicate", b"",
                                     caller_method="GetDataFrom")
        net.send(request, "d4")
        net.loop.run()
        reply = DataMessage(caller=PName(1, 1), caller_method="Frobnicate",
                            callee=PName(2, 1), callee_method="SinkDataFrom",
                            reply_to_method="SinkDataFrom")
        want = ([_data_line(t, request, hop) for t, hop in enumerate(("d4", "d3", "d2", "d1"))]
                + [_data_line(3 + t, reply, hop)
                   for t, hop in enumerate(("d1", "d2", "d3", "d4"))])
        assert net.trace.lines == want
        assert hosts[(2, 1)].buffers == [("SinkDataFrom", b"error:unknown-method:Frobnicate")]
        assert [s for _, s, _ in net.deliveries] == [
            f"{format_pname(PName(2, 1))}.GetDataFrom->{format_pname(PName(1, 1))}.Frobnicate",
            f"{format_pname(PName(1, 1))}.Frobnicate->{format_pname(PName(2, 1))}.SinkDataFrom"]

    def test_a_burst_keeps_one_line_per_hop_and_one_delivery_record(self):
        net, hosts = self._chain()
        k = 5
        st = run_push(net, hosts[(1, 1)], PName(2, 1), k)
        assert st.outcome == "completed"
        msg = hosts[(1, 1)].emit(PName(2, 1), "SinkDataFrom", b"")
        hops = ("d1", "d2", "d3", "d4")
        assert net.trace.lines == [_data_line(t, msg, hop)
                                   for t, hop in enumerate(hops) for _ in range(k)]
        assert len({id(line) for line in net.trace.lines}) == len(hops)
        summary = (f"{format_pname(PName(1, 1))}.SendDataTo->"
                   f"{format_pname(PName(2, 1))}.SinkDataFrom")
        assert net.deliveries == [(3, summary, hops)] * k
        assert len({id(record) for record in net.deliveries}) == 1
        assert st.entries == [(3, summary)] * k
        assert len({id(entry) for entry in st.entries}) == 1

    def test_formatted_head_is_not_part_of_equality_or_repr(self):
        net, hosts = self._chain()
        msg = hosts[(1, 1)].emit(PName(2, 1), "SinkDataFrom", b"x")
        net.send(msg, "d1")
        net.loop.run()
        twin = dataclasses.replace(msg, visited=list(msg.visited))
        assert not {"trace_head", "ends"} & {f.name for f in dataclasses.fields(DataMessage)}
        assert f"t=0 {twin.trace_head}" == _data_line(0, twin, "")
        twin.trace_head = "DATA overwritten hop="
        assert twin == msg
        assert repr(twin) == repr(msg)


# --- bursts against one event per router visit ------------------------------

ALL_METHODS = GENERIC + ("Talking", "Listening")
LOOP, NO_ROUTE = -1, -2      # targets: the hand-built FIB loop, an unrouted prefix
BURST_METHODS = ("SinkDataFrom", "SendDataTo", "Listening", "Frobnicate")
BURST_PAYLOADS = {"SendDataTo": b"pull:2", "Listening": b"turn:1"}


class OneEventPerMessage(DataNetwork):
    """The data layer as it ran before bursts: each message visits each
    router in an event of its own."""

    def _inject(self, msgs, from_domain):
        for msg in msgs:
            self.send(msg, from_domain)

    def _on_router(self, domain, msg):
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


@st.composite
def burst_cases(draw):
    """(domain count, links, hosts as (domain, denies), steps).

    Domains d0 and d1 are linked in every shape, and the FIB loop runs
    between them.
    """
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(("line", "ring", "tree")))
    if shape == "tree":
        pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    else:
        pairs = [(i - 1, i) for i in range(1, n)]
        if shape == "ring" and n > 2:
            pairs.append((n - 1, 0))
    links = [(a, b, draw(st.integers(1, 3))) for a, b in pairs]
    hosts = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                          min_size=1, max_size=5))
    host = st.integers(0, len(hosts) - 1)
    target = st.one_of(host, st.sampled_from((LOOP, NO_ROUTE)))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("pull", "push", "talk")), host, target,
                  st.integers(0, 6)),
        st.tuples(st.just("remove"), host),
        st.tuples(st.just("burst"), host,
                  st.lists(st.tuples(target, st.sampled_from(BURST_METHODS)),
                           min_size=2, max_size=6)),
    ), max_size=8))
    return n, links, hosts, steps


def _play(net_class, case):
    """Build the case's network and run its steps; returns what they left."""
    n, links, placements, steps = case
    net = net_class(*make_sim())
    names = [f"d{i}" for i in range(n)]
    for name in names:
        net.add_domain(name)
    for a, b, latency in links:
        net.link(names[a], names[b], latency)
    hosts = []
    for i, (d, denies) in enumerate(placements):
        policy = AccessPolicy(exchange_rule=Rule("deny_all")) if denies else None
        host = ObjectHost(PName(d + 1, i + 1), "book", ALL_METHODS, policy)
        net.add_host(names[d], host)
        hosts.append(host)
    net.domain("d0").fib.inter[99] = "d1"
    net.domain("d1").fib.inter[99] = "d0"
    pnames = {LOOP: PName(99, 1), NO_ROUTE: PName(98, 1)}
    pnames.update((i, h.pname) for i, h in enumerate(hosts))
    sessions = {"pull": run_pull, "push": run_push, "talk": run_interactive}
    outcomes = []
    for step in steps:
        a = hosts[step[1]]
        if step[0] == "remove":
            if a.domain is not None:
                net.remove_host(a.pname)
        elif a.domain is None:
            continue
        elif step[0] == "burst":
            net._inject([a.emit(pnames[t], method, BURST_PAYLOADS.get(method, b"x"))
                         for t, method in step[2]], a.domain)
            net.loop.run()
        else:
            session = sessions[step[0]](net, a, pnames[step[2]], step[3])
            outcomes.append((session.outcome, session.entries, session.messages_sent))
    m = net.metrics
    return {"lines": net.trace.lines, "deliveries": net.deliveries,
            "drops": m.drops_by_cause, "sent": m.sent, "delivered": m.delivered,
            "sessions": outcomes, "buffers": [h.buffers for h in hosts]}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(burst_cases())
# A fork: d0's burst splits at d1 into d2's list, d3's, then d2's again,
# all due at one tick; d2's second message must not join its first list.
@example((4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)], [(0, False), (2, False), (3, False)],
          [("burst", 0, [(1, "SinkDataFrom"), (2, "SinkDataFrom"), (1, "SinkDataFrom")])]))
# Deliveries mid-burst that reply: at d1 a pull request and a turn are
# delivered between messages that go on to d2, and their replies set off
# back to d0 from that tick.
@example((3, [(0, 1, 1), (1, 2, 1)], [(0, False), (1, False), (2, False)],
          [("burst", 0, [(2, "SinkDataFrom"), (1, "SendDataTo"), (2, "SinkDataFrom"),
                         (1, "Listening")])]))
# hop_limit drops inside a burst that runs round the FIB loop, and a push
# into a host that denies exchange.
@example((2, [(0, 1, 3)], [(0, False), (1, True)],
          [("burst", 0, [(LOOP, "SinkDataFrom"), (1, "SinkDataFrom"), (LOOP, "Frobnicate")]),
           ("push", 0, 1, 3), ("push", 1, LOOP, 4)]))
# A 0-chunk pull, and a pull from a removed host (no_such_local).
@example((3, [(0, 1, 1), (1, 2, 1), (2, 0, 2)], [(0, False), (2, False)],
          [("pull", 0, 1, 0), ("remove", 1), ("pull", 0, 1, 3), ("talk", 0, NO_ROUTE, 2)]))
def test_bursts_run_as_one_event_per_message_would(case):
    assert _play(DataNetwork, case) == _play(OneEventPerMessage, case)
