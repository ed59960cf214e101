"""The three benchmark workloads, driven through oonsim's public API.

Each workload has three parts:

* ``inputs(seed)`` makes the inputs from the seed alone;
* ``setup(inputs)`` turns them into a ready world (timed as setup_s);
* ``round(inputs, check)`` builds a fresh world and runs every operation
  as a closed loop with one client: the next operation is issued only
  after ``EventLoop.run()`` has drained the previous one.

A round returns a RoundResult.  Its per-operation host times come from
the timed region only; every correctness check, the oracle included,
runs after the clock has stopped.  ``op`` names the sample kind whose
latency the benchmark reports; the kinds in ``work`` together time every
operation of a round.
"""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import oonsim
from oonsim import lifecycle, scenario
from oonsim.infolayer import Action, InfoNetwork, Requester, SegmentCuts
from oonsim.model import ANY, AttributeKind, Eq, ObjectClass, Prefix, Range, make_form
from oonsim.naming import Authority
from oonsim.sim import EventLoop, Metrics, Trace

INF = math.inf


@dataclass
class RoundResult:
    samples: dict                # op kind -> host seconds per op (inf = failed)
    busy_s: float                # host seconds of the timed region
    ok_ops: int                  # units of work completed correctly
    attempted: int               # operations issued
    failed: int                  # operations that failed (fail_frac numerator)
    stats: dict                  # simulated statistics; identical for equal inputs
    errors: list = field(default_factory=list)   # correctness violations
    oracle_s: float = 0.0        # host seconds spent in the oracle (untimed)


def _sim_stats(metrics: Metrics, trace: Trace) -> dict:
    stats = {
        "trace_sha256": trace.sha256(),
        "trace_lines": len(trace.lines),
        "sent": metrics.messages_sent(),
        "delivered": metrics.messages_delivered(),
        "dropped": metrics.messages_dropped(),
        "drops_by_cause": dict(sorted(metrics.drops_by_cause.items())),
    }
    if tracemalloc.is_tracing():
        stats["traced_bytes"] = tracemalloc.get_traced_memory()[0]
    return stats


def _conservation(metrics: Metrics) -> list:
    if metrics.conservation_holds():
        return []
    return [f"conservation: sent {metrics.messages_sent()} != delivered "
            f"{metrics.messages_delivered()} + dropped {metrics.messages_dropped()}"]


def _digest(forms, cls) -> str:
    """Order-free identity of a find result, small enough to keep per query."""
    keys = sorted(oonsim.result_keys(forms, cls))
    return hashlib.sha256(repr(keys).encode()).hexdigest()


# --- discover: reads on the information layer --------------------------------

DISCOVER_OBJECTS = 4000
DISCOVER_FINDS = 300
DISCOVER_IRNS = 7
DISCOVER_CLASS = ObjectClass(
    "bench", tuple((f"a{i}", AttributeKind.TEXT) for i in range(3)))
DISCOVER_CUTS = SegmentCuts({f"a{i}": ("g", "n", "t") for i in range(3)})
REQUESTER = Requester("bench")


class Discover:
    """Register a few thousand objects on a 64-cell, 7-node grid, then find.

    Cells outnumber relay nodes, so whole-store scans (ROADMAP item 3)
    and duplicate xfind visits (item 4) both show here.
    """

    name = "discover"
    op = "find"
    work = ("register", "find")

    def __init__(self):
        self._expected = None    # oracle answer per query, from the checking round

    @staticmethod
    def inputs(seed: int):
        return oonsim.generate_workload(seed, DISCOVER_OBJECTS, DISCOVER_FINDS,
                                        DISCOVER_CLASS)

    @staticmethod
    def setup(inputs):
        loop = EventLoop()
        return InfoNetwork(DISCOVER_CLASS, DISCOVER_CUTS, DISCOVER_IRNS,
                           loop, Trace(loop), Metrics())

    def round(self, inputs, check: bool) -> RoundResult:
        specs, queries = inputs
        cls = DISCOVER_CLASS
        forms = [make_form(cls, s.values) for s in specs]
        net = self.setup(inputs)
        loop, metrics = net.loop, net.metrics

        reg_t, reg_ids = [], []
        t_begin = perf_counter()
        for form in forms:
            t0 = perf_counter()
            rid = net.issue_request(0, Action.REGISTER, form, REQUESTER)
            loop.run()
            reg_t.append(perf_counter() - t0)
            reg_ids.append(rid)
        msgs0 = metrics.sent["xfind"] + metrics.sent["results"]
        find_t, find_ids = [], []
        for query in queries:
            t0 = perf_counter()
            rid = net.issue_request(0, Action.FIND, query, REQUESTER)
            loop.run()
            find_t.append(perf_counter() - t0)
            find_ids.append(rid)
        busy = perf_counter() - t_begin
        find_msgs = metrics.sent["xfind"] + metrics.sent["results"] - msgs0
        stats = _sim_stats(metrics, net.trace)

        errors, oracle_s = [], 0.0
        if check:
            t0 = perf_counter()
            self._expected = [_digest(oonsim.oracle_find(forms, q, cls), cls)
                              for q in queries]
            oracle_s = perf_counter() - t0
        failed = 0
        for i, rid in enumerate(reg_ids):
            req = net.request(rid)
            if req.status != "complete" or req.detail != "Registered":
                failed += 1
                reg_t[i] = INF
                errors.append(f"register {rid}: {req.status} {req.detail}")
        ticks = []
        for i, rid in enumerate(find_ids):
            req = net.request(rid)
            if req.status != "complete":
                failed += 1
                find_t[i] = INF
                errors.append(f"find {i}: {req.status}")
                continue
            ticks.append(req.completed_at - req.issued_at)
            if _digest(req.forms, cls) != self._expected[i]:
                failed += 1
                find_t[i] = INF
                errors.append(f"find {i}: differs from oracle_find")
        errors += _conservation(metrics)
        stats["find_msgs_mean"] = find_msgs / len(queries)
        stats["find_ticks"] = ticks
        attempted = len(forms) + len(queries)
        return RoundResult(
            samples={"register": reg_t, "find": find_t}, busy_s=busy,
            ok_ops=attempted - failed, attempted=attempted, failed=failed,
            stats=stats, errors=errors, oracle_s=oracle_s)


# --- transfer: the data layer and the event loop alone -----------------------

TRANSFER_DOMAINS = 20
# Rounds are kept near a second so that a run has dozens of them: each
# operation's fastest round then almost surely falls in a quiet spell of
# the host.
TRANSFER_SESSIONS = (("pull", 1000),) * 4 + (("push", 1000),) * 4
TRANSFER_TURNS = 200
TRANSFER_METHODS = ("SendDataTo", "GetDataFrom", "SinkDataFrom", "Talking", "Listening")


class Transfer:
    """Long pull/push sessions and single-turn conversations over a chain.

    Every session runs end to end over the 20-domain chain, so each
    message makes the same number of router visits whatever the seed; the
    seed picks each session's direction and how the turns interleave.
    """

    name = "transfer"
    op = "turn"
    work = ("pull", "push", "turn")

    @staticmethod
    def inputs(seed: int):
        rng = random.Random(f"transfer:{seed}")
        ops = [(kind, chunks, rng.random() < 0.5) for kind, chunks in TRANSFER_SESSIONS]
        rng.shuffle(ops)
        # Split the turns into one block after each session.
        cuts = sorted(rng.sample(range(1, TRANSFER_TURNS), len(ops) - 1))
        blocks = [b - a for a, b in zip([0] + cuts, cuts + [TRANSFER_TURNS])]
        plan = []
        for session, block in zip(ops, blocks):
            plan.append(session)
            flip = rng.random() < 0.5
            plan.extend(("turn", 1, flip) for _ in range(block))
        return plan

    @staticmethod
    def setup(inputs):
        loop = EventLoop()
        net = oonsim.DataNetwork(loop, Trace(loop), Metrics())
        names = [f"t{i:02d}" for i in range(TRANSFER_DOMAINS)]
        authority = Authority()
        hosts = []
        for name in names:
            net.add_domain(name)
        for a, b in zip(names, names[1:]):
            net.link(a, b)
        for name in names:
            pname = authority.new_allocator(name).mint_pname()
            host = oonsim.ObjectHost(pname, "node", TRANSFER_METHODS)
            net.add_host(name, host)
            net.install_routes(pname.global_id, name)
            hosts.append(host)
        return net, hosts[0], hosts[-1]

    def round(self, plan, check: bool) -> RoundResult:
        net, first, last = self.setup(plan)
        metrics = net.metrics
        calls = {"pull": oonsim.run_pull, "push": oonsim.run_push,
                 "turn": oonsim.run_interactive}
        samples = {"pull": [], "push": [], "turn": []}
        outcomes = []
        t_begin = perf_counter()
        for kind, n, flip in plan:
            a, b = (last, first) if flip else (first, last)
            t0 = perf_counter()
            st = calls[kind](net, a, b.pname, n)
            dt = perf_counter() - t0
            samples[kind].append(dt if st.outcome == "completed" else INF)
            outcomes.append((kind, n, st))
        busy = perf_counter() - t_begin

        errors, failed, ok_msgs, want = [], 0, 0, 0
        for i, (kind, n, st) in enumerate(outcomes):
            want += {"pull": n + 1, "push": n, "turn": 2 * n}[kind]
            if st.outcome == "completed":
                ok_msgs += len(st.entries)
            else:
                failed += 1
                errors.append(f"{kind} session {i}: {st.outcome}")
        delivered = metrics.delivered["data"]
        if delivered != want:
            errors.append(f"delivered {delivered} data messages, expected {want}")
        errors += _conservation(metrics)
        stats = _sim_stats(metrics, net.trace)
        stats["fib_inter_max"] = max(len(d.fib.inter) for d in net.domains.values())
        return RoundResult(
            samples=samples, busy_s=busy, ok_ops=ok_msgs, attempted=len(plan),
            failed=failed, stats=stats, errors=errors)


# --- churn: the scenario driver, the write side and the audit ----------------

CHURN_DOMAINS = tuple(f"c{i}" for i in range(8))
CHURN_OBJECTS = 2000
CHURN_STEPS = 1000
CHURN_AUDIT_EVERY = 100
CHURN_IRNS = 5
CHURN_CLASS = ObjectClass("item", (("a0", AttributeKind.TEXT), ("a1", AttributeKind.TEXT)))
# Exact step counts, shuffled by the seed, so every seed does as much work.
CHURN_STEP_COUNTS = (("discover", 396), ("pull", 198), ("push", 198),
                     ("migrate", 138), ("delete", 60))
# (eq, prefix, range, any) weights of the discover queries.  Find cost
# comes in steps of one relay node's store.  With the generator's default
# weights half of the finds reach at most 3 of the 5 nodes, so the median
# find flips between 3 and 4 nodes (a quarter more work) from seed to
# seed; with these the median reaches 4 nodes and the 90th percentile
# all 5 with two duplicate visits on nearly every seed.
CHURN_QUERY_MIX = (0.2, 0.2, 0.2, 0.4)


def _query_dict(query) -> dict:
    out = {}
    for name, pred in query.predicates:
        if isinstance(pred, Eq):
            out[name] = {"eq": pred.value}
        elif isinstance(pred, Prefix):
            out[name] = {"prefix": pred.text}
        elif isinstance(pred, Range):
            out[name] = {"range": [pred.lo, pred.hi]}
        elif pred is ANY:
            out[name] = "any"
        else:
            raise TypeError(f"no scenario form for predicate {pred!r}")
    return out


class Churn:
    """A generated scenario through parse_scenario and run(), as `oon-sim run`.

    Publish everything, then a seeded mix of discover, pull, push,
    migrate and delete steps with an audit every CHURN_AUDIT_EVERY steps.
    Sessions pick any two live objects, prefix-siblings of migrated
    objects included, so the migration black hole (ROADMAP item 1) shows
    as failed sessions.  Sessions are a few chunks long, so fixing the
    black hole adds little work to the timed region.
    """

    name = "churn"
    op = "find"
    work = ("step",)

    @staticmethod
    def inputs(seed: int) -> dict:
        rng = random.Random(f"churn:{seed}")
        specs, queries = oonsim.generate_workload(
            seed, CHURN_OBJECTS, CHURN_STEPS, CHURN_CLASS, proportions=CHURN_QUERY_MIX)
        objects, where = [], {}
        for spec in specs:
            where[spec.obj_id] = rng.choice(CHURN_DOMAINS)
            objects.append({"id": spec.obj_id, "class": "item",
                            "domain": where[spec.obj_id], "values": spec.values,
                            "entry_irn": rng.randrange(CHURN_IRNS)})
        script = [{"action": "publish", "object": o["id"],
                   "order": "top_down" if rng.random() < 0.3 else "bottom_up"}
                  for o in objects]
        live = [o["id"] for o in objects]
        kinds = [kind for kind, n in CHURN_STEP_COUNTS for _ in range(n)]
        assert len(kinds) == CHURN_STEPS - CHURN_STEPS // CHURN_AUDIT_EVERY
        rng.shuffle(kinds)
        kinds = iter(kinds)
        for i in range(CHURN_STEPS):
            if i % CHURN_AUDIT_EVERY == CHURN_AUDIT_EVERY - 1:
                script.append({"action": "audit"})
                continue
            kind = next(kinds)
            if kind == "discover":
                script.append({"action": "discover", "class": "item",
                               "entry": rng.randrange(CHURN_IRNS),
                               "query": _query_dict(queries[i])})
            elif kind == "pull":
                consumer, producer = rng.sample(live, 2)
                script.append({"action": "pull", "consumer": consumer,
                               "producer": producer, "chunks": rng.randint(1, 4)})
            elif kind == "push":
                producer, consumer = rng.sample(live, 2)
                script.append({"action": "push", "producer": producer,
                               "consumer": consumer, "chunks": rng.randint(1, 4)})
            elif kind == "migrate":
                obj = rng.choice(live)
                to = rng.choice([d for d in CHURN_DOMAINS if d != where[obj]])
                where[obj] = to
                script.append({"action": "migrate", "object": obj, "to": to})
            else:
                obj = live.pop(rng.randrange(len(live)))
                script.append({"action": "delete", "object": obj})
        return {
            "seed": seed, "pname_assigner": "data_domain",
            "classes": [{"name": "item", "defining": [["a0", "text"], ["a1", "text"]]}],
            "partitions": [{"class": "item",
                            "cuts": {"a0": ["g", "n", "t"], "a1": ["g", "n", "t"]},
                            "irn_count": CHURN_IRNS}],
            "domains": list(CHURN_DOMAINS),
            "links": [[a, b, 1] for a, b in zip(CHURN_DOMAINS,
                                                 CHURN_DOMAINS[1:] + CHURN_DOMAINS[:1])],
            "objects": objects,
            "script": script,
        }

    @staticmethod
    def setup(raw):
        return scenario.build_world(scenario.parse_scenario(raw))

    def round(self, raw, check: bool) -> RoundResult:
        sc = scenario.parse_scenario(raw)
        sc.script = script = _StampedScript(sc.script)
        find_t, ticks, errors = [], [], []
        find_msgs = 0
        oracle_at = {}               # step index -> oracle seconds in that step
        discover = lifecycle.World.discover

        def timed_discover(world, query, entry=0, requester_class="anonymous"):
            nonlocal find_msgs
            sent0 = world.metrics.sent["xfind"] + world.metrics.sent["results"]
            t0 = perf_counter()
            res = discover(world, query, entry, requester_class)
            t1 = perf_counter()
            find_t.append(t1 - t0 if res.complete else INF)
            find_msgs += world.metrics.sent["xfind"] + world.metrics.sent["results"] - sent0
            if res.complete:
                ticks.append(res.request.completed_at - res.request.issued_at)
            if check:
                net = world.info[query.class_name]
                got = oonsim.result_keys(res.request.forms, net.cls)
                want = oonsim.result_keys(
                    oonsim.oracle_find(net.all_forms(), query, net.cls,
                                       Requester(requester_class)), net.cls)
                if got != want:
                    errors.append(f"discover {len(find_t) - 1}: differs from oracle_find")
                step = len(script.stamps) - 1
                oracle_at[step] = oracle_at.get(step, 0.0) + perf_counter() - t1
            return res

        lifecycle.World.discover = timed_discover
        try:
            result = scenario.run(sc)
        finally:
            lifecycle.World.discover = discover
        stamps = script.stamps
        step_t = [b - a - oracle_at.get(i, 0.0)
                  for i, (a, b) in enumerate(zip(stamps, stamps[1:]))]

        failed_sessions = sum(s.outcome == "failed" for s in result.sessions)
        incomplete = sum(not d.complete for d in result.discoveries)
        publish_errors = sum(" ERROR publish " in line for line in result.trace.lines)
        failed = failed_sessions + incomplete + publish_errors
        errors += _conservation(result.metrics)
        stats = _sim_stats(result.metrics, result.trace)
        stats.update(
            find_msgs_mean=find_msgs / max(len(find_t), 1), find_ticks=ticks,
            sessions=len(result.sessions), failed_sessions=failed_sessions,
            incomplete_finds=incomplete, publish_errors=publish_errors,
            audit_dangling=sum(len(a.dangling) for a in result.audits),
            fib_inter_max=result.metrics.fib_inter_size)
        return RoundResult(
            samples={"step": step_t, "find": find_t}, busy_s=sum(step_t),
            ok_ops=len(step_t) - failed, attempted=len(step_t), failed=failed,
            stats=stats, errors=errors, oracle_s=sum(oracle_at.values()))


class _StampedScript(list):
    """A scenario script that stamps the host time at every step boundary.

    run() iterates the script once; stamp i is taken when step i is
    handed out, and the last one when run() asks for a step past the end,
    so consecutive stamps bracket one step including its loop drain.
    """

    def __iter__(self):
        self.stamps = [perf_counter()]
        for step in super().__iter__():
            yield step
            self.stamps.append(perf_counter())


WORKLOADS = {w.name: w for w in (Discover, Transfer, Churn)}
