"""Per-layer instrumentation of the traced run.

Every public function on a measured path is wrapped at its point of use:
``infolayer`` imports ``eval_query`` and ``handle_xfind`` by name, so the
wrappers replace ``oonsim.infolayer.eval_query`` and friends, not the
definitions in ``oonsim.model``.  Methods are wrapped on their class.
``naming`` does constant-time counter work and gets no metric; ``cli``
is on no measured path.
"""

from __future__ import annotations

from oonsim import datalayer, infolayer, lifecycle, model, scenario, sim
from oonsim.infolayer import Action

from harness import percentile, self_times

# (name, unit, better): every metric the traced run reports, on every
# workload; a layer a workload does not reach reads 0.
PER_LAYER = (
    ("infolayer.forms_scanned", "count", "lower"),
    ("infolayer.match_ratio", "ratio", "higher"),
    ("model.eval_query_calls", "count", "lower"),
    ("model.eval_query_s", "s", "lower"),
    ("infolayer.handle_xfind_self_s", "s", "lower"),
    ("model.normalize_value_calls", "count", "lower"),
    ("infolayer.register_s", "s", "lower"),
    ("infolayer.xfind_visits", "count", "lower"),
    ("infolayer.dup_visits", "count", "lower"),
    ("infolayer.useful_visit_ratio", "ratio", "higher"),
    ("infolayer.results_msgs", "count", "lower"),
    ("infolayer.next_hops_s", "s", "lower"),
    ("infolayer.locate_partitions_s", "s", "lower"),
    ("infolayer.find_hops_max", "hops", "lower"),
    ("infolayer.find_ticks_p50", "ticks", "lower"),
    ("datalayer.router_visits", "count", "lower"),
    ("datalayer.route_data_s", "s", "lower"),
    ("datalayer.dispatch_s", "s", "lower"),
    ("datalayer.install_routes_s", "s", "lower"),
    ("datalayer.fib_inter_max", "count", "lower"),
    ("datalayer.retained_bytes_per_msg", "B/msg", "lower"),
    ("datalayer.drops.no_such_local", "count", "lower"),
    ("datalayer.drops.no_route", "count", "lower"),
    ("datalayer.drops.hop_limit", "count", "lower"),
    ("datalayer.drops.exchange_denied", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.loop_self_s", "s", "lower"),
    ("sim.trace_log_s", "s", "lower"),
    ("sim.trace_lines", "count", "lower"),
    ("sim.trace_hash_s", "s", "lower"),
    ("lifecycle.publish_s", "s", "lower"),
    ("lifecycle.discover_s", "s", "lower"),
    ("lifecycle.migrate_s", "s", "lower"),
    ("lifecycle.delete_s", "s", "lower"),
    ("lifecycle.audit_s", "s", "lower"),
    ("lifecycle.session_s", "s", "lower"),
    ("lifecycle.audit_dangling", "count", "lower"),
    ("scenario.parse_s", "s", "lower"),
    ("scenario.build_world_s", "s", "lower"),
    ("scenario.oracle_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)

# Metric -> span names whose total time it sums.
_TOTALS = {
    "model.eval_query_s": ("model.eval_query",),
    "infolayer.register_s": ("infolayer.issue_request.register",
                             "infolayer.handle_xfind.register"),
    "infolayer.next_hops_s": ("infolayer.next_hops",),
    "infolayer.locate_partitions_s": ("infolayer.locate_partitions",),
    "datalayer.route_data_s": ("datalayer.route_data",),
    "datalayer.dispatch_s": ("datalayer.dispatch",),
    "datalayer.install_routes_s": ("datalayer.install_routes",),
    "sim.trace_log_s": ("sim.Trace.log",),
    "sim.trace_hash_s": ("sim.Trace.sha256",),
    "lifecycle.publish_s": ("lifecycle.publish",),
    "lifecycle.discover_s": ("lifecycle.discover",),
    "lifecycle.migrate_s": ("lifecycle.migrate",),
    "lifecycle.delete_s": ("lifecycle.delete",),
    "lifecycle.audit_s": ("lifecycle.audit_consistency",),
    "lifecycle.session_s": ("lifecycle.pull", "lifecycle.push", "lifecycle.interactive"),
    "scenario.parse_s": ("scenario.parse_scenario",),
    "scenario.build_world_s": ("scenario.build_world",),
}
_SELF = {
    "infolayer.handle_xfind_self_s": tuple(f"infolayer.handle_xfind.{a.value}"
                                           for a in Action),
    "sim.loop_self_s": ("sim.EventLoop.run",),
}


def count_events(counts):
    """Replacement for EventLoop.run adding processed events to counts['events']."""
    run = sim.EventLoop.run

    def counted(loop, max_events=None):
        n = run(loop, max_events)
        counts["events"] += n
        return n
    return [(sim.EventLoop, "run", counted)]


def instrument(tracer) -> list:
    """(owner, attribute, wrapper) for every traced function."""
    counts = tracer.counts
    wrap = tracer.wrap

    def counted(fn, key):
        def inner(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return inner

    loop_run = sim.EventLoop.run

    def traced_run(loop, max_events=None):
        idx = tracer.open("sim.EventLoop.run")
        try:
            n = loop_run(loop, max_events)
        finally:
            tracer.close(idx)
        counts["events"] += n
        return n

    eval_query = infolayer.eval_query

    def traced_eval_query(*args):
        counts["eval_query_calls"] += 1
        idx = tracer.open("model.eval_query")
        try:
            return eval_query(*args)
        finally:
            tracer.close(idx)

    handle_xfind = infolayer.handle_xfind
    xfind_names = {a: f"infolayer.handle_xfind.{a.value}" for a in Action}
    served = set()

    def traced_handle_xfind(node, pmap, msg):
        if msg.action is Action.FIND:
            counts["xfind_visits"] += 1
            key = (id(pmap), msg.request_id, node.irn_id)
            if key in served:
                counts["dup_visits"] += 1
            served.add(key)
            counts["find_hops_max"] = max(counts["find_hops_max"], len(msg.path))
            if msg.targets & node.owned:
                counts["forms_scanned"] += len(node.store)
        idx = tracer.open(xfind_names[msg.action])
        try:
            results, forwards = handle_xfind(node, pmap, msg)
        finally:
            tracer.close(idx)
        if msg.action is Action.FIND and results is not None:
            counts["results_msgs"] += 1
            counts["forms_matched"] += len(results.forms)
        return results, forwards

    issue_request = infolayer.InfoNetwork.issue_request
    issue_names = {a: f"infolayer.issue_request.{a.value}" for a in Action}

    def traced_issue_request(net, entry, action, payload, requester):
        idx = tracer.open(issue_names[action])
        try:
            return issue_request(net, entry, action, payload, requester)
        finally:
            tracer.close(idx)

    route_data = datalayer.route_data

    def traced_route_data(domain, msg):
        counts["router_visits"] += 1
        idx = tracer.open("datalayer.route_data")
        try:
            return route_data(domain, msg)
        finally:
            tracer.close(idx)

    World = lifecycle.World
    patches = [
        (sim.EventLoop, "run", traced_run),
        (sim.Trace, "log", wrap(sim.Trace.log, "sim.Trace.log")),
        (sim.Trace, "sha256", wrap(sim.Trace.sha256, "sim.Trace.sha256")),
        (model, "normalize_value", counted(model.normalize_value, "normalize_value_calls")),
        (lifecycle, "normalize_value",
         counted(lifecycle.normalize_value, "normalize_value_calls")),
        (infolayer, "eval_query", traced_eval_query),
        (infolayer, "handle_xfind", traced_handle_xfind),
        (infolayer, "next_hops", wrap(infolayer.next_hops, "infolayer.next_hops")),
        (infolayer, "locate_partitions",
         wrap(infolayer.locate_partitions, "infolayer.locate_partitions")),
        (infolayer.InfoNetwork, "issue_request", traced_issue_request),
        (datalayer, "route_data", traced_route_data),
        (datalayer, "dispatch", wrap(datalayer.dispatch, "datalayer.dispatch")),
        (datalayer.DataNetwork, "install_routes",
         wrap(datalayer.DataNetwork.install_routes, "datalayer.install_routes")),
        (scenario, "parse_scenario", wrap(scenario.parse_scenario, "scenario.parse_scenario")),
        (scenario, "build_world", wrap(scenario.build_world, "scenario.build_world")),
        (scenario, "run", wrap(scenario.run, "scenario.run")),
    ]
    for method in ("publish", "discover", "migrate", "delete", "audit_consistency",
                   "pull", "push", "interactive"):
        patches.append((World, method, wrap(getattr(World, method), f"lifecycle.{method}")))
    return patches


def layer_metrics(tracer, stats: dict) -> dict:
    """Per-layer values of one traced round, from its spans, counts and stats."""
    times = self_times(tracer.spans())
    counts = tracer.counts
    out = {}
    for metric, names in _TOTALS.items():
        out[metric] = sum(times[n][1] for n in names if n in times)
    for metric, names in _SELF.items():
        out[metric] = sum(times[n][2] for n in names if n in times)
    scanned, visits = counts["forms_scanned"], counts["xfind_visits"]
    ticks = stats.get("find_ticks", [])
    drops = stats["drops_by_cause"]
    out.update({
        "infolayer.forms_scanned": scanned,
        "infolayer.match_ratio": counts["forms_matched"] / scanned if scanned else 0.0,
        "model.eval_query_calls": counts["eval_query_calls"],
        "model.normalize_value_calls": counts["normalize_value_calls"],
        "infolayer.xfind_visits": visits,
        "infolayer.dup_visits": counts["dup_visits"],
        "infolayer.useful_visit_ratio":
            (visits - counts["dup_visits"]) / visits if visits else 0.0,
        "infolayer.results_msgs": counts["results_msgs"],
        "infolayer.find_hops_max": counts["find_hops_max"],
        "infolayer.find_ticks_p50": percentile(ticks, 50) if ticks else 0,
        "datalayer.router_visits": counts["router_visits"],
        "datalayer.fib_inter_max": stats.get("fib_inter_max", 0),
        "sim.events": counts["events"],
        "sim.trace_lines": stats["trace_lines"],
        "lifecycle.audit_dangling": stats.get("audit_dangling", 0),
    })
    for cause in ("no_such_local", "no_route", "hop_limit", "exchange_denied"):
        out[f"datalayer.drops.{cause}"] = drops.get(cause, 0)
    return out
