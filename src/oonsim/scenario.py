"""Scenario loading, workload generation, oracle and the run driver.

A scenario is a JSON document describing classes, the partition layout,
the domain topology, objects and an ordered action script.  A run is a
pure function of its scenario: the World never writes into the object
specs it is given, and the only randomness is the seeded Mersenne
Twister behind the workload generator, which runs do not use.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from .infolayer import Requester, check_access
from .lifecycle import NotInstantiated, ObjectSpec, World
from .model import (
    ANY,
    AccessPolicy,
    AttributeKind,
    Eq,
    OPEN_POLICY,
    ObjectClass,
    OonError,
    Prefix,
    Query,
    Range,
    Rule,
    eval_query,
    iname_key,
    validate_query,
)
from .sim import Metrics, Trace


class ValidationError(OonError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


class ScenarioParseError(OonError):
    pass


@dataclass
class Scenario:
    info_latency: int
    deadline: int
    classes: list                 # ObjectClass
    partitions: list              # (class name, cuts dict, irn count)
    domains: list
    links: list                   # (a, b, latency)
    objects: list                 # ObjectSpec
    script: list                  # step dicts; a discover step's query is a Query


@dataclass
class RunResult:
    metrics: Metrics
    trace: Trace
    audits: list = field(default_factory=list)       # AuditReport per checkpoint
    discoveries: list = field(default_factory=list)
    sessions: list = field(default_factory=list)
    world: Optional[World] = None


# --- parsing -----------------------------------------------------------------

# Script action -> the object keys its step must name.
_STEP_OBJECTS = {
    "publish": ("object",), "migrate": ("object",), "delete": ("object",),
    "drop_host": ("object",), "pull": ("consumer", "producer"),
    "push": ("producer", "consumer"), "interactive": ("a", "b"),
    "discover": (), "audit": (),
}


def _int(value, where: str, minimum: Optional[int] = None) -> int:
    """A JSON integer, no smaller than minimum when one is given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(where, f"{value} is below the minimum {minimum}")
    return value


def _shape(value, kind: type, where: str):
    """value when it is a JSON list (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        name = "a list" if kind is list else "an object"
        raise ValidationError(where, f"expected {name}, got {value!r}")
    return value


def _known(name, known, where: str, what: str) -> str:
    """name when it is a string among known; JSON lists are unhashable."""
    if not isinstance(name, str) or name not in known:
        raise ValidationError(where, f"unknown {what} {name!r}")
    return name


def _parse_policy(raw, where: str) -> AccessPolicy:
    if raw is None:
        return OPEN_POLICY        # frozen, so every object can share it
    _shape(raw, dict, f"{where}.policy")
    rules = {}
    for side in ("view", "exchange"):
        spec = raw.get(side, "allow_all")
        if spec == "allow_all":
            rules[side] = Rule("allow_all")
        elif spec == "deny_all":
            rules[side] = Rule("deny_all")
        elif isinstance(spec, dict) and isinstance(spec.get("classes"), list):
            rules[side] = Rule("allow_classes", tuple(spec["classes"]))
        else:
            raise ValidationError(f"{where}.{side}", f"bad policy {spec!r}")
    return AccessPolicy(view_rule=rules["view"], exchange_rule=rules["exchange"])


def parse_query(raw: dict, cls: ObjectClass, where: str = "query") -> Query:
    if not isinstance(raw, dict):
        raise ValidationError(where, f"expected an object of predicates, got {raw!r}")
    preds = []
    for name, spec in raw.items():
        if not cls.declares(name):
            raise ValidationError(f"{where}.{name}",
                                  f"attribute not declared by class {cls.class_name!r}")
        if spec == "any":
            pred = ANY
        elif isinstance(spec, dict) and "eq" in spec:
            pred = Eq(spec["eq"])
        elif isinstance(spec, dict) and "prefix" in spec:
            pred = Prefix(spec["prefix"])
        elif isinstance(spec, dict) and isinstance(spec.get("range"), (list, tuple)) \
                and len(spec["range"]) == 2:
            pred = Range(*spec["range"])
        else:
            raise ValidationError(f"{where}.{name}", f"bad predicate {spec!r}")
        preds.append((name, pred))
    query = Query(cls.class_name, tuple(preds))
    try:
        validate_query(query, cls)  # keeps the intervals on the query for the run
    except OonError:
        for name, pred in preds:  # name the first predicate that fails alone
            try:
                validate_query(Query(cls.class_name, ((name, pred),)), cls)
            except OonError as exc:
                raise ValidationError(f"{where}.{name}", str(exc)) from exc
        raise
    return query


def load_scenario(path: str) -> Scenario:
    """Parse and cross-validate a scenario file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(
                f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    _shape(raw, dict, "scenario")
    classes = []
    for i, c in enumerate(_shape(raw.get("classes", []), list, "classes")):
        where = f"classes[{i}]"
        if not isinstance(_shape(c, dict, where).get("name"), str):
            raise ValidationError(f"{where}.name", "expected a string class name")
        try:
            classes.append(ObjectClass(
                class_name=c["name"],
                defining_attributes=tuple((n, AttributeKind(k)) for n, k in c["defining"]),
                extra_description_attributes=tuple(
                    (n, AttributeKind(k)) for n, k in c.get("extra", [])),
                methods=tuple(_shape(c.get("methods", []), list, f"{where}.methods")),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(where, str(exc)) from exc
    by_name = {c.class_name: c for c in classes}

    partitions = []
    irns = {}                     # class name -> relay node count
    for i, p in enumerate(_shape(raw.get("partitions", []), list, "partitions")):
        where = f"partitions[{i}]"
        cname = _known(_shape(p, dict, where).get("class"), by_name, where, "class")
        cls = by_name[cname]
        cuts = _shape(p.get("cuts", {}), dict, f"{where}.cuts")
        for attr, keys in cuts.items():
            if not cls.declares(attr):
                raise ValidationError(f"{where}.cuts",
                                      f"attribute {attr!r} not declared by {cname!r}")
            if not (isinstance(keys, list) and all(isinstance(k, str) for k in keys)
                    and all(a < b for a, b in zip(keys, keys[1:]))):
                raise ValidationError(f"{where}.cuts.{attr}",
                                      f"expected strictly increasing strings, got {keys!r}")
        irns[cname] = _int(p.get("irn_count", 1), f"{where}.irn_count", 1)
        partitions.append((cname, dict(cuts), irns[cname]))

    domains = list(_shape(raw.get("domains", []), list, "domains"))
    for i, name in enumerate(domains):
        if not isinstance(name, str) or name in domains[:i]:
            raise ValidationError(f"domains[{i}]", f"not a new domain name: {name!r}")
    links = []
    for i, l in enumerate(_shape(raw.get("links", []), list, "links")):
        if not isinstance(l, (list, tuple)) or len(l) not in (2, 3):
            raise ValidationError(f"links[{i}]", "expected [a, b] or [a, b, latency]")
        a, b = l[0], l[1]
        latency = _int(l[2], f"links[{i}]", 1) if len(l) > 2 else 1
        for end in (a, b):
            _known(end, domains, f"links[{i}]", "domain")
        links.append((a, b, latency))

    objects = {}                  # object id -> ObjectSpec
    for i, o in enumerate(_shape(raw.get("objects", []), list, "objects")):
        where = f"objects[{i}]"
        _known(_shape(o, dict, where).get("class"), by_name, where, "class")
        _known(o.get("domain"), domains, where, "domain")
        if not isinstance(o.get("id"), str):
            raise ValidationError(where, "object has no string 'id'")
        if o["id"] in objects:
            raise ValidationError(where, f"duplicate object id {o['id']!r}")
        values = _shape(o.get("values", {}), dict, f"{where}.values")
        for name, _ in by_name[o["class"]].defining_attributes:
            if name not in values:
                raise ValidationError(f"{where}.values",
                                      f"missing defining attribute {name!r}")
        objects[o["id"]] = ObjectSpec(
            obj_id=o["id"], class_name=o["class"], values=dict(values),
            domain=o["domain"], policy=_parse_policy(o.get("policy"), where),
            entry_irn=_int(o.get("entry_irn", 0), f"{where}.entry_irn"))

    script = []
    for i, step in enumerate(_shape(raw.get("script", []), list, "script")):
        where = f"script[{i}]"
        action = _shape(step, dict, where).get("action")
        if not isinstance(action, str) or action not in _STEP_OBJECTS:
            raise ValidationError(where, f"unknown action {action!r}")
        for key in _STEP_OBJECTS[action]:
            if key not in step:
                raise ValidationError(where, f"{action} step names no {key!r}")
            _known(step[key], objects, where, "object")
        for key in ("chunks", "turns"):
            if key in step:
                _int(step[key], f"{where}.{key}", minimum=1)
        if action == "pull" and not isinstance(step.get("reply_to", ""), str):
            raise ValidationError(f"{where}.reply_to",
                                  f"expected a string, got {step['reply_to']!r}")
        if action == "publish":
            if step.get("order", "bottom_up") not in ("bottom_up", "top_down"):
                raise ValidationError(where, f"bad publish order {step['order']!r}")
            spec = objects[step["object"]]
            _check_entry(irns, spec.class_name, spec.entry_irn,
                         f"{where} (object {spec.obj_id!r})")
        if action == "discover":
            cname = _known(step.get("class"), by_name, where, "class")
            _check_entry(irns, cname, _int(step.get("entry", 0), f"{where}.entry"), where)
            if not isinstance(step.get("requester_class", ""), str):
                raise ValidationError(f"{where}.requester_class",
                                      f"expected a string, got {step['requester_class']!r}")
            step = dict(step, query=parse_query(step.get("query", {}), by_name[cname],
                                                f"{where}.query"))
        if action == "migrate":
            _known(step.get("to"), domains, where, "domain")
        script.append(dict(step))

    return Scenario(
        info_latency=_int(raw.get("info_latency", 1), "info_latency", 0),
        deadline=_int(raw.get("deadline", 1000), "deadline", 0),
        classes=classes, partitions=partitions, domains=domains,
        links=links, objects=list(objects.values()), script=script)


def _check_entry(irns: dict, cname: str, entry: int, where: str) -> None:
    """A request of class cname can enter only at one of its relay nodes."""
    if cname not in irns:
        raise ValidationError(where, f"class {cname!r} has no partition")
    if not 0 <= entry < irns[cname]:
        raise ValidationError(where, f"entry {entry} is not a relay node of {cname!r}")


# --- world construction and the script runner --------------------------------


def build_world(scenario: Scenario) -> World:
    world = World(info_latency=scenario.info_latency, deadline=scenario.deadline)
    for cls in scenario.classes:
        world.add_class(cls)
    for name in scenario.domains:
        world.add_domain(name)
    for a, b, latency in scenario.links:
        world.connect_domains(a, b, latency)
    for cname, cuts, irn_count in scenario.partitions:
        world.add_partition(cname, cuts, irn_count)
    for spec in scenario.objects:
        world.add_object(spec)
    return world


def run(scenario: Scenario) -> RunResult:
    """Execute the script step by step; failures are outcomes, not crashes."""
    world = build_world(scenario)
    result = RunResult(metrics=world.metrics, trace=world.trace, world=world)
    for step in scenario.script:
        action = step["action"]
        try:
            if action == "publish":
                order = step.get("order", "bottom_up")
                if order == "bottom_up" and world.host(step["object"]) is None:
                    world.instantiate(step["object"])
                world.publish(step["object"], order)
            elif action == "discover":
                result.discoveries.append(
                    world.discover(step["query"], entry=int(step.get("entry", 0)),
                                   requester_class=step.get("requester_class", "anonymous")))
            elif action in ("pull", "push", "interactive"):
                result.sessions.append(_run_session(world, step))
            elif action == "migrate":
                world.migrate(step["object"], step["to"])
            elif action == "delete":
                world.delete(step["object"])
            elif action == "drop_host":
                world.drop_host(step["object"])
            elif action == "audit":
                report = world.audit_consistency()
                result.audits.append(report)
                world.trace.log(f"AUDIT dangling={len(report.dangling)} "
                                f"orphans={len(report.orphans)}")
        except OonError as exc:
            ids = [step[key] for key in _STEP_OBJECTS[action]]
            world.trace.log(" ".join(["ERROR", action, *ids, str(exc)]))
        world.loop.run()
    world.finalize_metrics()
    return result


def _pname_of(world: World, obj_id: str):
    """A session peer's p-name; a peer never instantiated has none."""
    pname = world.record(obj_id).pname
    if pname is None:
        raise NotInstantiated(f"{obj_id!r} was never instantiated")
    return pname


def _run_session(world: World, step: dict):
    action = step["action"]
    if action == "pull":
        return world.pull(step["consumer"], _pname_of(world, step["producer"]),
                          step.get("chunks", 1),
                          reply_to=step.get("reply_to", "SinkDataFrom"))
    if action == "push":
        return world.push(step["producer"], _pname_of(world, step["consumer"]),
                          step.get("chunks", 1))
    return world.interactive(step["a"], _pname_of(world, step["b"]), step.get("turns", 1))


# --- workload generation and the brute-force oracle --------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def generate_workload(seed: int, n_objects: int, n_queries: int,
                      cls: ObjectClass, domain: str = "d0",
                      proportions=None) -> tuple:
    """Reproducible object specs and mixed-predicate queries.

    Uses the stdlib Mersenne Twister, seeded, so the same arguments always
    produce the same workload on any platform.  Informational names are
    deduplicated; proportions are (eq, prefix, range, any) weights.
    """
    rng = random.Random(seed)
    weights = proportions or (0.3, 0.2, 0.25, 0.25)

    def random_value(kind: AttributeKind):
        if kind is AttributeKind.TEXT:
            n = rng.randint(1, 8)
            return "".join(rng.choice(_LETTERS) for _ in range(n))
        return rng.randint(0, 999_999)

    specs, seen = [], set()
    attrs = cls.defining_attributes + cls.extra_description_attributes
    while len(specs) < n_objects:
        values = {name: random_value(kind) for name, kind in attrs}
        key = tuple(str(values[n]).casefold() for n in cls.defining_names)
        if key in seen:
            continue
        seen.add(key)
        specs.append(ObjectSpec(obj_id=f"obj{len(specs)}",
                                class_name=cls.class_name,
                                values=values, domain=domain))

    queries = []
    for _ in range(n_queries):
        preds = []
        for name, kind in cls.defining_attributes:
            choice = rng.choices(("eq", "prefix", "range", "any"), weights)[0]
            pivot = rng.choice(specs).values[name]
            if choice == "eq":
                preds.append((name, Eq(pivot)))
            elif choice == "prefix" and kind is AttributeKind.TEXT:
                cut = rng.randint(1, len(pivot))
                preds.append((name, Prefix(pivot[:cut])))
            elif choice in ("prefix", "range"):
                other = rng.choice(specs).values[name]
                lo, hi = sorted((pivot, other), key=lambda v: str(v).casefold()
                                if kind is AttributeKind.TEXT else v)
                preds.append((name, Range(lo, hi)))
            else:
                preds.append((name, ANY))
        queries.append(Query(cls.class_name, tuple(preds)))
    return specs, queries


def oracle_find(forms, query: Query, cls: ObjectClass,
                requester: Requester = Requester("anonymous")) -> list:
    """Linear scan reference for find: no partition logic involved."""
    return [f for f in forms
            if eval_query(query, f, cls) and check_access(f, requester, "view")]


def result_keys(forms, cls: ObjectClass) -> set:
    """Set identity of a find result, by normalized informational name."""
    return {iname_key(cls, f.iname) for f in forms}
