"""End-to-end object procedures spanning both layers.

The World wires the authority, the data-layer domains and the per-class
discovery networks onto one event loop, and runs instantiate, publish,
discover, migrate and the cross-layer consistency audit as discrete
scripted steps.  Where each host lives, and so where its prefix routes,
is the data layer's record; each object's record keeps only its spec,
the spec's checked form, p-name, home domain and the informational form
its relay node holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .datalayer import (
    DataNetwork,
    ObjectHost,
    SessionTrace,
    UnknownDomain,
    run_interactive,
    run_pull,
    run_push,
)
from .infolayer import Action, InfoNetwork, InvalidPayload, Requester, SegmentCuts
from .model import (
    AccessPolicy,
    InformationalForm,
    ObjectClass,
    OPEN_POLICY,
    OonError,
    PName,
    Query,
    iname_key,
    make_form,
    normalize_value,  # noqa: F401 -- unused here; bench/layers.py wraps this name
    validate_form,
)
from .naming import Authority
from .sim import EventLoop, Metrics, Trace


class AlreadyPublished(OonError):
    pass


class NotInstantiated(OonError):
    pass


class UnknownObject(OonError):
    pass


@dataclass
class ObjectSpec:
    """Everything needed to create and publish one object."""

    obj_id: str
    class_name: str
    values: dict
    domain: str
    policy: AccessPolicy = OPEN_POLICY
    entry_irn: int = 0


@dataclass
class _Record:
    spec: ObjectSpec             # as given; never written
    domain: str                  # current home domain, moved by migrate
    pname: Optional[PName] = None
    form: Optional[InformationalForm] = None      # the form the relay node holds
    checked: Optional[InformationalForm] = None   # the spec's form, validated once


@dataclass
class DiscoveryResult:
    """One find: World.discover keeps its settled request, whose forms give
    items when read; run() keeps complete alone."""

    complete: bool       # False when the last response came at or after the
                         # deadline; the request still holds every response
    request: object = None               # the settled RequestState
    cls: Optional[ObjectClass] = None    # the queried class, for the sort

    @property
    def items(self) -> list:
        """(IName, tuple of PName) sorted by normalized key, built when read."""
        forms = self.request.forms if self.request is not None else ()
        return [(f.iname, tuple(f.relationship))
                for f in sorted(forms, key=lambda f: iname_key(self.cls, f.iname))]


@dataclass
class AuditReport:
    """dangling is in class-name order, then relay-node order, then key
    order within a node; orphans is in (domain, p-name) order."""

    dangling: list       # (IName, PName) pointers with no live host
    orphans: list        # hosted pnames with no covering informational form


class World:
    """One simulation universe: naming, both layers, object registry."""

    def __init__(self, info_latency: int = 1, deadline: int = 1000):
        self.info_latency = info_latency
        self.deadline = deadline
        self.loop = EventLoop()
        self.trace = Trace(self.loop)
        self.metrics = Metrics()
        self.authority = Authority()
        self.datanet = DataNetwork(self.loop, self.trace, self.metrics)
        self.classes = {}
        self.info = {}               # class name -> InfoNetwork
        self.registry = {}           # obj id -> _Record
        self._allocators = {}        # domain name -> LocalAllocator
        self._requesters = {}        # class name -> its one Requester

    # -- topology -------------------------------------------------------------

    def add_class(self, cls: ObjectClass) -> None:
        self.classes[cls.class_name] = cls

    def add_domain(self, name: str) -> None:
        self.datanet.add_domain(name)
        self._allocators[name] = self.authority.new_allocator(name)

    def connect_domains(self, a: str, b: str, latency: int = 1) -> None:
        self.datanet.link(a, b, latency)

    def add_partition(self, class_name: str, cuts, irn_count: int) -> InfoNetwork:
        cls = self.classes[class_name]
        if not isinstance(cuts, SegmentCuts):
            cuts = SegmentCuts(cuts)
        net = InfoNetwork(cls, cuts, irn_count, self.loop, self.trace,
                          self.metrics, latency=self.info_latency,
                          deadline=self.deadline)
        self.info[class_name] = net
        return net

    # -- object lifecycle -----------------------------------------------------

    def add_object(self, spec: ObjectSpec) -> None:
        self.registry[spec.obj_id] = _Record(spec, spec.domain)

    def record(self, obj_id: str) -> _Record:
        if obj_id not in self.registry:
            raise UnknownObject(f"{obj_id!r}")
        return self.registry[obj_id]

    def host(self, obj_id: str) -> Optional[ObjectHost]:
        """The object's attached host, or None when it has none."""
        return self.datanet.host_of(self.record(obj_id).pname)

    def instantiate(self, obj_id: str):
        """Mint a pname and attach its host, which routes its prefix there;
        a spec whose form the relay node would reject gets neither."""
        rec = self.record(obj_id)
        spec = rec.spec
        if rec.domain not in self.datanet.domains:
            raise UnknownDomain(f"{rec.domain!r}")
        cls = self.classes[spec.class_name]
        self._checked(rec)
        pname = self._allocators[rec.domain].mint_pname()
        host = ObjectHost(pname, spec.class_name, cls.methods, spec.policy)
        self.datanet.add_host(rec.domain, host)
        rec.pname = pname
        return host, pname

    def publish(self, obj_id: str, order: str = "bottom_up") -> str:
        """Create the informational form at its owning relay node.

        bottom_up registers an already instantiated object with its pname
        in the relationship list; top_down registers first, instantiates on
        affirmation unless a host is already attached, then fills the
        pointer in with a modify.
        """
        rec = self.record(obj_id)
        if order == "bottom_up":
            if self.host(obj_id) is None:
                raise NotInstantiated(f"{obj_id!r} must be instantiated first")
            relationship = [rec.pname]
        elif order == "top_down":
            relationship = []
        else:
            raise ValueError(f"bad publish order {order!r}")
        detail = self._action(rec, Action.REGISTER, self._form(rec, relationship))
        if detail != "Registered":
            raise AlreadyPublished(f"{obj_id!r}: {detail}")
        if order == "top_down":
            if self.host(obj_id) is None:
                self.instantiate(obj_id)
            detail = self._action(rec, Action.MODIFY, self._form(rec, [rec.pname]))
            if detail != "Modified":
                raise OonError(f"pointer fill-in for {obj_id!r} failed: {detail}")
        return detail

    def _checked(self, rec: _Record) -> InformationalForm:
        """The spec's form, built and validated at its first use and then
        kept; a spec the relay node would reject raises at every use."""
        if rec.checked is None:
            cls = self.classes[rec.spec.class_name]
            form = make_form(cls, rec.spec.values, policy=rec.spec.policy)
            violations = validate_form(form, cls)
            if violations:
                raise InvalidPayload("; ".join(violations))
            rec.checked = form
        return rec.checked

    def _form(self, rec: _Record, relationship: list) -> InformationalForm:
        """A copy of the checked form with its own description and this
        relationship list; copies share its immutable IName, whose key is
        computed once."""
        base = self._checked(rec)
        return InformationalForm(base.iname, dict(base.description), relationship,
                                 base.methods, base.policy)

    def _action(self, rec: _Record, action: Action, form) -> str:
        """Send one write and wait for it.  The record keeps the form the
        relay node now holds, even when its answer came after the deadline."""
        spec = rec.spec
        req = self._settle(self.info[spec.class_name], spec.entry_irn, action,
                           form, spec.class_name)
        if req.ack:
            rec.form = None if action is Action.DELETE else form
        if req.status != "complete":
            raise OonError(f"{action.value} for {spec.obj_id!r} {req.status}")
        return req.detail

    def discover(self, query: Query, entry: int = 0,
                 requester_class: str = "anonymous") -> DiscoveryResult:
        """Run a find; its items are projected only when read."""
        net = self.info[query.class_name]
        req = self._settle(net, entry, Action.FIND, query, requester_class)
        return DiscoveryResult(req.status == "complete", req, net.cls)

    def _settle(self, net: InfoNetwork, entry: int, action: Action, payload, who: str):
        """Issue a request, drain the loop, and take the settled request."""
        requester = self._requesters.get(who) or self._requesters.setdefault(who, Requester(who))
        rid = net.issue_request(entry, action, payload, requester)
        self.loop.run()
        return net.requests.pop(rid)

    def migrate(self, obj_id: str, to_domain: str) -> None:
        """Move the physical form; the pname and informational form stay put."""
        if self.host(obj_id) is None:
            raise UnknownObject(f"{obj_id!r} has no live host")
        if to_domain not in self.datanet.domains:
            raise UnknownDomain(f"{to_domain!r}")
        rec = self.record(obj_id)
        self.datanet.add_host(to_domain, self.datanet.remove_host(rec.pname))
        rec.domain = to_domain

    def delete(self, obj_id: str) -> None:
        """Tear down info-first so no dangling-pointer window opens; the host
        goes once the relay node no longer holds the form, late answer or not."""
        rec = self.record(obj_id)
        try:
            if rec.form is not None:
                self._action(rec, Action.DELETE, rec.form)
        finally:
            if rec.form is None and self.host(obj_id) is not None:
                self.datanet.remove_host(rec.pname)

    def drop_host(self, obj_id: str) -> None:
        """Fault injection: kill the host without touching the info layer."""
        if self.host(obj_id) is None:
            raise UnknownObject(f"{obj_id!r} has no live host")
        self.datanet.remove_host(self.record(obj_id).pname)

    def audit_consistency(self) -> AuditReport:
        """Report dangling relationship pointers and orphan hosts.

        Orphans are informational, not failures: publishing is optional for
        objects whose pname is made known by other means.
        """
        dangling, referenced, hosts = [], set(), self.datanet.hosts
        for class_name in sorted(self.info):
            for node in self.info[class_name].nodes:
                here = []
                for cell in node.cells.values():
                    for key, form in zip(cell.keys, cell.forms):
                        for p in form.relationship:
                            referenced.add(p)
                            if p not in hosts:
                                here.append((key, form.iname, p))
                here.sort(key=itemgetter(0))  # stable: a form's pointers keep their order
                dangling.extend((iname, p) for _, iname, p in here)
        orphans = sorted((h.domain, h.pname) for h in hosts.values()
                         if h.pname not in referenced)
        return AuditReport(dangling, [p for _, p in orphans])

    # -- sessions -------------------------------------------------------------

    def _live_host(self, obj_id: str) -> ObjectHost:
        host = self.host(obj_id)
        if host is None:
            raise NotInstantiated(f"{obj_id!r} has no live host")
        return host

    def pull(self, consumer_id: str, producer: PName, chunks: int,
             reply_to: str = "SinkDataFrom") -> SessionTrace:
        return run_pull(self.datanet, self._live_host(consumer_id), producer, chunks, reply_to)

    def push(self, producer_id: str, consumer: PName, chunks: int) -> SessionTrace:
        return run_push(self.datanet, self._live_host(producer_id), consumer, chunks)

    def interactive(self, a_id: str, b: PName, turns: int) -> SessionTrace:
        return run_interactive(self.datanet, self._live_host(a_id), b, turns)

    # -- bookkeeping ----------------------------------------------------------

    def finalize_metrics(self) -> Metrics:
        """Snapshot end-of-run gauge values into the metrics object."""
        m = self.metrics
        domains = self.datanet.domains.values()
        m.fib_inter_size = max((len(d.fib.inter) for d in domains), default=0)
        m.fib_intra_size = max((len(d.hosts) for d in domains), default=0)
        return m
