"""Discovery network of Information Relay Nodes.

The per-class multi-attribute namespace is cut into lexicographic
segments per dimension; the resulting grid cells are assigned round-robin
to relay nodes.  A request (xFind) travels down its entry node's
breadth-first tree of the relay nodes, computed from nothing but the static
partition map, so each node serves it at most once; responses (Results)
climb the same tree's parent pointers back to the entry node.  No routing
state is ever exchanged between nodes.  Each node keeps its store's keys
sorted per cell, so a find reads only its target cells.  A cell that lies
wholly inside the query is covered, and its forms pass on the access check
alone; elsewhere a find bisects on the first dimension and reads defining
values from each stored key.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from typing import Optional

from .model import (
    InformationalForm,
    ObjectClass,
    OonError,
    Query,
    eval_query,
    iname_key,
    predicate_interval,
    query_intervals,
    validate_form,
    validate_query,
)
from .sim import EventLoop, Metrics, Trace


class InvalidCuts(OonError):
    pass


class WrongOwner(OonError):
    pass


class InvalidPayload(OonError):
    pass


class UnknownRequest(OonError):
    pass


class Action(Enum):
    FIND = "find"
    REGISTER = "register"
    MODIFY = "modify"
    DELETE = "delete"


@dataclass(frozen=True)
class SegmentCuts:
    """Per-attribute sorted boundary keys; k boundaries make k+1 segments."""

    per_attribute: tuple  # tuple of (attribute, tuple of boundary keys)

    def __post_init__(self):
        per = self.per_attribute
        if isinstance(per, dict):
            per = tuple((n, tuple(c)) for n, c in per.items())
        else:
            per = tuple((n, tuple(c)) for n, c in per)
        object.__setattr__(self, "per_attribute", per)

    def cuts_for(self, attribute: str) -> tuple:
        for name, cuts in self.per_attribute:
            if name == attribute:
                return cuts
        return ()


@dataclass(frozen=True)
class Requester:
    """Summary of the requesting object carried on every request."""

    class_name: str


@dataclass
class IRNNode:
    irn_id: int
    owned: set = field(default_factory=set)          # grid coordinates
    store: dict = field(default_factory=dict)        # normalized key -> form
    cells: dict = field(default_factory=dict)        # coordinate -> sorted keys stored in it


@dataclass
class PartitionMap:
    """Static cell-to-node assignment over the segment grid of one class."""

    cls: ObjectClass
    dim_cuts: tuple     # per defining attribute, sorted boundary keys
    dims: tuple         # per-attribute segment counts
    assignment: dict    # coordinate -> node id
    routes: dict        # entry node id -> node id -> its parent on the entry's tree

    def cell_of_key(self, key: tuple) -> tuple:
        return tuple(bisect_right(cuts, k) for cuts, k in zip(self.dim_cuts, key))

    def cell_of_iname(self, iname) -> tuple:
        return self.cell_of_key(iname_key(self.cls, iname))

    def max_hops(self) -> int:
        """Forwarding from an entry that owns a cell never needs more hops
        than this grid diameter; from an entry that owns none it takes one."""
        return sum(n - 1 for n in self.dims)


def build_partition_map(cls: ObjectClass, cuts: SegmentCuts, irn_count: int):
    """Create the partition map and its relay nodes.

    Cells are assigned round-robin in row-major order.  Nodes owning
    grid-adjacent cells are neighbours; each entry's routes are the parent
    pointers of its breadth-first tree, visiting neighbours in id order.
    """
    if irn_count < 1:
        raise ValueError("irn_count must be >= 1")
    dim_cuts = []
    for name, _ in cls.defining_attributes:
        c = cuts.cuts_for(name)
        if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            raise InvalidCuts(f"boundaries for {name!r} not strictly increasing")
        dim_cuts.append(tuple(c))
    for name, _ in cuts.per_attribute:
        cls.kind_of(name)  # raises UnknownAttribute for undeclared names
    dims = tuple(len(c) + 1 for c in dim_cuts)

    assignment = {}
    for idx, coord in enumerate(itertools.product(*(range(n) for n in dims))):
        assignment[coord] = idx % irn_count
    owners = set(assignment.values())
    # a node that owns no cell has no grid position and reaches every owner
    # in one hop; no owner routes through it
    adjacent = {nid: set() if nid in owners else owners for nid in range(irn_count)}
    for cell, nid in assignment.items():
        for d, n in enumerate(dims):
            if cell[d] + 1 < n:
                other = assignment[cell[:d] + (cell[d] + 1,) + cell[d + 1:]]
                adjacent[nid].add(other)
                adjacent[other].add(nid)
    routes = {}
    for entry in range(irn_count):
        parent, order = {entry: None}, [entry]
        for nid in order:  # breadth-first: order grows while it is walked
            for other in sorted(adjacent[nid]):
                if other not in parent:
                    parent[other] = nid
                    order.append(other)
        routes[entry] = parent
    pmap = PartitionMap(cls, tuple(dim_cuts), dims, assignment, routes)

    nodes = [IRNNode(i) for i in range(irn_count)]
    for coord, nid in assignment.items():
        nodes[nid].owned.add(coord)
    return pmap, nodes


def locate_partitions(pmap: PartitionMap, q: Query) -> frozenset:
    """The cells whose segments intersect the query's key intervals.

    Every interval is closed below, so a validated query locates at least
    one cell: every cut at or below its lower bound lies below its upper.
    """
    validate_query(q, pmap.cls)
    per_dim = []
    for (name, kind), cuts in zip(pmap.cls.defining_attributes, pmap.dim_cuts):
        lo, hi, hi_open = predicate_interval(q.predicate_for(name), kind)
        i_lo = 0 if lo is None else bisect_right(cuts, lo)
        if hi is None:
            i_hi = len(cuts)
        else:
            i_hi = (bisect_left if hi_open else bisect_right)(cuts, hi)
        per_dim.append(range(i_lo, i_hi + 1))
    return frozenset(itertools.product(*per_dim))


# --- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class XFindMessage:
    request_id: int
    action: Action
    payload: object              # Query for FIND, InformationalForm otherwise
    requester: Requester
    targets: frozenset           # grid coordinates still to serve
    path: tuple = ()             # node ids visited before the current one


@dataclass(frozen=True)
class ResultsMessage:
    request_id: int
    responder: int
    entry: int                   # the request's entry node, whose tree it climbs
    forms: tuple = ()
    ack: Optional[bool] = None
    detail: str = ""


def check_access(form: InformationalForm, requester: Requester, action: str) -> bool:
    """Evaluate the form's own policy against the requester's class."""
    rule = form.policy.view_rule if action == "view" else form.policy.exchange_rule
    return rule.allows(requester.class_name)


def next_hops(node: IRNNode, pmap: PartitionMap, msg: XFindMessage, targets) -> list:
    """Split the non-local targets by the next node on the entry's tree.

    The entry is the first node on the request's path, or this node when
    the path is empty.  Each target's owner lies below this node on the
    entry's tree, so climbing the owner's parent pointers reaches the
    child of this node it hangs under.  Targets sharing a child are batched.
    """
    parent = pmap.routes[msg.path[0] if msg.path else node.irn_id]
    groups = {}
    for t in targets:
        nid = pmap.assignment[t]
        while parent[nid] != node.irn_id:
            nid = parent[nid]
        groups.setdefault(nid, set()).add(t)
    return [(nid, frozenset(groups[nid])) for nid in sorted(groups)]


def cell_covered(pmap: PartitionMap, q: Query, cell: tuple) -> bool:
    """True iff every form the cell can hold matches: each predicate is on a
    defining attribute, and the segment's lower cut is at or above its lo
    and its upper cut at or below its hi.  The first segment has no lower
    cut and the last no upper one."""
    for _, _, lo, hi, _, pos in query_intervals(q, pmap.cls):
        if pos is None:
            return False
        cuts, s = pmap.dim_cuts[pos], cell[pos]
        if s == 0 or cuts[s - 1] < lo:
            return False
        if hi is not None and (s == len(cuts) or cuts[s] > hi):
            return False
    return True


def handle_xfind(node: IRNNode, pmap: PartitionMap, msg: XFindMessage):
    """Serve the locally owned targets and split the rest over tree children.

    Returns (results message or None, list of forwarded messages).
    """
    assert node.irn_id not in msg.path, "xfind revisited a node"
    cls = pmap.cls
    local = msg.targets & node.owned
    results = None
    if local:
        if msg.action is Action.FIND:
            q, who, store, matched = msg.payload, msg.requester, node.store, []
            name, kind = cls.defining_attributes[0]
            lo, hi, hi_open = predicate_interval(q.predicate_for(name), kind)
            for cell in local:
                keys, covered = node.cells.get(cell, ()), cell_covered(pmap, q, cell)
                i = 0 if lo is None else bisect_left(keys, lo, key=itemgetter(0))
                j = len(keys) if hi is None else (bisect_left if hi_open else bisect_right)(
                    keys, hi, key=itemgetter(0))
                for key in keys[i:j]:
                    form = store[key]
                    if (covered or eval_query(q, form, cls)) and check_access(form, who, "view"):
                        matched.append(key)
            results = _results(node, msg, forms=tuple(store[k] for k in sorted(matched)))
        else:
            form = msg.payload
            cell = pmap.cell_of_iname(form.iname)
            if cell not in node.owned:
                raise WrongOwner(
                    f"{msg.action.value} for cell {cell} routed to node {node.irn_id}")
            key = iname_key(cls, form.iname)
            exists = key in node.store
            if msg.action is Action.REGISTER:
                if exists:
                    results = _results(node, msg, ack=False, detail="AlreadyExists")
                else:
                    node.store[key] = form
                    insort(node.cells.setdefault(cell, []), key)
                    results = _results(node, msg, ack=True, detail="Registered")
            elif msg.action is Action.MODIFY:
                if exists:
                    node.store[key] = form
                    results = _results(node, msg, ack=True, detail="Modified")
                else:
                    results = _results(node, msg, ack=False, detail="NotFound")
            else:  # DELETE
                if exists:
                    del node.store[key]
                    node.cells[cell].pop(bisect_left(node.cells[cell], key))
                    results = _results(node, msg, ack=True, detail="Deleted")
                else:
                    results = _results(node, msg, ack=False, detail="NotFound")
    forwards = []
    for nid, sub in next_hops(node, pmap, msg, msg.targets - node.owned):
        forwards.append((nid, replace(msg, targets=sub, path=msg.path + (node.irn_id,))))
    return results, forwards


def _results(node, msg, forms=(), ack=None, detail=""):
    return ResultsMessage(
        request_id=msg.request_id,
        responder=node.irn_id,
        entry=msg.path[0] if msg.path else node.irn_id,
        forms=forms,
        ack=ack,
        detail=detail,
    )


# --- request accounting at the issuing node ----------------------------------


@dataclass
class RequestState:
    request_id: int
    expected: frozenset          # node ids that must respond
    issued_at: int
    responded: set = field(default_factory=set)
    forms: list = field(default_factory=list)
    ack: Optional[bool] = None
    detail: str = ""
    status: str = "pending"      # pending | complete | timeout
    completed_at: Optional[int] = None
    deadline_handle: Optional[tuple] = None


class InfoNetwork:
    """One class's relay network wired to the event loop.

    Holds the partition map, the nodes, and the per-request accounting at
    issuing nodes.  All message passing goes through the shared loop, one
    event per inter-node transmission.
    """

    def __init__(self, cls: ObjectClass, cuts: SegmentCuts, irn_count: int,
                 loop: EventLoop, trace: Trace, metrics: Metrics,
                 latency: int = 1, deadline: int = 1000):
        self.cls = cls
        self.pmap, self.nodes = build_partition_map(cls, cuts, irn_count)
        self.loop = loop
        self.trace = trace
        self.metrics = metrics
        self.latency = latency
        self.deadline = deadline
        self.requests = {}
        self._next_request = 1

    # -- issuing --------------------------------------------------------------

    def issue_request(self, entry: int, action: Action, payload,
                      requester: Requester) -> int:
        """Validate, register expected-response accounting, send the xfind."""
        if not 0 <= entry < len(self.nodes):
            raise OonError(f"entry node {entry} outside 0..{len(self.nodes) - 1}")
        if action is Action.FIND:
            if not isinstance(payload, Query):
                raise InvalidPayload("find expects a query")
            targets = locate_partitions(self.pmap, payload)
        else:
            if not isinstance(payload, InformationalForm):
                raise InvalidPayload(f"{action.value} expects an informational form")
            violations = validate_form(payload, self.cls)
            if violations:
                raise InvalidPayload("; ".join(violations))
            targets = frozenset({self.pmap.cell_of_iname(payload.iname)})
        expected = frozenset(self.pmap.assignment[c] for c in targets)
        rid = self._next_request
        self._next_request += 1
        rec = RequestState(rid, expected, self.loop.now)
        self.requests[rid] = rec
        msg = XFindMessage(
            request_id=rid, action=action, payload=payload, requester=requester,
            targets=targets)
        self.metrics.sent["xfind"] += 1
        self.loop.post(0, self._on_xfind, self.nodes[entry], msg)
        rec.deadline_handle = self.loop.post(self.deadline, self._on_deadline, rid)
        return rid

    def request(self, rid: int) -> RequestState:
        if rid not in self.requests:
            raise UnknownRequest(f"request {rid}")
        return self.requests[rid]

    # -- node handlers --------------------------------------------------------

    def _on_xfind(self, node: IRNNode, msg: XFindMessage) -> None:
        self.trace.log(f"XFIND {msg.action.value} req={msg.request_id} "
                       f"at=irn{node.irn_id} targets={_fmt_cells(msg.targets)}")
        results, forwards = handle_xfind(node, self.pmap, msg)
        self.metrics.delivered["xfind"] += 1
        self.metrics.xfind_hops.append(len(msg.path))
        if results is not None:
            self.metrics.sent["results"] += 1
            self._on_results(node, results)
        for nid, fwd in forwards:
            self.metrics.sent["xfind"] += 1
            self.loop.post(self.latency, self._on_xfind, self.nodes[nid], fwd)

    def _on_results(self, node: IRNNode, rmsg: ResultsMessage) -> None:
        """Log a results message at a node, then pass it to the node's parent
        on the entry's tree, or deliver it at the entry."""
        self.trace.log(f"RESULTS req={rmsg.request_id} at=irn{node.irn_id} "
                       f"{_fmt_results(rmsg)}")
        parent = self.pmap.routes[rmsg.entry][node.irn_id]
        if parent is None:
            self.metrics.delivered["results"] += 1
            self.gather_results(rmsg)
        else:
            self.loop.post(self.latency, self._on_results, self.nodes[parent], rmsg)

    # -- origin-side accounting ----------------------------------------------

    def gather_results(self, rmsg: ResultsMessage) -> RequestState:
        """Fold one results message into its request; dedupes per responder."""
        rec = self.request(rmsg.request_id)
        if rmsg.responder in rec.responded:
            return rec
        rec.responded.add(rmsg.responder)
        rec.forms.extend(rmsg.forms)
        if rmsg.ack is not None:
            rec.ack = rmsg.ack
            rec.detail = rmsg.detail
        if rec.status == "pending" and rec.responded >= rec.expected:
            rec.status = "complete"
            rec.completed_at = self.loop.now
            self.loop.cancel(rec.deadline_handle)
        return rec

    def _on_deadline(self, rid: int) -> None:
        rec = self.requests.get(rid)
        if rec is not None and rec.status == "pending":
            rec.status = "timeout"
            rec.completed_at = self.loop.now

    # -- inspection -----------------------------------------------------------

    def all_forms(self) -> list:
        return [node.store[key] for node in self.nodes for key in sorted(node.store)]

    def store_sizes(self) -> list:
        return [len(n.store) for n in self.nodes]


def _fmt_cells(cells) -> str:
    return "|".join("(" + ",".join(str(x) for x in c) + ")" for c in sorted(cells))


def _fmt_results(rmsg: ResultsMessage) -> str:
    if rmsg.ack is None:
        return f"forms={len(rmsg.forms)}"
    return f"ack={'yes' if rmsg.ack else 'no'} detail={rmsg.detail}"
