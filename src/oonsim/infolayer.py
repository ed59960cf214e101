"""Discovery network of Information Relay Nodes.

The per-class multi-attribute namespace is cut into lexicographic
segments per dimension; the resulting grid cells are assigned round-robin
to relay nodes.  A request (xFind) travels down its entry node's
breadth-first tree of the relay nodes, computed from nothing but the static
partition map, so each node serves it at most once; a hop is one lookup per
target, in the tree's next-hop table.  Responses (Results) climb the tree's
parent pointers back to the entry node.  No routing state is ever exchanged
between nodes.  A node's cells are its only store, each keeping its forms
in key order, so a find reads only its target cells, in coordinate order.
A cell that lies wholly inside the query is covered: all its forms match;
elsewhere a find bisects on the first dimension and filters that slice with
``match_slice``, one comprehension per predicate.  Only a cell that holds a
form with a restricted view rule checks access.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional

from .model import (
    InformationalForm,
    ObjectClass,
    OonError,
    Query,
    eval_query,  # noqa: F401 -- unused here; bench/layers.py wraps this name
    iname_key,
    match_slice,
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

    per_attribute: dict  # attribute -> boundary keys, as the caller gave them


@dataclass(frozen=True)
class Requester:
    """Summary of the requesting object carried on every request."""

    class_name: str


@dataclass
class Cell:
    keys: list = field(default_factory=list)      # sorted normalized keys
    forms: list = field(default_factory=list)     # forms[i] is stored under keys[i]
    restricted: int = 0                           # forms whose view rule is not allow_all


def _restricted(form: Optional[InformationalForm]) -> bool:
    return form is not None and form.policy.view_rule.kind != "allow_all"


@dataclass
class IRNNode:
    irn_id: int
    cells: dict = field(default_factory=dict)        # owned coordinate -> Cell; the only store

    @property
    def owned(self):
        """The grid coordinates this node owns, as a set-like view."""
        return self.cells.keys()

    @property
    def store(self) -> dict:
        """Normalized key -> form over every cell, built when read."""
        return {k: f for cell in self.cells.values() for k, f in zip(cell.keys, cell.forms)}


class Tree(dict):
    """One entry's breadth-first tree: node id -> its parent, None at the entry.
    below[node] maps every node under it to its child toward that node; built
    at first use, as all entries' tables on an n-node line hold n**3 / 3 pairs."""

    @cached_property
    def below(self) -> dict:
        below = {nid: {} for nid in self}
        for owner, nid in self.items():
            child = owner
            while nid is not None:
                below[nid][owner] = child
                child, nid = nid, self[nid]
        return below


@dataclass
class PartitionMap:
    """Static cell-to-node assignment over the segment grid of one class."""

    cls: ObjectClass
    dim_cuts: tuple     # per defining attribute, sorted boundary keys
    dims: tuple         # per-attribute segment counts
    assignment: dict    # coordinate -> node id
    routes: dict        # entry node id -> its Tree: node id -> parent; .below: next hops
    labels: dict        # coordinate -> its trace text, "(i,j)"

    def cell_of_key(self, key: tuple) -> tuple:
        return tuple(map(bisect_right, self.dim_cuts, key))

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
        c = tuple(cuts.per_attribute.get(name, ()))
        if any(a >= b for a, b in zip(c, c[1:])):
            raise InvalidCuts(f"boundaries for {name!r} not strictly increasing")
        dim_cuts.append(c)
    for name in cuts.per_attribute:
        if name not in cls.defining_names:
            raise InvalidCuts(f"{name!r} is not a defining attribute of {cls.class_name!r}")
    dims = tuple(len(c) + 1 for c in dim_cuts)

    assignment = {coord: idx % irn_count
                  for idx, coord in enumerate(itertools.product(*map(range, dims)))}
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
        parent, order = Tree({entry: None}), [entry]
        for nid in order:  # breadth-first: order grows while it is walked
            for other in sorted(adjacent[nid]):
                if other not in parent:
                    parent[other] = nid
                    order.append(other)
        routes[entry] = parent
    labels = {c: "(" + ",".join(map(str, c)) + ")" for c in assignment}
    pmap = PartitionMap(cls, tuple(dim_cuts), dims, assignment, routes, labels)

    nodes = [IRNNode(i) for i in range(irn_count)]
    for coord, nid in assignment.items():
        nodes[nid].cells[coord] = Cell()
    return pmap, nodes


def defining_bounds(q: Query, cls: ObjectClass) -> tuple:
    """Per defining attribute, the (lo, hi, hi_open) key interval of the
    query's first predicate on it; (None, None, False) when it has none.
    Kept on the immutable query, as its intervals are."""
    cached = q.__dict__.get("_bounds")
    if cached is None or cached[0] is not cls:
        bounds = [(None, None, False)] * len(cls.defining_attributes)
        for _, _, lo, hi, hi_open, pos in reversed(query_intervals(q, cls)):
            if pos is not None:
                bounds[pos] = (lo, hi, hi_open)
        cached = q.__dict__["_bounds"] = (cls, tuple(bounds))
    return cached[1]


def locate_partitions(pmap: PartitionMap, q: Query) -> frozenset:
    """The cells whose segments intersect the query's key intervals.

    Every interval is closed below, so a validated query locates at least
    one cell: every cut at or below its lower bound lies below its upper.
    """
    validate_query(q, pmap.cls)
    per_dim = []
    for (lo, hi, hi_open), cuts in zip(defining_bounds(q, pmap.cls), pmap.dim_cuts):
        i_lo = 0 if lo is None else bisect_right(cuts, lo)
        if hi is None:
            i_hi = len(cuts)
        else:
            i_hi = (bisect_left if hi_open else bisect_right)(cuts, hi)
        per_dim.append(range(i_lo, i_hi + 1))
    return frozenset(itertools.product(*per_dim))


# --- messages ----------------------------------------------------------------


class XFindMessage(NamedTuple):
    request_id: int
    action: Action
    payload: object              # Query for FIND, InformationalForm otherwise
    requester: Requester
    targets: frozenset           # grid coordinates still to serve
    path: tuple = ()             # node ids visited before the current one


class ResultsMessage(NamedTuple):
    request_id: int
    responder: int
    entry: int                   # the request's entry node, whose tree it climbs
    forms: tuple = ()
    ack: Optional[bool] = None
    detail: str = ""
    tail: str = ""               # its trace line after the node, made once by _results


def check_access(form: InformationalForm, requester: Requester) -> bool:
    """Evaluate the form's own view rule against the requester's class."""
    return form.policy.view_rule.allows(requester.class_name)


def next_hops(node: IRNNode, pmap: PartitionMap, msg: XFindMessage, targets) -> list:
    """Split the non-local targets by the next node on the entry's tree.

    The entry is the first node on the request's path, or this node when
    the path is empty.  Each target's owner lies below this node on the
    entry's tree, so one lookup in the tree's next-hop table gives the
    child of this node it hangs under.  Targets sharing a child are batched.
    """
    child = pmap.routes[msg.path[0] if msg.path else node.irn_id].below[node.irn_id]
    owner = pmap.assignment
    if len(targets) == 1:  # every write, and many find leaves
        t, = targets
        return [(child[owner[t]], frozenset(targets))]
    groups = {}
    for t in targets:
        groups.setdefault(child[owner[t]], set()).add(t)
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
    local = msg.targets.intersection(node.cells)
    results = None
    if local:
        if msg.action is Action.FIND:
            q, who, matched = msg.payload, msg.requester, []
            lo, hi, hi_open = defining_bounds(q, cls)[0]
            upper = bisect_left if hi_open else bisect_right
            for coord in sorted(local):
                cell = node.cells[coord]
                if cell_covered(pmap, q, coord):
                    forms = cell.forms
                else:
                    i = 0 if lo is None else bisect_left(cell.keys, lo, key=itemgetter(0))
                    j = len(cell.keys) if hi is None else upper(cell.keys, hi, key=itemgetter(0))
                    forms = match_slice(q, cls, cell.keys[i:j], cell.forms[i:j])
                matched.extend([f for f in forms if check_access(f, who)]
                               if cell.restricted else forms)
            results = _results(node, msg, forms=tuple(matched))
        else:
            form = msg.payload
            key = iname_key(cls, form.iname)
            coord = pmap.cell_of_key(key)
            cell = node.cells.get(coord)
            if cell is None:
                raise WrongOwner(
                    f"{msg.action.value} for cell {coord} routed to node {node.irn_id}")
            i = bisect_left(cell.keys, key)
            old = cell.forms[i] if cell.keys[i:i + 1] == [key] else None
            if msg.action is Action.REGISTER and old is not None:
                results = _results(node, msg, ack=False, detail="AlreadyExists")
            elif msg.action is not Action.REGISTER and old is None:
                results = _results(node, msg, ack=False, detail="NotFound")
            else:
                if msg.action is Action.REGISTER:
                    cell.keys.insert(i, key)
                    cell.forms.insert(i, form)
                    detail = "Registered"
                elif msg.action is Action.MODIFY:
                    cell.forms[i], detail = form, "Modified"
                else:  # DELETE
                    del cell.keys[i], cell.forms[i]
                    form, detail = None, "Deleted"
                cell.restricted += _restricted(form) - _restricted(old)
                results = _results(node, msg, ack=True, detail=detail)
    rest = msg.targets.difference(node.cells)
    if not rest:  # a write's owner, or a leaf of a find
        return results, []
    path = msg.path + (node.irn_id,)
    forwards = [(nid, XFindMessage(msg.request_id, msg.action, msg.payload, msg.requester,
                                   sub, path))
                for nid, sub in next_hops(node, pmap, msg, rest)]
    return results, forwards


def _results(node, msg, forms=(), ack=None, detail=""):
    tail = (f"forms={len(forms)}" if ack is None else
            f"ack={'yes' if ack else 'no'} detail={detail}")
    return ResultsMessage(msg.request_id, node.irn_id, msg.path[0] if msg.path else node.irn_id,
                          forms, ack, detail, tail)


# --- request accounting at the issuing node ----------------------------------


@dataclass
class RequestState:
    expected: frozenset          # node ids that must respond
    issued_at: int
    responded: set = field(default_factory=set)
    forms: list = field(default_factory=list)
    ack: Optional[bool] = None
    detail: str = ""
    status: str = "pending"      # pending | complete | timeout
    completed_at: Optional[int] = None


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
            expected = frozenset(map(self.pmap.assignment.__getitem__, targets))
        else:
            if not isinstance(payload, InformationalForm):
                raise InvalidPayload(f"{action.value} expects an informational form")
            violations = validate_form(payload, self.cls)
            if violations:
                raise InvalidPayload("; ".join(violations))
            coord = self.pmap.cell_of_iname(payload.iname)
            targets, expected = frozenset((coord,)), frozenset((self.pmap.assignment[coord],))
        rid = self._next_request
        self._next_request += 1
        self.requests[rid] = RequestState(expected, self.loop.now)
        msg = XFindMessage(
            request_id=rid, action=action, payload=payload, requester=requester,
            targets=targets)
        self.metrics.sent["xfind"] += 1
        self.loop.post(0, self._on_xfind, self.nodes[entry], msg)
        return rid

    def request(self, rid: int) -> RequestState:
        if rid not in self.requests:
            raise UnknownRequest(f"request {rid}")
        return self.requests[rid]

    # -- node handlers --------------------------------------------------------

    def _on_xfind(self, node: IRNNode, msg: XFindMessage) -> None:
        targets = msg.targets if len(msg.targets) == 1 else sorted(msg.targets)
        self.trace.log(f"XFIND {msg.action.value} req={msg.request_id} at=irn{node.irn_id} "
                       f"targets={'|'.join(map(self.pmap.labels.__getitem__, targets))}")
        results, forwards = handle_xfind(node, self.pmap, msg)
        self.metrics.delivered["xfind"] += 1
        self.metrics.xfind_hops[len(msg.path)] += 1
        if results is not None:
            self.metrics.sent["results"] += 1
            self._on_results(node, results)
        for nid, fwd in forwards:
            self.metrics.sent["xfind"] += 1
            self.loop.post(self.latency, self._on_xfind, self.nodes[nid], fwd)

    def _on_results(self, node: IRNNode, rmsg: ResultsMessage) -> None:
        """Log a results message at a node, then pass it to the node's parent
        on the entry's tree, or deliver it at the entry."""
        self.trace.log(f"RESULTS req={rmsg.request_id} at=irn{node.irn_id} {rmsg.tail}")
        parent = self.pmap.routes[rmsg.entry][node.irn_id]
        if parent is None:
            self.metrics.delivered["results"] += 1
            self.gather_results(rmsg)
        else:
            self.loop.post(self.latency, self._on_results, self.nodes[parent], rmsg)

    # -- origin-side accounting ----------------------------------------------

    def gather_results(self, rmsg: ResultsMessage) -> None:
        """Fold one results message into its request; dedupes per responder.

        No message is ever lost, so the request settles when its last
        expected response arrives, and completed_at is that tick: complete
        when it is before the deadline, else timeout.  A response from the
        entry alone arrives while the request is issued, so it is never late.
        """
        rec = self.request(rmsg.request_id)
        if rmsg.responder in rec.responded:
            return
        rec.responded.add(rmsg.responder)
        rec.forms.extend(rmsg.forms)
        if rmsg.ack is not None:
            rec.ack = rmsg.ack
            rec.detail = rmsg.detail
        if rec.status == "pending" and rec.responded >= rec.expected:
            rec.completed_at = now = self.loop.now
            late = now >= rec.issued_at + self.deadline and rec.expected != {rmsg.entry}
            rec.status = "timeout" if late else "complete"

    # -- inspection -----------------------------------------------------------

    def all_forms(self) -> list:
        """Every stored form, node by node, each node's in key order."""
        return [f for node in self.nodes
                for _, f in sorted(node.store.items(), key=itemgetter(0))]

    def store_sizes(self) -> list:
        return [len(n.store) for n in self.nodes]
