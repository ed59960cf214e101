"""Core object model: classes, informational forms, names, queries.

Everything here is a plain value type plus pure functions.  The ordering
semantics defined by :func:`normalize_value` are the foundation the
partitioned discovery layer builds on: every attribute value maps to a
string key such that plain lexicographic comparison of keys equals the
intended value order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union

U64_MAX = 2**64 - 1
INT_KEY_WIDTH = 20

# Auto-added to every class: push, pull and consume data.
GENERIC_METHODS = ("SendDataTo", "GetDataFrom", "SinkDataFrom")

_MAX_CHAR = chr(0x10FFFF)

Value = Union[str, int]


class OonError(Exception):
    """Base class for all library errors."""


class IntegerOutOfRange(OonError):
    pass


class EmptyText(OonError):
    pass


class UnknownClass(OonError):
    pass


class ClassMismatch(OonError):
    pass


class UnknownAttribute(OonError):
    pass


class InvalidRange(OonError):
    pass


class KindMismatch(OonError):
    """A value whose type is not its attribute's kind."""


class AttributeKind(Enum):
    TEXT = "text"
    INTEGER = "integer"


def normalize_value(raw: Value, kind: AttributeKind) -> str:
    """Map a value to its ordered key.

    Text is case-folded; integers become fixed-width zero-padded decimals,
    so byte comparison of keys equals numeric comparison.
    """
    if kind is AttributeKind.TEXT:
        if not isinstance(raw, str):
            raise KindMismatch(f"text attribute expects str, got {type(raw).__name__}")
        if not raw:
            raise EmptyText("empty text value")
        return raw.casefold()
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise KindMismatch(f"integer attribute expects int, got {type(raw).__name__}")
    if raw < 0 or raw > U64_MAX:
        raise IntegerOutOfRange(f"{raw} outside [0, 2^64-1]")
    return f"{raw:0{INT_KEY_WIDTH}d}"


@dataclass(frozen=True)
class ObjectClass:
    """Schema of an object class.

    The defining attributes are the dimensions of the discovery namespace;
    an object's informational name is its vector of defining-attribute
    values in schema order.
    """

    class_name: str
    defining_attributes: tuple = ()
    extra_description_attributes: tuple = ()
    methods: tuple = ()

    def __post_init__(self):
        defining = tuple((n, AttributeKind(k) if not isinstance(k, AttributeKind) else k)
                         for n, k in self.defining_attributes)
        extra = tuple((n, AttributeKind(k) if not isinstance(k, AttributeKind) else k)
                      for n, k in self.extra_description_attributes)
        if not defining:
            raise ValueError(f"class {self.class_name!r} has no defining attributes")
        names = [n for n, _ in defining + extra]
        if len(names) != len(set(names)):
            raise ValueError(f"class {self.class_name!r} has duplicate attribute names")
        methods = list(self.methods)
        for m in GENERIC_METHODS:
            if m not in methods:
                methods.append(m)
        if len(methods) != len(set(methods)):
            raise ValueError(f"class {self.class_name!r} has duplicate method names")
        object.__setattr__(self, "defining_attributes", defining)
        object.__setattr__(self, "extra_description_attributes", extra)
        object.__setattr__(self, "methods", tuple(methods))
        # derived once; not fields, so equality, hash and repr ignore them
        object.__setattr__(self, "defining_names", tuple(n for n, _ in defining))
        object.__setattr__(self, "_kinds", dict(defining + extra))

    def kind_of(self, attribute: str) -> AttributeKind:
        kind = self._kinds.get(attribute)
        if kind is None:
            raise UnknownAttribute(f"{attribute!r} not declared by class {self.class_name!r}")
        return kind

    def declares(self, attribute: str) -> bool:
        return attribute in self._kinds


@dataclass(frozen=True)
class IName:
    """Informational name: class plus defining-attribute values in order."""

    class_name: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


class PName(NamedTuple):
    """Fixed-size two-component routing identifier of a physical form.

    Opaque integers only: no location or technology semantics.  A tuple
    that equals and hashes like ``(global_id, local_id)``.
    """

    global_id: int
    local_id: int


def _checked_pname(cls, global_id: int, local_id: int) -> PName:
    for part, name in ((global_id, "global_id"), (local_id, "local_id")):
        if not 0 <= part <= U64_MAX:
            raise IntegerOutOfRange(f"{name} {part} outside [0, 2^64-1]")
    return tuple.__new__(cls, (global_id, local_id))


# A NamedTuple body may not define __new__; the stock _make (and _replace) skips it.
PName.__new__ = staticmethod(_checked_pname)
PName._make = classmethod(lambda cls, parts: cls(*parts))


def format_pname(p: PName) -> str:
    return f"pn:{p.global_id:016x}/{p.local_id:016x}"


# --- access policies ---------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    kind: str  # allow_all | deny_all | allow_classes
    classes: tuple = ()

    def allows(self, requester_class: Optional[str]) -> bool:
        if self.kind == "allow_all":
            return True
        if self.kind == "deny_all":
            return False
        return requester_class in self.classes


ALLOW_ALL = Rule("allow_all")
DENY_ALL = Rule("deny_all")


def allow_classes(*names: str) -> Rule:
    return Rule("allow_classes", tuple(names))


@dataclass(frozen=True)
class AccessPolicy:
    view_rule: Rule = ALLOW_ALL
    exchange_rule: Rule = ALLOW_ALL


OPEN_POLICY = AccessPolicy()


# --- informational forms -----------------------------------------------------


@dataclass
class InformationalForm:
    """Class-instantiated view of an object.

    Description attributes carry the characteristics (including the
    defining attributes), the relationship list points to the physical
    forms, and the methods are the object's advertised interface.
    """

    iname: IName
    description: dict
    relationship: list = field(default_factory=list)
    methods: tuple = ()
    policy: AccessPolicy = OPEN_POLICY


def validate_form(form: InformationalForm, cls: ObjectClass) -> list:
    """Check a form against its class schema; returns the list of violations."""
    if form.iname.class_name != cls.class_name:
        raise UnknownClass(
            f"form class {form.iname.class_name!r} is not {cls.class_name!r}")
    violations = []
    if len(form.iname.values) != len(cls.defining_attributes):
        violations.append(
            f"iname arity {len(form.iname.values)} != {len(cls.defining_attributes)}")
    for i, (name, kind) in enumerate(cls.defining_attributes):
        if name not in form.description:
            violations.append(f"missing defining attribute {name!r}")
            continue
        value = form.description[name]
        try:
            normalize_value(value, kind)
        except OonError:
            violations.append(f"kind mismatch for {name!r}")
            continue
        if i < len(form.iname.values) and form.iname.values[i] != value:
            violations.append(f"iname/description mismatch for {name!r}")
    for name, kind in cls.extra_description_attributes:
        if name in form.description:
            try:
                normalize_value(form.description[name], kind)
            except OonError:
                violations.append(f"kind mismatch for {name!r}")
    for name in form.description:
        if not cls.declares(name):
            violations.append(f"undeclared attribute {name!r}")
    return violations


def iname_key(cls: ObjectClass, iname: IName) -> tuple:
    """Normalized key vector of an informational name; store/lookup identity.
    Kept on the immutable name after its first computation for a class."""
    cached = iname.__dict__.get("_key")
    if cached is None or cached[0] is not cls:
        cached = iname.__dict__["_key"] = (cls, tuple(
            normalize_value(v, k) for v, (_, k) in zip(iname.values, cls.defining_attributes)))
    return cached[1]


def make_form(cls: ObjectClass, values: dict, policy: AccessPolicy = OPEN_POLICY,
              relationship=()) -> InformationalForm:
    """Build a form from raw attribute values; convenience constructor."""
    iname = IName(cls.class_name, tuple(values[n] for n in cls.defining_names))
    return InformationalForm(
        iname=iname,
        description=dict(values),
        relationship=list(relationship),
        methods=cls.methods,
        policy=policy,
    )


# --- queries -----------------------------------------------------------------


@dataclass(frozen=True)
class Eq:
    value: Value


@dataclass(frozen=True)
class Prefix:
    text: str


@dataclass(frozen=True)
class Range:
    lo: Value
    hi: Value


@dataclass(frozen=True)
class AnyValue:
    pass


ANY = AnyValue()

Predicate = Union[Eq, Prefix, Range, AnyValue]


@dataclass(frozen=True)
class Query:
    """Partially defined informational form: per-attribute predicates,
    conjunction across attributes; an absent attribute means any value."""

    class_name: str
    predicates: tuple  # tuple of (attribute, Predicate)

    def __post_init__(self):
        preds = self.predicates
        if isinstance(preds, dict):
            preds = tuple(preds.items())
        object.__setattr__(self, "predicates", tuple(preds))


def validate_query(q: Query, cls: ObjectClass) -> None:
    """Raise unless every predicate names a declared attribute, has a value
    of the attribute's kind and, for a range, has lo <= hi."""
    if q.class_name != cls.class_name:
        raise ClassMismatch(f"query class {q.class_name!r} is not {cls.class_name!r}")
    for name, _, lo, hi, _, _ in query_intervals(q, cls):
        if hi is not None and lo > hi:
            raise InvalidRange(f"range on {name!r} has lo > hi")


def eval_query(q: Query, form: InformationalForm, cls: ObjectClass) -> bool:
    """True iff the form matches the query: :func:`match_slice` of one form,
    after checking that the query and the form are of the class."""
    if q.class_name != cls.class_name or form.iname.class_name != cls.class_name:
        raise ClassMismatch(
            f"query class {q.class_name!r} vs form class {form.iname.class_name!r}")
    return bool(match_slice(q, cls, (iname_key(cls, form.iname),), (form,)))


def match_slice(q: Query, cls: ObjectClass, keys, forms) -> list:
    """The forms whose values lie in every non-ANY predicate's interval, in
    their order; keys[i] is forms[i]'s normalized defining key, which a
    valid form's description matches.  Each predicate narrows the surviving
    indices with one comprehension; an absent value satisfies nothing but ANY."""
    live = range(len(forms))
    for name, kind, lo, hi, hi_open, pos in query_intervals(q, cls):
        col = keys
        if pos is None:  # index -> (normalized value,) of the forms that have one
            live = col = {i: (normalize_value(raw, kind),) for i in live
                          if (raw := forms[i].description.get(name)) is not None}
            pos = 0
        if hi is None:
            live = [i for i in live if col[i][pos] >= lo]
        elif hi_open:
            live = [i for i in live if lo <= col[i][pos] < hi]
        else:
            live = [i for i in live if lo <= col[i][pos] <= hi]
    return [forms[i] for i in live]


def query_intervals(q: Query, cls: ObjectClass) -> tuple:
    """(attribute, kind, lo, hi, hi_open, pos) per non-ANY predicate, where
    pos is the attribute's index among the defining ones, or None.

    Built on a query's first validation or match against a class and kept
    on the immutable query, so every slice a find matches reuses them.
    """
    cached = q.__dict__.get("_intervals")
    if cached is None or cached[0] is not cls:
        rows, defining = [], cls.defining_names
        for name, pred in q.predicates:
            kind = cls.kind_of(name)
            if not isinstance(pred, AnyValue):
                pos = defining.index(name) if name in defining else None
                rows.append((name, kind) + predicate_interval(pred, kind) + (pos,))
        cached = q.__dict__["_intervals"] = (cls, tuple(rows))
    return cached[1]


def _increment_key(key: str) -> Optional[str]:
    """Smallest string strictly greater than every string with prefix `key`."""
    while key and key[-1] == _MAX_CHAR:
        key = key[:-1]
    if not key:
        return None
    return key[:-1] + chr(ord(key[-1]) + 1)


def predicate_interval(pred: Predicate, kind: AttributeKind):
    """Exact key interval of a predicate: (lo, hi, hi_open).

    A normalized key satisfies the predicate iff it lies in the interval,
    which is closed below; None bounds are unbounded, and only ANY has no
    lower bound.  This is the one definition of what Eq, Prefix and Range
    mean, shared by matching and location.
    """
    if isinstance(pred, AnyValue):
        return (None, None, False)
    if isinstance(pred, Eq):
        k = normalize_value(pred.value, kind)
        return (k, k, False)
    if isinstance(pred, Prefix):
        if not isinstance(pred.text, str):
            raise KindMismatch(f"prefix expects str, got {type(pred.text).__name__}")
        p = pred.text.casefold()
        return (p, _increment_key(p), True)
    if isinstance(pred, Range):
        return (normalize_value(pred.lo, kind), normalize_value(pred.hi, kind), False)
    raise TypeError(f"unknown predicate {pred!r}")
