"""Shared builders for the test suite."""

import pytest

from oonsim import (
    AttributeKind,
    DataNetwork,
    EventLoop,
    InfoNetwork,
    Metrics,
    ObjectClass,
    ObjectHost,
    SegmentCuts,
    Trace,
)

BOOK = ObjectClass(
    class_name="book",
    defining_attributes=(("title", AttributeKind.TEXT), ("author", AttributeKind.TEXT)),
    extra_description_attributes=(("pages", AttributeKind.INTEGER),),
)

PERSON = ObjectClass(
    class_name="person",
    defining_attributes=(("name", AttributeKind.TEXT),),
    methods=("Talking", "Listening"),
)


def make_sim():
    loop = EventLoop()
    return loop, Trace(loop), Metrics()


def make_info(cls=BOOK, cuts=None, irn_count=4, **kw):
    loop, trace, metrics = make_sim()
    if cuts is None:
        cuts = SegmentCuts({"title": ["n"], "author": ["n"]})
    elif not isinstance(cuts, SegmentCuts):
        cuts = SegmentCuts(cuts)
    return InfoNetwork(cls, cuts, irn_count, loop, trace, metrics, **kw)


def make_datanet(domains=("d1", "d2", "d3"), links=(("d1", "d2", 1), ("d2", "d3", 1))):
    loop, trace, metrics = make_sim()
    net = DataNetwork(loop, trace, metrics)
    for d in domains:
        net.add_domain(d)
    for a, b, latency in links:
        net.link(a, b, latency)
    return net
