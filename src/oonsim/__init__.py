"""Deterministic simulator for object networking over two layers.

Objects live in two forms: a physical form routed on fixed-size
``<GlobalId/LocalId>`` names in the data layer, and an informational form
discovered by multi-attribute names over a lexicographically partitioned
grid of relay nodes in the information layer.
"""

from .model import (
    ANY,
    AccessPolicy,
    AttributeKind,
    Eq,
    IName,
    InformationalForm,
    ObjectClass,
    OPEN_POLICY,
    OonError,
    PName,
    Prefix,
    Query,
    Range,
    Rule,
    allow_classes,
    eval_query,
    format_pname,
    iname_key,
    make_form,
    normalize_value,
    validate_form,
)
from .naming import Authority, LocalAllocator
from .sim import EventLoop, Metrics, Trace
from .infolayer import (
    Action,
    InfoNetwork,
    Requester,
    SegmentCuts,
    build_partition_map,
    check_access,
    handle_xfind,
    locate_partitions,
    next_hops,
)
from .datalayer import (
    DataMessage,
    DataNetwork,
    ObjectHost,
    SessionTrace,
    dispatch,
    route_data,
    run_interactive,
    run_pull,
    run_push,
)
from .lifecycle import AuditReport, DiscoveryResult, ObjectSpec, World
from .scenario import (
    RunResult,
    Scenario,
    build_world,
    generate_workload,
    load_scenario,
    oracle_find,
    parse_query,
    parse_scenario,
    result_keys,
    run,
)

__version__ = "0.1.0"
