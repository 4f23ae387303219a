"""The Scout path architecture: the paper's primary contribution.

This package implements Sections 2 and 3 of *Making Paths Explicit in the
Scout Operating System*: routers and services, the spec-file configuration
language, the router graph with its initialization partial order, path
objects built from stages and chained interfaces, four-phase path creation
with transformation rules, and incremental packet classification.
"""

from .attributes import (
    PA_AVG_PROC_TIME,
    PA_AVG_RTT,
    PA_BATCH,
    PA_FRAME_RATE,
    PA_INQ_LEN,
    PA_MEM_BUDGET,
    PA_NET_PARTICIPANTS,
    PA_OUTQ_LEN,
    PA_PATHNAME,
    PA_PROTID,
    PA_SCHED_POLICY,
    PA_SCHED_PRIORITY,
    PA_SPECIALIZE,
    PA_TRACE,
    Attrs,
    as_attrs,
)
from .classify import (
    SOURCE_CACHE,
    SOURCE_DEMUX,
    SOURCE_GROUP,
    ClassifierStats,
    ClassifyResult,
    classify,
    classify_batch,
    classify_ex,
    classify_or_raise,
)
from .errors import (
    AdmissionError,
    ClassificationError,
    ConfigurationError,
    CyclicDependencyError,
    PathCreationError,
    PathStateError,
    QueueFullError,
    RoutingError,
    ScoutError,
    ServiceTypeError,
    SpecSyntaxError,
)
from .flowcache import FlowCache, flow_key, flow_key_frame
from .graph import RouterGraph, RouterRegistry, build_graph, register_router
from .interfaces import (
    FsIface,
    Iface,
    NetIface,
    NsIface,
    RtNetIface,
    ServiceType,
    WinIface,
    iface_satisfies,
)
from .message import Msg, MsgBatch
from .path import CREATING, DELETED, ESTABLISHED, Path, PathStats
from .path_create import MAX_PATH_LENGTH, path_create, path_delete
from .queues import (
    BWD_IN,
    BWD_OUT,
    FWD_IN,
    FWD_OUT,
    DeadlineOrderedQueue,
    LifoPathQueue,
    PathQueue,
)
from .router import DemuxResult, NextHop, Router, RouterLink, Service, ServiceDecl, connect
from .spec import Connection, RouterSpec, SpecFile, format_spec, parse_spec
from .stage import (
    BWD,
    FWD,
    Stage,
    forward,
    opposite,
    turn_around,
)
from .transform import TransformRegistry, TransformRule, all_of, has_attr, traverses

__all__ = [
    "Attrs", "as_attrs",
    "PA_NET_PARTICIPANTS", "PA_PATHNAME", "PA_PROTID", "PA_SCHED_POLICY",
    "PA_SCHED_PRIORITY", "PA_FRAME_RATE", "PA_INQ_LEN", "PA_OUTQ_LEN",
    "PA_MEM_BUDGET", "PA_AVG_PROC_TIME", "PA_AVG_RTT", "PA_TRACE",
    "PA_BATCH", "PA_SPECIALIZE",
    "Msg", "MsgBatch",
    "Iface", "NetIface", "RtNetIface", "NsIface", "WinIface", "FsIface",
    "ServiceType", "iface_satisfies",
    "Router", "Service", "ServiceDecl", "RouterLink", "NextHop",
    "DemuxResult", "connect",
    "RouterGraph", "RouterRegistry", "build_graph", "register_router",
    "SpecFile", "RouterSpec", "Connection", "parse_spec", "format_spec",
    "Stage", "FWD", "BWD", "opposite", "forward", "turn_around",
    "Path", "PathStats", "CREATING", "ESTABLISHED", "DELETED",
    "path_create", "path_delete", "MAX_PATH_LENGTH",
    "PathQueue", "LifoPathQueue", "DeadlineOrderedQueue",
    "FWD_IN", "FWD_OUT", "BWD_IN", "BWD_OUT",
    "TransformRegistry", "TransformRule", "traverses", "has_attr", "all_of",
    "classify", "classify_ex", "classify_batch", "classify_or_raise",
    "ClassifierStats", "ClassifyResult",
    "SOURCE_DEMUX", "SOURCE_CACHE", "SOURCE_GROUP",
    "FlowCache", "flow_key", "flow_key_frame",
    "ScoutError", "ConfigurationError", "CyclicDependencyError",
    "ServiceTypeError", "SpecSyntaxError", "PathCreationError",
    "RoutingError", "ClassificationError", "PathStateError",
    "QueueFullError", "AdmissionError",
]
