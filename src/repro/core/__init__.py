"""Core of the reproduction: the paper's contribution.

Operations (Section 3.2), the happens-before relation (Section 3.3 and
Appendix A), the logical memory model (Section 4), the race detector
(Section 5.1), filters (Section 5.3), and race classification/harmfulness
(Sections 2 and 6).
"""

from .access import READ, WRITE, Access
from .atomicity import AtomicityChecker, AtomicityViolation, check_atomicity
from .detector import READ_WRITE, WRITE_WRITE, Race, RaceDetector
from .filters import (
    DEFAULT_FILTERS,
    FilterChain,
    form_race_filter,
    single_dispatch_filter,
)
from .full_detector import FullHistoryDetector
from .hb import HBGraph
from .locations import (
    ATTR_SLOT,
    CollectionLocation,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    Location,
    PropLocation,
    TimerSlotLocation,
    VarLocation,
    describe_key,
    id_key,
    location_family,
    node_key,
)
from .serialize import (
    LoadedTrace,
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    trace_from_dict,
    trace_to_dict,
)
from .operations import (
    CB,
    CBI,
    DISPATCH,
    ENV,
    EXE,
    PARSE,
    SEGMENT,
    Operation,
    OperationFactory,
)
from .report import (
    EVENT_DISPATCH,
    FUNCTION,
    HTML,
    RACE_TYPES,
    SINGLE_DISPATCH_EVENTS,
    VARIABLE,
    ClassifiedRace,
    HarmfulnessJudge,
    RaceReport,
    build_report,
    classify_race,
)
from .trace import Trace

__all__ = [
    "ATTR_SLOT",
    "Access",
    "AtomicityChecker",
    "AtomicityViolation",
    "CB",
    "CBI",
    "ClassifiedRace",
    "CollectionLocation",
    "DEFAULT_FILTERS",
    "DISPATCH",
    "DomPropLocation",
    "ENV",
    "EVENT_DISPATCH",
    "EXE",
    "FUNCTION",
    "FilterChain",
    "FullHistoryDetector",
    "HBGraph",
    "HTML",
    "HandlerLocation",
    "HarmfulnessJudge",
    "HElemLocation",
    "LoadedTrace",
    "Location",
    "Operation",
    "OperationFactory",
    "PARSE",
    "PropLocation",
    "RACE_TYPES",
    "READ",
    "READ_WRITE",
    "Race",
    "RaceDetector",
    "RaceReport",
    "SEGMENT",
    "SINGLE_DISPATCH_EVENTS",
    "TimerSlotLocation",
    "Trace",
    "VARIABLE",
    "VarLocation",
    "WRITE",
    "WRITE_WRITE",
    "build_report",
    "check_atomicity",
    "classify_race",
    "describe_key",
    "dump_trace",
    "dumps_trace",
    "form_race_filter",
    "id_key",
    "load_trace",
    "loads_trace",
    "location_family",
    "node_key",
    "single_dispatch_filter",
    "trace_from_dict",
    "trace_to_dict",
]
