"""Browser engine simulator.

A single-threaded browser over a virtual clock: incremental HTML parsing
interleaved with script execution, seeded-latency network fetches,
timers, event dispatch with operations and happens-before edges, and the
paper's automatic-exploration mode.
"""

from .clock import VirtualClock
from .dispatcher import Dispatcher, DispatchResult
from .enumerate import ScheduleEnumerator, ScheduleOutcome
from .event_loop import EventLoop, ScheduleDivergence, Task
from .exploration import AUTO_EVENTS, AutoExplorer
from .instrument import Monitor
from .network import FetchResult, NetworkSimulator
from .page import Browser, DocumentLoader, Page, PARSE_STEP_MS
from .scheduler import (
    AdversarialScheduler,
    DecisionScheduler,
    FifoScheduler,
    ScheduleTrace,
    Scheduler,
    SeededRandomScheduler,
    derive_page_seed,
    make_scheduler,
)
from .timers import TimerEntry, TimerRegistry
from .window import Window
from .xhr import XhrBinding, make_xhr_constructor

__all__ = [
    "AUTO_EVENTS",
    "AdversarialScheduler",
    "AutoExplorer",
    "Browser",
    "DecisionScheduler",
    "Dispatcher",
    "DispatchResult",
    "DocumentLoader",
    "EventLoop",
    "FetchResult",
    "FifoScheduler",
    "Monitor",
    "NetworkSimulator",
    "PARSE_STEP_MS",
    "Page",
    "ScheduleDivergence",
    "ScheduleEnumerator",
    "ScheduleOutcome",
    "ScheduleTrace",
    "Scheduler",
    "SeededRandomScheduler",
    "Task",
    "TimerEntry",
    "TimerRegistry",
    "VirtualClock",
    "Window",
    "XhrBinding",
    "derive_page_seed",
    "make_scheduler",
    "make_xhr_constructor",
]
