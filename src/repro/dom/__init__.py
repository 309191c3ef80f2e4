"""DOM substrate: nodes, elements, documents, event dispatch."""

from .document import Document, DomInstrumentation
from .element import (
    FORM_FIELD_TAGS,
    Element,
    ListenerEntry,
)
from .events import (
    AT_TARGET,
    BUBBLE,
    BUBBLING_EVENTS,
    CAPTURE,
    DEFAULT,
    Event,
    HandlerInvocation,
    default_action,
    plan_dispatch,
    propagation_path,
)
from .node import Node

__all__ = [
    "AT_TARGET",
    "BUBBLE",
    "BUBBLING_EVENTS",
    "CAPTURE",
    "DEFAULT",
    "Document",
    "DomInstrumentation",
    "Element",
    "Event",
    "FORM_FIELD_TAGS",
    "HandlerInvocation",
    "ListenerEntry",
    "Node",
    "default_action",
    "plan_dispatch",
    "propagation_path",
]
