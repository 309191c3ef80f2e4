"""DOM event dispatch with capture / at-target / bubble / default phases.

Implements the event-firing sketch of the paper's Appendix A: the capturing
phase walks from the top of the tree down to the target running capture
listeners, the at-target phase runs the target's handlers, the bubbling
phase (for bubbling events) walks back up, and finally the default action
runs (e.g. following a ``javascript:`` href on a link).

The dispatcher is policy-free about *execution*: it yields
:class:`HandlerInvocation` records in order, and the browser layer runs
each one as its own operation, emits the ``Eloc`` reads of Section 4.3,
and applies the appendix's phasing happens-before edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .element import Element
from .node import Node

#: Phases, in dispatch order.
CAPTURE = "capture"
AT_TARGET = "at-target"
BUBBLE = "bubble"
DEFAULT = "default"

#: Events that propagate up the tree after the at-target phase.
BUBBLING_EVENTS = frozenset(
    [
        "click",
        "mousedown",
        "mouseup",
        "mousemove",
        "mouseover",
        "mouseout",
        "keydown",
        "keyup",
        "keypress",
        "input",
        "change",
        "focus",  # simplified: treated as bubbling so delegates fire
        "blur",
    ]
)


@dataclass
class Event:
    """A dispatched event instance."""

    type: str
    target: Any  # Element, Document, or Window
    bubbles: bool = False
    is_inline: bool = False  # fired programmatically from script?
    meta: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"Event({self.type!r} on {self.target!r})"


@dataclass
class HandlerInvocation:
    """One handler execution the dispatcher asks the browser to perform."""

    event: Event
    handler: Any
    current_target: Any
    phase: str
    #: "attr" for on<event> slots, "listener" for addEventListener entries.
    via: str
    handler_key: str


def propagation_path(target: Any) -> List[Any]:
    """Ancestor chain from the document/window end down to the target."""
    if isinstance(target, Element):
        chain: List[Any] = [target]
        node: Optional[Node] = target.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        window = getattr(chain[-1], "window", None)
        if window is not None:
            chain.append(window)
        chain.reverse()
        return chain
    return [target]


def _attr_invocation(event: Event, owner: Any, phase: str) -> Optional[HandlerInvocation]:
    handlers = getattr(owner, "attr_handlers", None)
    if not handlers:
        return None
    handler = handlers.get(event.type)
    if handler is None:
        return None
    return HandlerInvocation(
        event=event,
        handler=handler,
        current_target=owner,
        phase=phase,
        via="attr",
        handler_key="<attr>",
    )


def _listener_invocations(
    event: Event, owner: Any, phase: str, capture: bool
) -> List[HandlerInvocation]:
    listeners = getattr(owner, "listeners", None)
    if not listeners:
        return []
    entries = [
        entry
        for entry in listeners.get(event.type, [])
        if getattr(entry, "capture", False) == capture
    ]
    return [
        HandlerInvocation(
            event=event,
            handler=entry.handler,
            current_target=owner,
            phase=phase,
            via="listener",
            handler_key=entry.handler_key,
        )
        for entry in entries
    ]


def plan_dispatch(event: Event) -> List[HandlerInvocation]:
    """Compute the ordered handler executions for dispatching ``event``.

    Follows capture → at-target → bubble.  The default action is not a
    handler; the browser consults :func:`default_action` separately.
    """
    path = propagation_path(event.target)
    target = event.target
    invocations: List[HandlerInvocation] = []

    # Capturing phase: from the top towards (excluding) the target.
    for owner in path[:-1]:
        invocations.extend(_listener_invocations(event, owner, CAPTURE, capture=True))

    # At-target phase: attribute slot first (browsers run it first), then
    # listeners in registration order regardless of capture flag.
    attr = _attr_invocation(event, target, AT_TARGET)
    if attr is not None:
        invocations.append(attr)
    invocations.extend(_listener_invocations(event, target, AT_TARGET, capture=False))
    invocations.extend(_listener_invocations(event, target, AT_TARGET, capture=True))

    # Bubbling phase: from the parent back to the top.
    should_bubble = event.bubbles or event.type in BUBBLING_EVENTS
    if should_bubble:
        for owner in reversed(path[:-1]):
            attr = _attr_invocation(event, owner, BUBBLE)
            if attr is not None:
                invocations.append(attr)
            invocations.extend(
                _listener_invocations(event, owner, BUBBLE, capture=False)
            )
    return invocations


def default_action(event: Event) -> Optional[str]:
    """The default action for the event, as a ``javascript:`` source or None.

    Only one default action matters for the reproduction: clicking an
    ``<a href="javascript:...">`` runs the href's code (the paper's
    automatic exploration clicks exactly these links).
    """
    if event.type != "click":
        return None
    target = event.target
    if isinstance(target, Element) and target.tag == "a":
        href = target.get_attribute("href") or ""
        if href.startswith("javascript:"):
            return href[len("javascript:"):]
    return None
