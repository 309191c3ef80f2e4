"""Event dispatch as operations (paper, Sections 3.2-3.3 and Appendix A).

Every dispatch of an event ``e`` on a target ``T`` becomes:

* one **dispatch-root operation** — the browser-side act of firing the
  event.  It performs the ``Eloc`` read of the target's ``on<event>``
  attribute slot, which exists *even when no handler is installed*: that
  hidden read is one side of the Fig. 5 event-dispatch race.  The root also
  anchors the set-valued rules: ``dispi(e, T)``/``ld(T)``/``dcl(D)``
  always contain at least the root, so rules 1c, 5, 7, 11, 14 and 15 bite
  even for handler-less dispatches.
* one operation **per handler execution**, each reading its own ``Eloc``
  (target, event, handler) location.

Happens-before edges applied here:

* rule 8 — ``create(T) ≺`` every dispatch operation;
* rule 9 — all operations of dispatch *j* precede dispatch *i* for j < i;
* the root precedes its handler operations (the browser must initiate the
  dispatch; this edge is operational and noted in DESIGN.md);
* Appendix A phasing — two handler executions of the same dispatch are
  ordered iff their phase or current target differ (same-phase same-target
  listeners stay unordered, matching the paper's fewer-edges policy);
* Appendix A splitting — an *inline* dispatch (``el.click()`` from script)
  splits the interrupted operation ``A`` into ``A[0:k)`` (the original op)
  and ``A[k+1:)`` (a fresh SEGMENT operation), with
  ``A[0:k) ≺ B ≺ A[k+1:)`` for the dispatched set ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.operations import DISPATCH, SEGMENT
from ..core.hb import rules as R
from ..dom.document import Document
from ..dom.element import Element
from ..dom.events import (
    AT_TARGET,
    DEFAULT,
    Event,
    HandlerInvocation,
    default_action,
    plan_dispatch,
)


@dataclass
class DispatchResult:
    """Operations created by one event dispatch."""

    event: Event
    index: int
    root_op: int
    handler_ops: List[int] = field(default_factory=list)

    @property
    def all_ops(self) -> List[int]:
        """Root + handler operation ids, in execution order."""
        return [self.root_op] + self.handler_ops


def _target_key(target: Any):
    """Location identity of a dispatch target (element/document/window/xhr)."""
    key = getattr(target, "element_key", None)
    if key is not None:
        return key
    if isinstance(target, Document):
        return ("node", target.doc_id)
    raise TypeError(f"cannot dispatch on {target!r}")


def _unwrap(binding: Any) -> Any:
    """ElementBinding -> Element; other bindings pass through by identity
    of their underlying object where applicable."""
    element = getattr(binding, "element", None)
    if element is not None:
        return element
    document = getattr(binding, "document", None)
    if document is not None:
        return document
    window = getattr(binding, "window", None)
    if window is not None:
        return window
    return binding


def _describe_target(target: Any) -> str:
    if isinstance(target, Element):
        return f"<{target.tag}{'#' + target.element_id if target.element_id else ''}>"
    return type(target).__name__.replace("Binding", "").lower()


class Dispatcher:
    """Performs instrumented event dispatch for one page."""

    def __init__(self, page):
        self.page = page
        #: (target key, event type) -> list of per-dispatch op lists.
        self.history: Dict[Tuple[Any, str], List[List[int]]] = {}

    # ------------------------------------------------------------------

    def dispatch(
        self,
        event_type: str,
        target: Any,
        user: bool = False,
        extra_sources: Optional[List[Tuple[int, str]]] = None,
        pre_action: Optional[Callable[[], None]] = None,
        meta: Optional[dict] = None,
    ) -> DispatchResult:
        """Dispatch ``event_type`` on ``target`` as a non-inline event."""
        return self._dispatch(
            event_type,
            target,
            user=user,
            inline=False,
            extra_sources=extra_sources,
            pre_action=pre_action,
            meta=meta,
        )

    def inline_dispatch(self, event_type: str, target: Any) -> DispatchResult:
        """Programmatic dispatch from script (``el.click()``): split the
        current operation per Appendix A."""
        monitor = self.page.monitor
        interrupted = monitor.current
        if interrupted is None:
            # Inline dispatch outside any operation degenerates to normal.
            return self._dispatch(event_type, target, user=False, inline=True)
        result = self._dispatch(
            event_type,
            target,
            user=False,
            inline=True,
            extra_sources=[(interrupted.op_id, R.RULE_A_SPLIT_PRE)],
        )
        segment = monitor.new_operation(
            SEGMENT,
            label=f"{interrupted.label}[post-{event_type}]",
            meta=dict(interrupted.meta),
            parent=interrupted.op_id,
        )
        for op_id in result.all_ops:
            monitor.graph.add_edge(op_id, segment.op_id, R.RULE_A_SPLIT_POST)
        monitor.replace_current(segment)
        return result

    # ------------------------------------------------------------------

    def _dispatch(
        self,
        event_type: str,
        target: Any,
        user: bool,
        inline: bool,
        extra_sources: Optional[List[Tuple[int, str]]] = None,
        pre_action: Optional[Callable[[], None]] = None,
        meta: Optional[dict] = None,
    ) -> DispatchResult:
        with self.page.obs.span(
            "dispatch", cat="event", event=event_type, user=user, inline=inline
        ):
            return self._dispatch_timed(
                event_type, target, user, inline, extra_sources, pre_action, meta
            )

    def _dispatch_timed(
        self,
        event_type: str,
        target: Any,
        user: bool,
        inline: bool,
        extra_sources: Optional[List[Tuple[int, str]]] = None,
        pre_action: Optional[Callable[[], None]] = None,
        meta: Optional[dict] = None,
    ) -> DispatchResult:
        page = self.page
        monitor = page.monitor
        key = _target_key(target)
        history = self.history.setdefault((key, event_type), [])
        index = len(history)

        event = Event(type=event_type, target=target, is_inline=inline)
        if meta:
            event.meta.update(meta)

        # --- dispatch-root operation -------------------------------------
        root = monitor.new_operation(
            DISPATCH,
            label=f"disp{index}({event_type}, {_describe_target(target)})",
            meta={
                "event": event_type,
                "target_key": key,
                "dispatch_index": index,
                "user": user,
                "role": "root",
            },
        )
        graph = monitor.graph
        # Rule 8: the target must have been created first.
        create_op = monitor.create_op_of(target)
        if create_op is not None:
            graph.add_edge(create_op, root.op_id, R.RULE_8)
        # Rule 9: earlier dispatches of the same event precede this one.
        if history:
            for op_id in history[-1]:
                graph.add_edge(op_id, root.op_id, R.RULE_9)
        for src, rule in extra_sources or ():
            graph.add_edge(src, root.op_id, rule)

        monitor.begin_operation(root)
        try:
            # The browser reads the target's on<event> attribute slot to
            # find handlers — the hidden racing read of Fig. 5.
            monitor.handler_read(key, event_type)
            if pre_action is not None:
                pre_action()
        finally:
            monitor.end_operation(root)

        # --- handler operations -------------------------------------------
        invocations = self._plan(event, target)
        result = DispatchResult(event=event, index=index, root_op=root.op_id)
        executed: List[Tuple[int, str, Any]] = []  # (op_id, phase, current key)
        # One shared JS event object so stopPropagation/preventDefault
        # affect the remainder of this dispatch (DOM Level 3 semantics).
        event_binding = page.bindings.wrap_event(event)
        for invocation in invocations:
            if event_binding.immediate_stop:
                break
            if (
                event_binding.propagation_stopped
                and invocation.current_target is not _unwrap(event_binding.stopped_at)
            ):
                continue
            op = monitor.new_operation(
                DISPATCH,
                label=(
                    f"disp{index}({event_type}, {_describe_target(target)})"
                    f"@{invocation.phase}"
                ),
                meta={
                    "event": event_type,
                    "target_key": key,
                    "dispatch_index": index,
                    "user": user,
                    "phase": invocation.phase,
                    "role": "handler",
                },
            )
            graph.add_edge(root.op_id, op.op_id, R.RULE_A_PHASING)
            if create_op is not None:
                graph.add_edge(create_op, op.op_id, R.RULE_8)
            current_key = _target_key(invocation.current_target)
            # Appendix phasing: order against earlier handlers of this
            # dispatch when phase or current target differ.
            for earlier_op, earlier_phase, earlier_key in executed:
                if earlier_phase != invocation.phase or earlier_key != current_key:
                    graph.add_edge(earlier_op, op.op_id, R.RULE_A_PHASING)
            if history:
                for prev_op in history[-1]:
                    graph.add_edge(prev_op, op.op_id, R.RULE_9)
            executed.append((op.op_id, invocation.phase, current_key))
            result.handler_ops.append(op.op_id)

            monitor.begin_operation(op)
            try:
                # Executing handler h for event e at current target el reads
                # the Eloc (el, e, h) — Section 4.3.
                monitor.handler_read(current_key, event_type, invocation.handler_key)
                page.run_handler_value(
                    invocation.handler,
                    invocation.current_target,
                    event,
                    event_binding=event_binding,
                )
            finally:
                monitor.end_operation(op)

        # --- default action ------------------------------------------------
        source = default_action(event)
        if event_binding.default_prevented:
            source = None
        if source is not None:
            op = monitor.new_operation(
                DISPATCH,
                label=f"disp{index}({event_type}, {_describe_target(target)})@default",
                meta={
                    "event": event_type,
                    "target_key": key,
                    "dispatch_index": index,
                    "user": user,
                    "phase": DEFAULT,
                    "role": "default",
                },
            )
            graph.add_edge(root.op_id, op.op_id, R.RULE_A_PHASING)
            for earlier_op, _phase, _key in executed:
                graph.add_edge(earlier_op, op.op_id, R.RULE_A_PHASING)
            result.handler_ops.append(op.op_id)
            monitor.begin_operation(op)
            try:
                page.run_source_in_current_op(source, where="javascript: href")
            finally:
                monitor.end_operation(op)

        history.append(result.all_ops)
        return result

    # ------------------------------------------------------------------

    def _plan(self, event: Event, target: Any) -> List[HandlerInvocation]:
        if isinstance(target, Element):
            return plan_dispatch(event)
        # Document / Window / XHR: attr slot then listeners, at-target only.
        invocations: List[HandlerInvocation] = []
        attr_handlers = getattr(target, "attr_handlers", {})
        handler = attr_handlers.get(event.type)
        if handler is not None:
            invocations.append(
                HandlerInvocation(
                    event=event,
                    handler=handler,
                    current_target=target,
                    phase=AT_TARGET,
                    via="attr",
                    handler_key="<attr>",
                )
            )
        for entry in getattr(target, "listeners", {}).get(event.type, []):
            invocations.append(
                HandlerInvocation(
                    event=event,
                    handler=entry.handler,
                    current_target=target,
                    phase=AT_TARGET,
                    via="listener",
                    handler_key=entry.handler_key,
                )
            )
        return invocations

    def dispatch_count(self, target: Any, event_type: str) -> int:
        """How many times ``event_type`` has fired on ``target``."""
        return len(self.history.get((_target_key(target), event_type), ()))
