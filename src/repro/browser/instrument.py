"""The monitor: WebRacer's instrumentation layer.

The paper instrumented ~30 WebKit source files so that HTML parsing, script
execution, event dispatch and DOM mutation all report to the race detector
(Section 5.2.1).  In this reproduction the equivalent surface area funnels
through one object, the :class:`Monitor`:

* it owns the execution :class:`~repro.core.trace.Trace` and the
  happens-before store (:class:`~repro.core.hb.graph.HBGraph`, whose edges
  the browser adds labelled with the paper's rules); a run only records
  them, and :attr:`Monitor.races` runs the race detector over the rows
  afterwards (the paper's tool detects during execution, Section 5.2.1;
  both report the same races, see :meth:`Monitor.races`);
* it tracks the *current operation* (operations are atomic; a stack is still
  needed because inline event dispatch nests handler execution inside a
  script — Appendix A);
* it maps the three instrumentation sources onto logical locations: it
  is the JS interpreter's :class:`~repro.js.interpreter.AccessHooks`
  (``JSVar``) and every Document's
  :class:`~repro.dom.document.DomInstrumentation` (``HElem``), and the
  bindings/dispatcher call it directly (``Eloc``, DOM-property writes).
  Being both sinks itself, it holds no adapter that points back at it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..core.access import READ, WRITE
from ..core.detector import Race, RaceDetector
from ..core.hb.backend import make_backend
from ..core.locations import (
    ATTR_SLOT,
    CollectionLocation,
    DomPropLocation,
    ElementKey,
    HandlerLocation,
    HElemLocation,
    PropLocation,
    TimerSlotLocation,
    VarLocation,
)
from ..core.operations import Operation
from ..core.trace import CALL, FUNCTION_DECL, LocationKey, Trace
from ..dom.document import Document, DomInstrumentation
from ..dom.element import Element
from ..dom.node import Node
from ..js.errors import ScriptCrash
from ..js.interpreter import AccessHooks
from ..obs import NULL


class Monitor(AccessHooks, DomInstrumentation):
    """Central instrumentation hub for one browser/page run."""

    def __init__(self, enabled: bool = True, obs=None):
        self.enabled = enabled
        self.obs = obs if obs is not None else NULL
        self.trace = Trace()
        self.graph = make_backend(obs=self.obs)
        #: Built by the first read of :attr:`races`; None until then, so a
        #: run nobody asks for races (a verifying replay) never detects.
        self.detector: Optional[RaceDetector] = None
        self._op_stack: List[Operation] = []
        #: Location ids read by each operation on the stack (parallel to
        #: ``_op_stack``), for read-before-write details.  A set goes when
        #: its operation ends: no operation runs again after it ends.
        self._read_sets: List[Set[int]] = []
        #: element node_id -> create(E) operation id (Section 3.2 create()).
        self.create_ops: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # operations

    def new_operation(self, kind: str, label: str = "", meta=None, parent=None) -> Operation:
        """Allocate an operation and register it in the HB graph."""
        operation = self.trace.operations.create(kind, label, meta, parent)
        self.graph.add_operation(operation.op_id)
        if self.obs.enabled:
            self.obs.count("op." + kind)
        return operation

    def begin_operation(self, operation: Operation) -> None:
        """Push an operation; subsequent accesses belong to it."""
        self._op_stack.append(operation)
        self._read_sets.append(set())

    def end_operation(self, operation: Operation) -> None:
        """Pop an operation (tolerating inline-dispatch segment swaps)."""
        if not self._op_stack:
            raise RuntimeError(f"operation stack empty while ending {operation}")
        top = self._op_stack[-1]
        # Inline dispatch may have split `operation` into segments; the top
        # is then the live segment whose parent chain leads back to it.
        if top is not operation and self._segment_root(top) is not operation:
            raise RuntimeError(
                f"operation stack mismatch: ending {operation}, stack top is {top}"
            )
        self._op_stack.pop()
        self._read_sets.pop()

    def _segment_root(self, operation: Operation) -> Operation:
        from ..core.operations import SEGMENT

        while operation.kind == SEGMENT and operation.parent is not None:
            operation = self.trace.operations.get(operation.parent)
        return operation

    @property
    def current(self) -> Optional[Operation]:
        """The operation currently executing (top of stack), or None."""
        return self._op_stack[-1] if self._op_stack else None

    def current_id(self) -> int:
        """Id of the current operation; raises outside any operation."""
        operation = self.current
        if operation is None:
            raise RuntimeError("memory access outside any operation")
        return operation.op_id

    def replace_current(self, operation: Operation) -> Operation:
        """Swap the top of the operation stack (inline-dispatch splitting)."""
        if not self._op_stack:
            raise RuntimeError("no current operation to replace")
        previous = self._op_stack[-1]
        self._op_stack[-1] = operation
        self._read_sets[-1] = set()
        return previous

    # ------------------------------------------------------------------
    # generic access recording

    def record(
        self,
        kind: str,
        key: LocationKey,
        bits: int = 0,
        detail: Optional[dict] = None,
    ) -> Optional[int]:
        """Record one access to location ``key`` by the current operation.

        ``key`` is ``(LocationClass, *fields)``; ``bits`` holds the
        trace's ``CALL``/``FUNCTION_DECL`` flags.  Returns the trace row,
        or None when nothing was recorded.
        """
        if not self.enabled or not self._op_stack:
            return None
        operation = self._op_stack[-1]
        op_id = operation.op_id
        is_read = kind == READ
        if self.obs.enabled:
            self.obs.count("access.read" if is_read else "access.write")
        trace = self.trace
        loc = trace.intern(key)
        if is_read:
            self._read_sets[-1].add(loc)
        else:
            guarded = loc in self._read_sets[-1]
            delayed = operation.meta.get("delayed_script")
            if guarded or delayed:
                detail = dict(detail) if detail else {}
                if guarded:
                    detail.setdefault("read_before_write", True)
                if delayed:
                    detail.setdefault("deliberate_delay", True)
        return trace.record(op_id, loc, is_read, bits, detail)

    def record_crash(self, error: Any, where: str = "") -> None:
        """Record a hidden script crash for the current operation."""
        operation = self.current
        crash = ScriptCrash(
            operation.op_id if operation else None, error, where=where
        )
        if self.obs.enabled:
            self.obs.count("crash.hidden")
            self.obs.instant("crash", where=where)
        self.trace.record_crash(crash)

    # ------------------------------------------------------------------
    # JSVar accesses: the interpreter's AccessHooks (Section 4.1)

    def var_read(self, cell_id: int, name: str, is_call: bool = False) -> None:
        """Closure-cell read -> VarLocation access."""
        self.record(READ, (VarLocation, cell_id, name), CALL if is_call else 0)

    def var_write(
        self,
        cell_id: int,
        name: str,
        is_function_decl: bool = False,
        writes_function: bool = False,
    ) -> None:
        """Closure-cell write -> VarLocation access."""
        detail = {"writes_function": True} if writes_function else None
        self.record(
            WRITE,
            (VarLocation, cell_id, name),
            FUNCTION_DECL if is_function_decl else 0,
            detail,
        )

    def prop_read(self, object_id: int, name: str, is_call: bool = False) -> None:
        """Object-property read -> PropLocation access."""
        self.record(READ, (PropLocation, object_id, name), CALL if is_call else 0)

    def prop_write(
        self,
        object_id: int,
        name: str,
        is_function_decl: bool = False,
        writes_function: bool = False,
    ) -> None:
        """Object-property write -> PropLocation access."""
        detail = {"writes_function": True} if writes_function else None
        self.record(
            WRITE,
            (PropLocation, object_id, name),
            FUNCTION_DECL if is_function_decl else 0,
            detail,
        )

    # ------------------------------------------------------------------
    # Eloc accesses (Section 4.3)

    def handler_write(
        self,
        target_key: ElementKey,
        event: str,
        handler_key: str = ATTR_SLOT,
        removal: bool = False,
    ) -> None:
        """Eloc write: a handler was installed/removed (Section 4.3)."""
        detail = {"removal": True} if removal else None
        self.record(
            WRITE, (HandlerLocation, target_key, event, handler_key), detail=detail
        )

    def handler_read(
        self, target_key: ElementKey, event: str, handler_key: str = ATTR_SLOT
    ) -> None:
        """Eloc read: a handler slot inspected/executed (Section 4.3)."""
        self.record(READ, (HandlerLocation, target_key, event, handler_key))

    # ------------------------------------------------------------------
    # timer slots (Section 7 extension)

    def timer_slot_write(self, timer_id: int, clearing: bool = False) -> None:
        """Timer created or cleared (the Section 7 extension)."""
        detail = {"clearing": True} if clearing else None
        self.record(WRITE, (TimerSlotLocation, timer_id), detail=detail)

    def timer_slot_read(self, timer_id: int) -> None:
        """Timer fired: the slot is read by the callback operation."""
        self.record(READ, (TimerSlotLocation, timer_id))

    # ------------------------------------------------------------------
    # DOM property accesses (Section 4.1 "Additional Cases")

    def dom_prop_write(
        self, element: Element, name: str, user_input: bool = False
    ) -> None:
        """DOM-property write (form values etc., Section 4.1)."""
        detail = {"user_input": True} if user_input else None
        self.record(
            WRITE,
            (DomPropLocation, element.element_key, name, element.tag),
            detail=detail,
        )

    def dom_prop_read(self, element: Element, name: str) -> None:
        """DOM-property read (form values etc., Section 4.1)."""
        self.record(READ, (DomPropLocation, element.element_key, name, element.tag))

    # ------------------------------------------------------------------
    # structural DOM instrumentation: every Document's sink (Section 4.2)

    def element_inserted(self, element: Element, parent: Node) -> None:
        """HElem + structural writes for an insertion (Section 4.2)."""
        self.note_created(element)
        self._structural_writes(element, parent)

    def element_removed(self, element: Element, parent: Node) -> None:
        """HElem + structural writes for a removal (Section 4.2)."""
        self._structural_writes(element, parent)

    def _structural_writes(self, element: Element, parent: Node) -> None:
        # Write the element's own logical location (Section 4.2).
        self.record(WRITE, (HElemLocation, element.element_key))
        # Write the collection buckets it joins or leaves.
        document = element.home_document
        if document is not None:
            for bucket in Document.categories_of(element):
                kind, _sep, key = bucket.partition(":")
                self.record(WRITE, (CollectionLocation, document.doc_id, kind, key))
        # Structural JS-heap writes (Section 4.1): childNodes on the parent,
        # parentNode on the child.  (The paper indexes childNodes[i]; we use
        # one location per parent — a documented coarsening that only makes
        # the race net wider.)
        if isinstance(parent, Element):
            self.record(
                WRITE,
                (DomPropLocation, parent.element_key, "childNodes", parent.tag),
            )
        self.record(
            WRITE,
            (DomPropLocation, element.element_key, "parentNode", element.tag),
        )

    def element_read(
        self, document: Document, key: ElementKey, found: bool, via: str
    ) -> None:
        """HElem read from a query API (hits and misses)."""
        self.record(READ, (HElemLocation, key), detail={"found": found, "via": via})

    def collection_read(self, document: Document, kind: str, key: str) -> None:
        """Read of a document-level element collection."""
        self.record(READ, (CollectionLocation, document.doc_id, kind, key))

    def note_created(self, element: Element) -> None:
        """Record create(E) = the current operation, first insertion wins."""
        if element.node_id not in self.create_ops and self._op_stack:
            self.create_ops[element.node_id] = self.current_id()

    def create_op_of(self, element) -> Optional[int]:
        """The create(E) operation id for an element, if known."""
        return self.create_ops.get(getattr(element, "node_id", -1))

    # ------------------------------------------------------------------
    # results

    @property
    def races(self) -> List[Race]:
        """The races in the rows recorded so far.

        The first read builds the detector; every read feeds it the rows
        recorded since the last one (:meth:`RaceDetector.replay`), so a
        run that goes on after a read adds its new races.  Detecting after
        the run reports what detecting during it would: every incoming HB
        edge of an operation arrives before its first access, so the
        clocks a query finalizes are the same either way.
        """
        detector = self.detector
        if detector is None:
            detector = self.detector = RaceDetector(
                self.trace, self.graph, obs=self.obs
            )
        with self.obs.span("detect", cat="pipeline"):
            detector.replay()
        return detector.races

    def close(self) -> None:
        """Drop the trace, HB store and detector (idempotent).  They hold
        no reference cycle, so they are freed at once unless a reader
        still holds one."""
        self.trace = self.graph = self.detector = None
