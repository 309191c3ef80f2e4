"""Operations — the units of atomic execution (paper, Section 3.2).

During web page loading only two things ever happen: HTML gets parsed and
script code runs.  The paper carves script execution into finer kinds so the
happens-before rules can refer to them:

* ``parse(E)`` — parsing one static HTML element,
* ``exe(E)`` — executing the source of a script element,
* the execution of an event handler due to an event dispatch,
* ``cb(E)`` — a ``setTimeout`` callback,
* ``cbi(E)`` — the i-th firing of a ``setInterval`` callback.

Each operation has a unique identifier (``OpId``, an ``int`` here).  The
appendix additionally *splits* an operation interrupted by an inline event
dispatch into pre/post segments; segments are fresh operations linked to
their parent via :attr:`Operation.parent`.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

#: Operation kinds, mirroring Section 3.2.
PARSE = "parse"
EXE = "exe"
CB = "cb"  # setTimeout callback
CBI = "cbi"  # setInterval callback (i-th firing)
DISPATCH = "dispatch"  # one event-handler execution within dispi(e, T)
SEGMENT = "segment"  # slice of an operation split by inline dispatch
ENV = "env"  # environment pseudo-operations (initial load trigger)

KINDS = frozenset([PARSE, EXE, CB, CBI, DISPATCH, SEGMENT, ENV])

#: The meta of every operation created without one: one shared, read-only
#: empty mapping instead of an empty dict per operation.
NO_META: Mapping[str, Any] = MappingProxyType({})


class Operation:
    """One atomic operation in an execution.

    Attributes
    ----------
    op_id:
        Unique identifier; the happens-before relation is over these.
    kind:
        One of the module-level kind constants.
    label:
        Human-readable description used in race reports
        (``"exe(<script src=a.js>)"``, ``"disp0(click, #send)"``, ...).
    meta:
        Kind-specific details (:data:`NO_META` when there are none).  For
        ``DISPATCH`` operations the dispatcher stores ``event``,
        ``target``, ``dispatch_index`` (the *i* of ``dispi``), ``phase``,
        and ``current_target`` — the appendix's event phasing rules read
        these.
    parent:
        For ``SEGMENT`` operations, the id of the split operation.

    Operations compare by value (all five attributes) and are unhashable.
    """

    __slots__ = ("op_id", "kind", "label", "meta", "parent")

    def __init__(
        self,
        op_id: int,
        kind: str,
        label: str = "",
        meta: Mapping[str, Any] = NO_META,
        parent: Optional[int] = None,
    ):
        self.op_id = op_id
        self.kind = kind
        self.label = label
        self.meta = meta
        self.parent = parent

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def describe(self) -> str:
        """Label if set, else kind#id."""
        return self.label or f"{self.kind}#{self.op_id}"

    def __repr__(self) -> str:
        return f"Operation({self.op_id}, {self.kind}, {self.label!r})"


class OperationFactory:
    """Allocates operations with execution-unique ids 1, 2, 3, ...

    Id 0 is reserved for the detector's ``⊥`` initialization marker
    (Section 5.1), so real operations never collide with it.  The ids are
    dense, so ``operations`` is a list indexed by id, slot 0 empty; the HB
    store and the trace loader rely on that numbering.
    """

    def __init__(self):
        #: id -> operation; ``operations[0]`` is the ``⊥`` slot (None).
        self.operations: List[Optional[Operation]] = [None]

    def create(
        self,
        kind: str,
        label: str = "",
        meta: Optional[Dict[str, Any]] = None,
        parent: Optional[int] = None,
    ) -> Operation:
        """Allocate a fresh operation of the given kind."""
        if kind not in KINDS:
            raise ValueError(f"unknown operation kind {kind!r}")
        operation = Operation(
            op_id=len(self.operations),
            kind=kind,
            label=label,
            meta=dict(meta) if meta else NO_META,
            parent=parent,
        )
        self.operations.append(operation)
        return operation

    def add(self, operation: Operation) -> None:
        """Append a loaded operation; raises ``ValueError`` unless its id is
        the next one, so a loaded trace's operations are numbered 1..n."""
        expected = len(self.operations)
        if type(operation.op_id) is not int or operation.op_id != expected:
            raise ValueError(
                f"operation {operation.op_id!r} is out of sequence: operations "
                f"are numbered 1..n in order, so the next is {expected}"
            )
        self.operations.append(operation)

    def get(self, op_id: int) -> Operation:
        """Look up an operation by id."""
        if 0 < op_id < len(self.operations):
            return self.operations[op_id]
        raise KeyError(op_id)

    def __len__(self) -> int:
        return len(self.operations) - 1

    def __iter__(self):
        return itertools.islice(self.operations, 1, None)
