"""Happens-before graph (paper, Section 5.2.1).

WebRacer "represents the happens-before relation rather directly as a graph
structure".  We do the same for the rule-labeled edges — witnesses,
serialization and the SHB analysis read them — and answer CHC queries
with the "more efficient vector-clock representation" the paper names as
future work: chain-decomposed vector clocks maintained online.

The browser adds operations in execution order and obeys the discipline
that **every incoming edge of an operation is added before that operation
performs its first access** (edges go from older to newer operations — all
17 rules order an existing operation before one being created or about to
run).  An operation's chain position and clock are therefore *finalized*
lazily, the first time a query needs them (which recursively finalizes its
happens-before cone).  A backward edge raises, and so does an edge
arriving into an already-finalized operation, which would silently
corrupt reachability answers.  Forward edges also make the ids rise along
every chain, and a newer operation never happens before an older one.

Chain assignment is greedy: an operation extends the chain of a
predecessor that is still that chain's tail, otherwise it starts a fresh
chain.  Every finalized operation carries a clock ``{chain -> highest
position on that chain that happens before (or at) this operation}``;
``a ≺ b`` iff ``b``'s clock covers ``a``'s position on ``a``'s chain — an
O(1) dictionary lookup, with O(C) amortized maintenance per operation
(C = number of chains) instead of O(V) ancestor sets per operation.

The store keeps each clock without the operation's own chain, whose
entry is the operation's position.  The operations of one chain are
totally ordered, so an operation that learns nothing beyond its chain
predecessor's clock shares that predecessor's dict: a page whose
operations form one chain stores one clock.

Layout.  Operation ids are small non-negative integers handed out densely
(:class:`~repro.core.operations.OperationFactory` numbers a run's
operations 1..n; the trace loader rejects files that do not), so every
per-operation field is a list indexed by the id, not a dict keyed by it:
the predecessors with their rules (one flat ``(src, rule, src, rule, …)``
tuple per operation, ``None`` for an id never registered), the chain and
the position on it (``-1`` and ``0`` until finalized), and the stored
clock.  The chain tails are a list indexed by chain, and the edges are
one insertion-ordered ``[src, dst, rule, …]`` log.

A loaded trace (:func:`repro.core.serialize.trace_from_dict`) builds this
same store, so a reversed edge in a trace file is refused as it would be
in a run, and the loaded store finalizes in the order its queries come.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...obs import NULL


@dataclass(frozen=True)
class Edge:
    """A happens-before edge with the rule that introduced it."""

    src: int
    dst: int
    rule: str = ""


class HBGraph:
    """Rule-labeled HB edges over operation ids, queried by chain clocks."""

    def __init__(self, obs=None):
        self.obs = obs if obs is not None else NULL
        #: op -> flat ``(src, rule, …)`` of its incoming edges in insertion
        #: order; ``None`` for an id that was never registered.
        self._preds: List[Optional[tuple]] = []
        #: op -> chain index, ``-1`` until finalized.
        self._chain: List[int] = []
        #: op -> position within its chain (meaningful once finalized).
        self._pos: List[int] = []
        #: op -> {other chain index -> max covered position}: the clock
        #: without the op's own chain.  Shared, never mutated.
        self._clocks: List[Optional[Dict[int, int]]] = []
        #: chain index -> its newest operation.
        self._chain_tail: List[int] = []
        #: Every edge as ``src, dst, rule``, flat, in insertion order.
        self._log: List = []

    @property
    def chain_count(self) -> int:
        """Number of chains opened so far."""
        return len(self._chain_tail)

    # ------------------------------------------------------------------
    # construction

    def add_operation(self, op_id: int) -> None:
        """Register an operation (idempotent).  Every per-operation list
        grows to ``op_id + 1`` entries, so ids must be small and dense."""
        preds = self._preds
        if not 0 <= op_id < len(preds):
            if op_id < 0:
                raise ValueError(f"operation ids are non-negative, not {op_id}")
            grow = op_id + 1 - len(preds)
            preds.extend([None] * grow)
            self._chain.extend([-1] * grow)
            self._pos.extend([0] * grow)
            self._clocks.extend([None] * grow)
        if preds[op_id] is None:
            preds[op_id] = ()

    def add_edge(self, src: int, dst: int, rule: str = "") -> bool:
        """Add ``src ≺ dst``; returns False if the edge already existed.

        Enforces the forward discipline (``src < dst``) and rejects edges
        into an operation whose clock was already finalized (that would
        silently invalidate every answer derived from it).
        """
        if src == dst:
            return False
        if src > dst:
            raise ValueError(
                f"backward happens-before edge {src} -> {dst} (rule {rule!r}); "
                "edges must point from older to newer operations"
            )
        preds = self._preds
        if 0 <= dst < len(preds) and self._chain[dst] >= 0:
            raise ValueError(
                f"edge {src} -> {dst} (rule {rule!r}) added after operation "
                f"{dst} was queried; incoming edges must precede execution"
            )
        if not 0 <= src < len(preds) or preds[src] is None:
            self.add_operation(src)
        if not 0 <= dst < len(preds) or preds[dst] is None:
            self.add_operation(dst)
        entries = preds[dst]
        if entries and src in entries[::2]:
            return False
        preds[dst] = entries + (src, rule)
        self._log += (src, dst, rule)
        if self.obs.enabled:
            self.obs.count("hb.edge")
        return True

    # ------------------------------------------------------------------
    # finalization

    def _finalize(self, op_id: int) -> None:
        """Assign chain positions and clocks to ``op_id``'s unfinalized
        cone, predecessors first."""
        chains = self._chain
        if chains[op_id] >= 0:
            return
        preds = self._preds
        path = [op_id]
        pending = [iter(preds[op_id][::2])]
        while path:
            for pred in pending[-1]:
                if chains[pred] >= 0:
                    continue
                path.append(pred)
                pending.append(iter(preds[pred][::2]))
                break
            else:
                pending.pop()
                self._assign(path.pop())

    def _assign(self, op_id: int) -> None:
        predecessors = self._preds[op_id][::2]
        chains, positions, clocks = self._chain, self._pos, self._clocks
        tails = self._chain_tail

        # Chain assignment: extend a predecessor's chain if it is still
        # that chain's tail, otherwise open a new chain.
        extended: Optional[int] = None
        for pred in predecessors:
            if tails[chains[pred]] == pred:
                extended = pred
                break
        if extended is None:
            assigned = len(tails)
            tails.append(op_id)
            if self.obs.enabled:
                self.obs.count("hb.chain_opened")
            position = 0
        else:
            assigned = chains[extended]
            position = positions[extended] + 1
            tails[assigned] = op_id
        chains[op_id] = assigned
        positions[op_id] = position

        # Clock: pointwise max over predecessors' clocks, plus each
        # predecessor's own position, minus our own chain (``position``
        # holds that entry).
        clock: Dict[int, int] = {}
        for pred in predecessors:
            for chain, pos in clocks[pred].items():
                if clock.get(chain, -1) < pos:
                    clock[chain] = pos
            pred_chain, pred_pos = chains[pred], positions[pred]
            if clock.get(pred_chain, -1) < pred_pos:
                clock[pred_chain] = pred_pos
        clock.pop(assigned, None)
        if extended is not None and clock == clocks[extended]:
            # Nothing learned beyond the chain predecessor: share its dict.
            clock = clocks[extended]
        clocks[op_id] = clock

    # ------------------------------------------------------------------
    # queries

    def happens_before(self, a: int, b: int) -> bool:
        """True iff ``a ≺ b``; finalizes both operations' cones.

        Edges point from older to newer operations, so only an older
        ``a`` can precede ``b``: for a newer one the answer is False, and
        nothing is finalized."""
        if a >= b:
            return False
        chains = self._chain
        try:
            chain_a = chains[a]
            chain_b = chains[b]
        except IndexError:
            return False  # an id past every registered one
        if chain_a < 0 or chain_b < 0:
            # Slow path: an operation not yet finalized (or never
            # registered).  The common case on the detection hot path
            # skips it — priors were queried before.
            preds = self._preds
            if preds[a] is None or preds[b] is None:
                return False
            self._finalize(a)
            self._finalize(b)
            chain_a = chains[a]
            chain_b = chains[b]
        position = self._pos[a]
        if chain_a == chain_b:
            return self._pos[b] >= position
        return self._clocks[b].get(chain_a, -1) >= position

    def place(self, op_id: int) -> Optional[Tuple[int, int, Dict[int, int]]]:
        """``(chain, position, clock)`` of a registered operation, its
        cone finalized first; ``None`` for an id never registered.

        ``clock`` omits the op's own chain (``position`` is that entry)
        and is the stored dict, shared with other operations: read it,
        never mutate it.  Post-run passes read many pairs off these
        instead of asking :meth:`happens_before` pair by pair.
        """
        preds = self._preds
        if not 0 <= op_id < len(preds) or preds[op_id] is None:
            return None
        self._finalize(op_id)
        return self._chain[op_id], self._pos[op_id], self._clocks[op_id]

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither ``a ≺ b`` nor ``b ≺ a`` (and ``a != b``).

        The newer operation can never precede the older one, so a single
        directed query settles concurrency."""
        if a == b:
            return False
        if a > b:
            a, b = b, a
        return not self.happens_before(a, b)

    def chc(self, a: int, b: int) -> bool:
        """Can-Happen-Concurrently (paper, Section 5.1).

        ``CHC(A, B) = A != ⊥ ∧ B != ⊥ ∧ A ⊀ B ∧ B ⊀ A``.  The ``⊥``
        initialization marker is operation id 0.
        """
        if a == 0 or b == 0:
            return False
        return self.concurrent(a, b)

    # ------------------------------------------------------------------
    # introspection (witnesses, serialization, tests, benchmarks)

    def memory_cells(self) -> int:
        """Total entries of the full logical clocks — the query engine's
        memory footprint, counted as if no clock were shared."""
        return sum(
            len(clock) + 1
            for chain, clock in zip(self._chain, self._clocks)
            if chain >= 0
        )

    def stored_clocks(self) -> int:
        """Number of distinct clock dicts the store holds: operations that
        learn nothing beyond their chain predecessor share its dict."""
        return len({id(clock) for clock in self._clocks if clock is not None})

    @property
    def edges(self) -> List[Edge]:
        """All edges, with their rule labels, in insertion order."""
        log = self._log
        return [Edge(*fields) for fields in zip(log[0::3], log[1::3], log[2::3])]

    def rule_edges(self) -> List[Tuple[Tuple[int, int], str]]:
        """``((src, dst), rule)`` per edge, in insertion order: :attr:`edges`
        without building an :class:`Edge` each, for comparing two runs."""
        log = self._log
        return list(zip(zip(log[0::3], log[1::3]), log[2::3]))

    def edges_by_rule(self, rule: str) -> List[Edge]:
        """Edges introduced by one named rule."""
        return [edge for edge in self.edges if edge.rule == rule]

    def edge_rule(self, src: int, dst: int) -> Optional[str]:
        """The rule that introduced the direct edge ``src ≺ dst``.

        Returns ``None`` when no such direct edge exists.  Witness-path
        queries (:mod:`repro.core.hb.witness`) use this to annotate each
        step of an HB ancestry chain with its paper rule.
        """
        entries = self._entries(dst)
        for pred, rule in zip(entries[0::2], entries[1::2]):
            if pred == src:
                return rule
        return None

    def chain_members(self) -> List[List[int]]:
        """Each chain's finalized operations by position, built on every
        call (the store itself keeps no per-chain lists)."""
        members: List[List[int]] = [[] for _ in self._chain_tail]
        for op_id, chain in enumerate(self._chain):
            if chain >= 0:
                members[chain].append(op_id)
        for ops in members:
            ops.sort(key=self._pos.__getitem__)
        return members

    def operation_ids(self) -> List[int]:
        """All registered operation ids, sorted."""
        return [op for op, entries in enumerate(self._preds) if entries is not None]

    def predecessors(self, op_id: int) -> List[int]:
        """Direct HB predecessors of an operation."""
        return list(self._entries(op_id)[0::2])

    def edge_count(self) -> int:
        """Number of edges in the graph."""
        return len(self._log) // 3

    def _entries(self, op_id: int) -> tuple:
        """``op_id``'s flat ``(src, rule, …)`` tuple; empty when unknown."""
        if 0 <= op_id < len(self._preds):
            return self._preds[op_id] or ()
        return ()
