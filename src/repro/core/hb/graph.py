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
happens-before cone).  An edge arriving into an already-finalized
operation would silently corrupt reachability answers, so it raises.

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
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...obs import NULL


@dataclass(frozen=True)
class Edge:
    """A happens-before edge with the rule that introduced it."""

    src: int
    dst: int
    rule: str = ""


class _FullClocks(Mapping):
    """``op -> full clock`` over an :class:`HBGraph`'s stored clocks: each
    lookup copies the stored clock and adds the op's own chain entry."""

    def __init__(self, graph: HBGraph):
        self._graph = graph

    def __getitem__(self, op_id: int) -> Dict[int, int]:
        chain, position = self._graph.position[op_id]
        clock = dict(self._graph._clocks[op_id])
        clock[chain] = position
        return clock

    def __iter__(self) -> Iterator[int]:
        return iter(self._graph._clocks)

    def __len__(self) -> int:
        return len(self._graph._clocks)


class HBGraph:
    """Rule-labeled HB edges over operation ids, queried by chain clocks."""

    def __init__(self, assert_forward: bool = True, obs=None):
        self.assert_forward = assert_forward
        self.obs = obs if obs is not None else NULL
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        #: (src, dst) -> rule label, in insertion order; doubles as the
        #: edge-membership set.
        self._edge_rules: Dict[Tuple[int, int], str] = {}
        #: op -> (chain index, position within chain); presence = finalized.
        self.position: Dict[int, Tuple[int, int]] = {}
        #: op -> {other chain index -> max covered position}: the clock
        #: without the op's own chain.  Shared, never mutated.
        self._clocks: Dict[int, Dict[int, int]] = {}
        self._chain_tail: Dict[int, int] = {}
        self.chain_count = 0

    @property
    def clock(self) -> Mapping[int, Dict[int, int]]:
        """op -> full clock {chain index -> max covered position}, own
        chain included (finalized ops only; read-only).  A fresh view, so
        the graph does not reference itself."""
        return _FullClocks(self)

    # ------------------------------------------------------------------
    # construction

    def add_operation(self, op_id: int) -> None:
        """Register an operation (idempotent)."""
        self._succ.setdefault(op_id, [])
        self._pred.setdefault(op_id, [])

    def add_edge(self, src: int, dst: int, rule: str = "") -> bool:
        """Add ``src ≺ dst``; returns False if the edge already existed.

        Enforces the forward discipline (``src < dst``) and rejects edges
        into an operation whose clock was already finalized (that would
        silently invalidate every answer derived from it).
        """
        if src == dst:
            return False
        if self.assert_forward and src > dst:
            raise ValueError(
                f"backward happens-before edge {src} -> {dst} (rule {rule!r}); "
                "edges must point from older to newer operations"
            )
        if dst in self.position:
            raise ValueError(
                f"edge {src} -> {dst} (rule {rule!r}) added after operation "
                f"{dst} was queried; incoming edges must precede execution"
            )
        if (src, dst) in self._edge_rules:
            return False
        self.add_operation(src)
        self.add_operation(dst)
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._edge_rules[(src, dst)] = rule
        if self.obs.enabled:
            self.obs.count("hb.edge")
        return True

    # ------------------------------------------------------------------
    # finalization

    def _finalize(self, op_id: int) -> None:
        """Assign chain positions and clocks to ``op_id``'s unfinalized
        cone, predecessors first; raises ``ValueError`` on a cycle."""
        if op_id in self.position:
            return
        path = [op_id]
        on_path = {op_id}
        pending = [iter(self._pred[op_id])]
        while path:
            for pred in pending[-1]:
                if pred in self.position:
                    continue
                if pred in on_path:
                    raise ValueError(
                        f"happens-before cycle through operation {pred}"
                    )
                path.append(pred)
                on_path.add(pred)
                pending.append(iter(self._pred[pred]))
                break
            else:
                pending.pop()
                op = path.pop()
                on_path.discard(op)
                self._assign(op)

    def _assign(self, op_id: int) -> None:
        predecessors = self._pred[op_id]

        # Chain assignment: extend a predecessor's chain if it is still
        # that chain's tail, otherwise open a new chain.
        extended: Optional[int] = None
        for pred in predecessors:
            chain, _pos = self.position[pred]
            if self._chain_tail.get(chain) == pred:
                extended = pred
                break
        if extended is None:
            assigned = self.chain_count
            self.chain_count += 1
            if self.obs.enabled:
                self.obs.count("hb.chain_opened")
            position = 0
        else:
            assigned, position = self.position[extended]
            position += 1
        self.position[op_id] = (assigned, position)
        self._chain_tail[assigned] = op_id

        # Clock: pointwise max over predecessors' clocks, plus each
        # predecessor's own position, minus our own chain (``position``
        # holds that entry).
        clock: Dict[int, int] = {}
        for pred in predecessors:
            for chain, pos in self._clocks[pred].items():
                if clock.get(chain, -1) < pos:
                    clock[chain] = pos
            pred_chain, pred_pos = self.position[pred]
            if clock.get(pred_chain, -1) < pred_pos:
                clock[pred_chain] = pred_pos
        clock.pop(assigned, None)
        if extended is not None and clock == self._clocks[extended]:
            # Nothing learned beyond the chain predecessor: share its dict.
            clock = self._clocks[extended]
        self._clocks[op_id] = clock

    def finalize_all(self) -> None:
        """Finalize every registered operation.

        Loaders call this once the graph is complete: it settles every
        clock up front and rejects a cyclic edge set.
        """
        for op_id in self._pred:
            self._finalize(op_id)

    # ------------------------------------------------------------------
    # queries

    def happens_before(self, a: int, b: int) -> bool:
        """True iff ``a ≺ b``; finalizes both operations' cones."""
        if a == b:
            return False
        # Fast path: both operations already finalized (the common case on
        # the detection hot path — priors were queried before).
        pos_a = self.position.get(a)
        pos_b = self.position.get(b)
        if pos_a is None or pos_b is None:
            if a not in self._pred or b not in self._pred:
                return False
            if self.assert_forward and a > b:
                # Forward discipline: an older id can never be reached from
                # a newer one, so b ≺ a would require a backward edge.
                return False
            self._finalize(a)
            self._finalize(b)
            pos_a = self.position[a]
            pos_b = self.position[b]
        elif self.assert_forward and a > b:
            return False
        chain, position = pos_a
        if chain == pos_b[0]:
            return pos_b[1] >= position
        return self._clocks[b].get(chain, -1) >= position

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither ``a ≺ b`` nor ``b ≺ a`` (and ``a != b``)."""
        if a == b:
            return False
        if self.assert_forward:
            # Forward discipline: the newer op can never precede the older
            # one, so a single directed query settles concurrency.
            if a > b:
                a, b = b, a
            return not self.happens_before(a, b)
        return not self.happens_before(a, b) and not self.happens_before(b, a)

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
        return sum(len(clock) + 1 for clock in self._clocks.values())

    @property
    def edges(self) -> List[Edge]:
        """All edges, with their rule labels, in insertion order."""
        return [Edge(src, dst, rule) for (src, dst), rule in self._edge_rules.items()]

    def rule_edges(self) -> List[Tuple[Tuple[int, int], str]]:
        """``((src, dst), rule)`` per edge, in insertion order: :attr:`edges`
        without building an :class:`Edge` each, for comparing two runs."""
        return list(self._edge_rules.items())

    def edges_by_rule(self, rule: str) -> List[Edge]:
        """Edges introduced by one named rule."""
        return [edge for edge in self.edges if edge.rule == rule]

    def edge_rule(self, src: int, dst: int) -> Optional[str]:
        """The rule that introduced the direct edge ``src ≺ dst``.

        Returns ``None`` when no such direct edge exists.  Witness-path
        queries (:mod:`repro.core.hb.witness`) use this to annotate each
        step of an HB ancestry chain with its paper rule.
        """
        return self._edge_rules.get((src, dst))

    def operation_ids(self) -> List[int]:
        """All registered operation ids, sorted."""
        return sorted(self._succ.keys())

    def successors(self, op_id: int) -> List[int]:
        """Direct HB successors of an operation."""
        return list(self._succ.get(op_id, ()))

    def predecessors(self, op_id: int) -> List[int]:
        """Direct HB predecessors of an operation."""
        return list(self._pred.get(op_id, ()))

    def edge_count(self) -> int:
        """Number of edges in the graph."""
        return len(self._edge_rules)
