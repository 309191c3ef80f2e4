"""Witness-path queries over rule-labeled happens-before edges.

A race report that just names two operation ids answers *what* raced but
not *why the detector believes it*.  The witness queries here turn the
happens-before structure into checkable evidence, in the spirit of
race-prediction work that ships a certificate with every report:

* :func:`ancestor_closure` — the full HB cone above one operation;
* :func:`hb_path` — a shortest chain of direct edges from an ancestor down
  to a descendant, each step labeled with the paper rule (Section 3.3 /
  Appendix A) that introduced it;
* :func:`race_witness` — the nearest common ancestor (the latest
  operation ordered before *both* racing operations, the point where
  their orderings diverge) plus one rule-labeled path to each racing
  operation, and the verdict that *no* chain connects the pair;
* :class:`ChainAncestry` — the same nearest common ancestor and common
  ancestor count of a concurrent pair, read off the chain clocks.

The functions only need ``predecessors(op_id)`` and ``edge_rule(src,
dst)`` from :class:`~repro.core.hb.graph.HBGraph`, and walk a cone per
operation (O(V) per race).  Race evidence asks for many pairs of one
finished graph, so it reads the common ancestors off the clocks
(:class:`ChainAncestry`, O(chains) per pair) and keeps :func:`hb_path`'s
search for the paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class WitnessStep:
    """One direct happens-before edge on a witness path."""

    src: int
    dst: int
    rule: str = ""

    def describe(self) -> str:
        """Human-readable one-line description."""
        rule = self.rule or "?"
        return f"{self.src} ≺ {self.dst} [{rule}]"


@dataclass
class RaceWitness:
    """HB evidence for one pair of operations reported as racing.

    ``path_a``/``path_b`` run from :attr:`nca` down to each operation; an
    empty path with a non-``None`` nca means the operation *is* the nca's
    direct frontier (should not happen for genuine races).  ``ordered``
    flags pairs that are not actually concurrent — a sanity bit consumers
    can assert on.
    """

    a: int
    b: int
    nca: Optional[int]
    common_ancestor_count: int
    path_a: List[WitnessStep] = field(default_factory=list)
    path_b: List[WitnessStep] = field(default_factory=list)
    ordered: bool = False

    def rules_a(self) -> List[str]:
        """Rule labels along the nca → a path."""
        return [step.rule for step in self.path_a]

    def rules_b(self) -> List[str]:
        """Rule labels along the nca → b path."""
        return [step.rule for step in self.path_b]


def ancestor_closure(hb, op_id: int) -> Set[int]:
    """All operations that happen before ``op_id``, by predecessor walk."""
    seen: Set[int] = set()
    stack = list(hb.predecessors(op_id))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(hb.predecessors(node))
    return seen


def hb_path(hb, src: int, dst: int) -> Optional[List[WitnessStep]]:
    """A shortest direct-edge chain ``src ≺ ... ≺ dst``, rule-labeled.

    BFS backward from ``dst`` over predecessors; returns ``None`` when no
    chain exists (i.e. ``src`` does not happen before ``dst``).
    """
    if src == dst:
        return []
    parent: Dict[int, int] = {}
    queue = deque([dst])
    seen = {dst}
    while queue:
        node = queue.popleft()
        for pred in hb.predecessors(node):
            if pred in seen:
                continue
            parent[pred] = node
            if pred == src:
                steps: List[WitnessStep] = []
                at = src
                while at != dst:
                    nxt = parent[at]
                    steps.append(
                        WitnessStep(at, nxt, hb.edge_rule(at, nxt) or "")
                    )
                    at = nxt
                return steps
            seen.add(pred)
            queue.append(pred)
    return None


def race_witness(hb, a: int, b: int) -> RaceWitness:
    """The full witness bundle for an (allegedly racing) operation pair.

    The nearest common ancestor is the highest-id common HB ancestor:
    edges point old → new, so every other common ancestor has a smaller
    id and cannot come after it.
    """
    cone_a = ancestor_closure(hb, a)
    cone_b = ancestor_closure(hb, b)
    ordered = a in cone_b or b in cone_a
    common = cone_a & cone_b
    nca = max(common) if common else None
    path_a = hb_path(hb, nca, a) if nca is not None else []
    path_b = hb_path(hb, nca, b) if nca is not None else []
    return RaceWitness(
        a=a,
        b=b,
        nca=nca,
        common_ancestor_count=len(common),
        path_a=path_a or [],
        path_b=path_b or [],
        ordered=ordered,
    )


class ChainAncestry:
    """Common ancestors of concurrent pairs, read off an
    :class:`~repro.core.hb.graph.HBGraph`'s chain clocks.

    On one chain, the operations that happen before (or are) ``x`` are
    the positions up to ``x``'s clock entry for that chain: a prefix.  For
    a concurrent pair the common ancestors are therefore, per chain, the
    positions up to the smaller of the two entries, so their count is a
    sum over a clock, and, since ids rise along a chain, the highest id
    among them is the chain's member at the top position.  That is
    :func:`race_witness`'s nearest common ancestor and count without a
    predecessor walk.

    The per-chain operation lists are built from the finalized operations
    on first use, after the run; the live store keeps none.  An operation
    finalized since then sits past their ends, which rebuilds them.
    """

    def __init__(self, hb):
        self.hb = hb
        #: chain -> its operations by position.
        self._members: List[List[int]] = []

    def common(self, a: int, b: int) -> Optional[Tuple[Optional[int], int]]:
        """``(nearest common ancestor, common ancestor count)`` of a
        concurrent pair; ``None`` for an ordered pair or an operation the
        store never registered (:func:`race_witness` answers those)."""
        placed_a, placed_b = self.hb.place(a), self.hb.place(b)
        if placed_a is None or placed_b is None:
            return None
        chain_a, position_a, clock_a = placed_a
        chain_b, position_b, clock_b = placed_b
        if (
            chain_a == chain_b
            or clock_b.get(chain_a, -1) >= position_a
            or clock_a.get(chain_b, -1) >= position_b
        ):
            return None
        tops = [(chain_a, min(position_a, clock_b.get(chain_a, -1)))]
        for chain, entry in clock_a.items():
            other = position_b if chain == chain_b else clock_b.get(chain, -1)
            tops.append((chain, min(entry, other)))
        try:
            return self._read(tops)
        except IndexError:
            self._members = self.hb.chain_members()
            return self._read(tops)

    def _read(self, tops: List[Tuple[int, int]]) -> Tuple[Optional[int], int]:
        nca: Optional[int] = None
        count = 0
        for chain, top in tops:
            if top < 0:
                continue
            count += top + 1
            highest = self._members[chain][top]
            if nca is None or highest > nca:
                nca = highest
        return nca, count

