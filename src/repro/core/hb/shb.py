"""Schedulable happens-before (SHB): single-trace race *prediction*.

WebRacer reports races that manifest in the one observed execution, and
``repro explore`` buys extra coverage by brute-forcing N schedules per
page.  SHB analysis ("Dynamic Race Prediction in Linear Time", "What
Happens-After the First Race?") extracts more from a *single* trace: a
race that did not fire in the observed schedule can still be predicted if
no must-happen-before constraint orders its two operations.

The relation built here is deliberately *weaker* than the observed
schedule order and *stronger* than the paper's rule relation alone:

* every rule-labeled happens-before edge is kept (those are control-flow
  constraints — a timer cannot fire before it is registered in any
  schedule);
* observed-order edges between non-conflicting operations are dropped
  (the FIFO scheduler happened to run A before B, but nothing forces it);
* a **reads-from edge** ``w -> r`` is added for every read that took its
  value from a concurrent earlier write in the observed trace.  Reordering
  past such an edge changes which value the read observes, so the
  reordered schedule is no longer guaranteed to replay the recorded
  control flow.

Candidate pairs come from a full-history sweep over the trace (every
conflicting, rule-concurrent pair), minus what the constant-memory
detector already reported in the observed run.  Each prediction is
classified by how its pair sits in the SHB relation (the direct edge
between the pair itself, if any, is excluded — it is the conflict being
predicted, not a constraint on it):

* ``schedulable`` — SHB leaves the pair unordered: some reordering of the
  observed trace makes the two operations adjacent while every read still
  sees the write it saw before.  The prediction is sound modulo the
  operation-level abstraction.
* ``conditional`` — the pair is SHB-ordered, but only via at least one
  *racy* reads-from edge (one whose endpoints the rule relation leaves
  concurrent).  Flipping that other race first can break the chain, so
  the pair may still race — but only in a schedule that has already
  diverged from the recorded control flow.

Both tiers are *predictions*: ``repro predict`` treats replay of a
witnessing reordering (``repro.predict``) as ground truth and splits
results into ``predicted+confirmed`` vs ``predicted-only``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..detector import Race
from ..full_detector import FullHistoryDetector
from ..trace import Trace
from .graph import HBGraph

#: Rule label carried by reads-from edges in the SHB graph, so witness
#: paths and serialized edges distinguish data flow from paper rules.
SHB_RF_RULE = "shb-rf"

#: Prediction tiers (plus "observed" for races the exact detector saw).
STATUS_OBSERVED = "observed"
STATUS_SCHEDULABLE = "schedulable"
STATUS_CONDITIONAL = "conditional"


@dataclass(frozen=True)
class ReadsFromEdge:
    """One observed data-flow edge: read ``dst`` took its value from
    write ``src`` at ``location``.  ``racy`` means the rule relation
    leaves the pair concurrent — the data flow itself is a race outcome.
    """

    src: int
    dst: int
    location: object
    racy: bool


@dataclass
class ShbPrediction:
    """One predicted race with its SHB classification."""

    race: Race
    status: str  # STATUS_SCHEDULABLE or STATUS_CONDITIONAL
    #: For ``conditional``: the racy reads-from edges on the SHB path
    #: that orders the pair (the constraints a reordering must break).
    blocking_rf: Tuple[ReadsFromEdge, ...] = ()

    def op_pair(self) -> Tuple[int, int]:
        """The predicted pair as ``(low op id, high op id)``."""
        a, b = self.race.op_pair()
        return (min(a, b), max(a, b))

    def describe(self) -> str:
        """Human-readable one-line description."""
        extra = ""
        if self.blocking_rf:
            flips = ", ".join(
                f"{edge.src}->{edge.dst}" for edge in self.blocking_rf
            )
            extra = f" (requires flipping reads-from {flips})"
        return f"[{self.status}] {self.race.describe()}{extra}"


@dataclass
class ShbAnalysis:
    """Everything one SHB pass over a trace produced."""

    #: Races the exact (constant-memory) detector reports on this trace.
    observed: List[Race]
    #: Conflicting rule-concurrent pairs the exact detector missed.
    predictions: List[ShbPrediction]
    #: The SHB graph (rule edges + reads-from edges).
    shb: HBGraph
    #: Every reads-from edge, racy or not.
    rf_edges: List[ReadsFromEdge] = field(default_factory=list)
    #: Full-history candidate pairs considered (observed + predicted).
    candidates: int = 0

    def by_status(self, status: str) -> List[ShbPrediction]:
        """Predictions with one classification tier."""
        return [p for p in self.predictions if p.status == status]

    def summary(self) -> str:
        """One-line analysis summary."""
        schedulable = len(self.by_status(STATUS_SCHEDULABLE))
        conditional = len(self.by_status(STATUS_CONDITIONAL))
        return (
            f"SHB: {len(self.observed)} observed, "
            f"{len(self.predictions)} predicted "
            f"({schedulable} schedulable, {conditional} conditional), "
            f"{len(self.rf_edges)} reads-from edges "
            f"({sum(1 for e in self.rf_edges if e.racy)} racy)"
        )


def reads_from_edges(trace: Trace, hb: HBGraph) -> List[ReadsFromEdge]:
    """Observed data-flow edges: each read pairs with the last write to
    its location in trace order.  Deduplicated per ``(src, dst,
    location)``; same-operation pairs carry no scheduling constraint and
    are skipped."""
    # location id -> op id of the last write there.
    last_write: Dict[int, int] = {}
    seen: Set[Tuple[int, int, int]] = set()
    edges: List[ReadsFromEdge] = []
    for op_id, loc, is_read in zip(trace.ops, trace.locs, trace.reads):
        if not is_read:
            last_write[loc] = op_id
            continue
        src = last_write.get(loc)
        if src is None or src == op_id:
            continue
        key = (src, op_id, loc)
        if key in seen:
            continue
        seen.add(key)
        edges.append(
            ReadsFromEdge(
                src=src,
                dst=op_id,
                location=trace.location(loc),
                racy=hb.concurrent(src, op_id),
            )
        )
    return edges


def build_shb(
    trace: Trace, hb: HBGraph
) -> Tuple[HBGraph, List[ReadsFromEdge]]:
    """Build the SHB graph for one trace.

    Rule edges come straight from the online graph; reads-from edges are
    derived from the trace.  Reads-from edges may point from a higher op
    id to a lower one (creation order is not execution order), so the
    graph is built with ``assert_forward=False`` and **fully constructed
    before any query** — :class:`HBGraph` refuses edges into an operation
    whose clock is already finalized.
    """
    shb = HBGraph(assert_forward=False)
    for op in trace.operations:
        shb.add_operation(op.op_id)
    for edge in hb.edges:
        shb.add_edge(edge.src, edge.dst, edge.rule)
    rf_edges = reads_from_edges(trace, hb)
    for rf in rf_edges:
        shb.add_edge(rf.src, rf.dst, SHB_RF_RULE)
    return shb, rf_edges


def _shb_path(
    shb: HBGraph, a: int, b: int, skip: Set[Tuple[int, int]]
) -> Optional[List[int]]:
    """A directed SHB path ``a -> ... -> b`` avoiding the edges in
    ``skip``, or ``None``.  Plain DFS with parent pointers — the
    chain clocks cannot answer this because the pair's own direct edge
    must not count as an ordering constraint."""
    if a == b:
        return None
    parents: Dict[int, int] = {}
    stack = [a]
    seen = {a}
    while stack:
        node = stack.pop()
        for succ in shb.successors(node):
            if (node, succ) in skip or succ in seen:
                continue
            parents[succ] = node
            if succ == b:
                path = [b]
                while path[-1] != a:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            seen.add(succ)
            stack.append(succ)
    return None


def classify_pair(
    shb: HBGraph,
    rf_edges: List[ReadsFromEdge],
    a: int,
    b: int,
) -> Tuple[str, Tuple[ReadsFromEdge, ...]]:
    """Classify one conflicting rule-concurrent pair against SHB.

    The direct edges between the pair (in either direction) are excluded:
    they express the conflict under prediction, not a constraint on it.
    Returns ``(status, blocking reads-from edges)``.
    """
    skip = {(a, b), (b, a)}
    path = _shb_path(shb, a, b, skip) or _shb_path(shb, b, a, skip)
    if path is None:
        return STATUS_SCHEDULABLE, ()
    racy_by_pair = {
        (rf.src, rf.dst): rf for rf in rf_edges if rf.racy
    }
    blocking = tuple(
        racy_by_pair[(src, dst)]
        for src, dst in zip(path, path[1:])
        if (src, dst) in racy_by_pair
    )
    return STATUS_CONDITIONAL, blocking


def predict_races(
    trace: Trace, hb: HBGraph, observed: List[Race]
) -> ShbAnalysis:
    """Run the full SHB prediction pass over one recorded trace.

    ``observed`` is the exact detector's race list for this run (the
    live run's, or :meth:`~repro.core.serialize.LoadedTrace.detect`'s
    for a loaded trace).  Candidates are all conflicting rule-concurrent
    pairs (full-history sweep); pairs the exact detector reported stay
    ``observed``, the rest are classified into
    :data:`STATUS_SCHEDULABLE` / :data:`STATUS_CONDITIONAL`.
    """
    sweep = FullHistoryDetector(trace, hb).replay()
    shb, rf_edges = build_shb(trace, hb)
    observed_keys = {
        race.pair_key()
        for race in observed
        if race.prior.op_id != race.current.op_id
    }
    predictions: List[ShbPrediction] = []
    for race in sweep.races:
        a, b = race.op_pair()
        if race.pair_key() in observed_keys:
            continue
        status, blocking = classify_pair(shb, rf_edges, a, b)
        predictions.append(
            ShbPrediction(race=race, status=status, blocking_rf=blocking)
        )
    return ShbAnalysis(
        observed=list(observed),
        predictions=predictions,
        shb=shb,
        rf_edges=rf_edges,
        candidates=len(sweep.races),
    )
