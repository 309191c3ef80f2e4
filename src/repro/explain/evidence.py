"""Structured evidence records for reported races.

One :class:`RaceEvidence` turns a detector :class:`~repro.core.detector.Race`
into a self-contained, checkable record of *why the detector believes the
pair can happen concurrently*:

* the rule-labeled HB ancestry of both racing operations up from their
  nearest common ancestor (:mod:`repro.core.hb.witness`), so a reader sees
  exactly which of the paper's 17 rules ordered each side — and that no
  chain of rules connects the two sides;
* source attribution for each access: the operation that performed it
  (script/HTML provenance via its label, kind and segment-parent chain)
  and the per-location access timeline around the racing accesses;
* the Section 2 classification + Section 6 harmfulness verdict with its
  reason;
* a stable fingerprint (:mod:`repro.explain.fingerprint`) for
  deduplication within a run and clustering across corpus runs.

Evidence is built strictly *after* detection from structures the run
already produced (trace + HB store), so attaching it can never perturb the
set of reported races — report-flagged and plain runs see byte-identical
races, a property the integration tests pin down.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.detector import Race
from ..core.locations import location_family
from ..core.hb.witness import RaceWitness, race_witness
from ..core.report import ClassifiedRace, RaceReport
from ..core.trace import Trace
from ..obs import NULL
from .fingerprint import location_token, race_fingerprint

#: How many accesses to the racing location surround each side's timeline.
TIMELINE_WINDOW = 6


@dataclass
class SideEvidence:
    """One racing access with its provenance and HB ancestry."""

    role: str  # "prior" or "current"
    access: Dict[str, Any]
    operation: Dict[str, Any]
    source: str
    #: Rule-labeled edges from the nearest common ancestor down to this
    #: side's operation (empty when there is no common ancestor).
    path_from_nca: List[Dict[str, Any]] = field(default_factory=list)
    #: Accesses to the racing location around this access, in trace order.
    timeline: List[Dict[str, Any]] = field(default_factory=list)

    def rules(self) -> List[str]:
        """The paper rules ordering this side under the common ancestor."""
        return [step["rule"] for step in self.path_from_nca]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (matches the shipped report schema)."""
        return {
            "role": self.role,
            "access": self.access,
            "operation": self.operation,
            "source": self.source,
            "path_from_nca": self.path_from_nca,
            "timeline": self.timeline,
        }


@dataclass
class RaceEvidence:
    """The full evidence record for one reported race."""

    fingerprint: str
    kind: str
    location: str
    location_token: str
    location_family: str
    race_type: str
    harmful: bool
    reason: str
    nca: Optional[Dict[str, Any]]
    common_ancestor_count: int
    prior: SideEvidence
    current: SideEvidence
    explanation: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (matches the shipped report schema)."""
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "location": {
                "describe": self.location,
                "token": self.location_token,
                "family": self.location_family,
            },
            "race_type": self.race_type,
            "harmful": self.harmful,
            "reason": self.reason,
            "nca": self.nca,
            "common_ancestor_count": self.common_ancestor_count,
            "prior": self.prior.to_dict(),
            "current": self.current.to_dict(),
            "explanation": self.explanation,
        }


# ----------------------------------------------------------------------
# builders


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return str(value)


def _operation_dict(trace: Trace, op_id: int) -> Dict[str, Any]:
    try:
        operation = trace.operation(op_id)
    except KeyError:
        return {"op_id": op_id, "kind": "?", "label": "", "parent": None,
                "meta": {}}
    return {
        "op_id": operation.op_id,
        "kind": operation.kind,
        "label": operation.label,
        "parent": operation.parent,
        "meta": _jsonable(operation.meta),
    }


def _source_of(trace: Trace, op_id: int) -> str:
    """Script/HTML provenance of an operation, segment chain unwound."""
    chain: List[str] = []
    seen = set()
    current: Optional[int] = op_id
    while current is not None and current not in seen:
        seen.add(current)
        try:
            operation = trace.operation(current)
        except KeyError:
            chain.append(f"op#{current}")
            break
        chain.append(operation.describe())
        current = operation.parent
    return " ⊂ ".join(chain)


def _access_dict(race: Race, role: str) -> Dict[str, Any]:
    access = race.prior if role == "prior" else race.current
    return {
        "kind": access.kind,
        "op_id": access.op_id,
        "seq": access.seq,
        "is_call": access.is_call,
        "is_function_decl": access.is_function_decl,
        "detail": _jsonable(access.detail),
    }


def _timeline(trace: Trace, race: Race, seq: int) -> List[Dict[str, Any]]:
    """Accesses to the racing location nearest to ``seq``, in order."""
    nearest = sorted(trace.rows_of(race.location), key=lambda row: abs(row - seq))
    racing = {race.prior.seq, race.current.seq}
    return [
        {
            "seq": access.seq,
            "op_id": access.op_id,
            "kind": access.kind,
            "racing": access.seq in racing,
        }
        for access in map(trace.access, sorted(nearest[:TIMELINE_WINDOW]))
    ]


def _steps(witness_path) -> List[Dict[str, Any]]:
    return [
        {"src": step.src, "dst": step.dst, "rule": step.rule}
        for step in witness_path
    ]


def _explanation(race: Race, witness: RaceWitness, trace: Trace) -> str:
    a, b = race.prior.op_id, race.current.op_id
    if witness.ordered:
        return (
            f"ops {a} and {b} are HB-ordered — this pair should not have "
            "been reported (backend inconsistency)"
        )
    if witness.nca is None:
        return (
            f"no operation happens before both op {a} and op {b}: their "
            "happens-before cones are disjoint, so no rule chain can order "
            "them"
        )
    rules_a = {step.rule for step in witness.path_a}
    rules_b = {step.rule for step in witness.path_b}
    return (
        f"op {witness.nca} ({_source_of(trace, witness.nca)}) is the "
        f"nearest operation ordered before both sides; rules "
        f"{sorted(rules_a) or ['-']} order it before op {a} and rules "
        f"{sorted(rules_b) or ['-']} before op {b}, but no rule chain "
        f"connects op {a} and op {b} in either direction — the pair can "
        "happen concurrently"
    )


def build_race_evidence(
    classified: ClassifiedRace, trace: Trace, hb, obs=None
) -> RaceEvidence:
    """Build the evidence record for one classified race.

    ``hb`` is any object with the witness surface (``predecessors`` /
    ``edge_rule``) — every :func:`~repro.core.hb.backend.make_backend`
    product and the standalone chain clocks qualify.
    """
    obs = obs if obs is not None else NULL
    race = classified.race
    witness = race_witness(hb, race.prior.op_id, race.current.op_id)
    nca: Optional[Dict[str, Any]] = None
    if witness.nca is not None:
        nca = _operation_dict(trace, witness.nca)
    sides = {}
    for role, path in (("prior", witness.path_a), ("current", witness.path_b)):
        access = race.prior if role == "prior" else race.current
        sides[role] = SideEvidence(
            role=role,
            access=_access_dict(race, role),
            operation=_operation_dict(trace, access.op_id),
            source=_source_of(trace, access.op_id),
            path_from_nca=_steps(path),
            timeline=_timeline(trace, race, access.seq),
        )
    evidence = RaceEvidence(
        fingerprint=race_fingerprint(race, trace),
        kind=race.kind,
        location=race.location.describe(),
        location_token=location_token(race.location),
        location_family=location_family(race.location),
        race_type=classified.race_type,
        harmful=classified.harmful,
        reason=classified.reason,
        nca=nca,
        common_ancestor_count=witness.common_ancestor_count,
        prior=sides["prior"],
        current=sides["current"],
        explanation=_explanation(race, witness, trace),
    )
    if obs.enabled:
        obs.count("evidence.record")
        obs.count(
            "evidence.path_edges",
            len(evidence.prior.path_from_nca)
            + len(evidence.current.path_from_nca),
        )
    return evidence


def attach_evidence(
    report: RaceReport, trace: Trace, hb, obs=None
) -> List[RaceEvidence]:
    """Build and attach evidence for every race in a classified report."""
    obs = obs if obs is not None else NULL
    records: List[RaceEvidence] = []
    with obs.span("explain.evidence", cat="explain", races=report.total()):
        for classified in report.races:
            classified.evidence = build_race_evidence(
                classified, trace, hb, obs=obs
            )
            records.append(classified.evidence)
    return records
