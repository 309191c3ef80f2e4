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

The records of one pass share what repeats between them
(:class:`EvidenceCache`): many races on one page involve the same
operations and accesses and hang under the same nearest common ancestor,
so each operation, access, timeline entry, ``{src, dst, rule}`` step and
ancestor-to-operation path is built once and held by every record that
shows it.  Records are therefore read-only; the JSON is the same as with
a fresh build per race.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.detector import Race
from ..core.locations import location_family
from ..core.hb.witness import ChainAncestry, hb_path, race_witness
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


def _access_dict(access) -> Dict[str, Any]:
    return {
        "kind": access.kind,
        "op_id": access.op_id,
        "seq": access.seq,
        "is_call": access.is_call,
        "is_function_decl": access.is_function_decl,
        "detail": _jsonable(access.detail),
    }


def _timeline(
    trace: Trace, race: Race, seq: int, cache: EvidenceCache
) -> List[Dict[str, Any]]:
    """Accesses to the racing location nearest to ``seq``, in order."""
    nearest = sorted(trace.rows_of(race.location), key=lambda row: abs(row - seq))
    racing = {race.prior.seq, race.current.seq}
    entries = []
    for row in sorted(nearest[:TIMELINE_WINDOW]):
        flag = row in racing
        entry = cache.share(("entry", row, flag), _timeline_entry, trace, row, flag)
        entries.append(entry)
    return entries


def _timeline_entry(trace: Trace, row: int, racing: bool) -> Dict[str, Any]:
    access = trace.access(row)
    return {
        "seq": access.seq,
        "op_id": access.op_id,
        "kind": access.kind,
        "racing": racing,
    }


class EvidenceCache:
    """What the evidence records of one pass over a graph share.

    :func:`attach_evidence` and ``repro predict`` build one per pass and
    hand it to every :func:`build_race_evidence` call: common ancestors
    come off the chain clocks (:class:`~repro.core.hb.witness.
    ChainAncestry`), and each operation, access, timeline entry, step
    and nca-to-operation path is built once, then shared by reference.
    """

    def __init__(self, hb):
        self.hb = hb
        self.ancestry = ChainAncestry(hb)
        self._shared: Dict[tuple, Any] = {}

    def share(self, key: tuple, build, *args):
        """``build(*args)``, built on the first request for ``key``."""
        value = self._shared.get(key)
        if value is None:
            value = self._shared[key] = build(*args)
        return value

    def witness(self, a: int, b: int) -> Tuple[Optional[int], int, bool]:
        """``(nca, common ancestor count, ordered)`` of one pair."""
        common = self.ancestry.common(a, b)
        if common is not None:
            return common[0], common[1], False
        witness = race_witness(self.hb, a, b)
        return witness.nca, witness.common_ancestor_count, witness.ordered

    def path(self, nca: Optional[int], op_id: int) -> List[Dict[str, Any]]:
        """The rule-labelled steps from ``nca`` down to ``op_id`` (empty
        without a common ancestor or a chain)."""
        if nca is None:
            return []
        return self.share(("path", nca, op_id), self._path, nca, op_id)

    def _path(self, nca: int, op_id: int) -> List[Dict[str, Any]]:
        return [
            self.share(("step", step.src, step.dst), _step_dict, step)
            for step in hb_path(self.hb, nca, op_id) or ()
        ]


def _step_dict(step) -> Dict[str, Any]:
    return {"src": step.src, "dst": step.dst, "rule": step.rule}


def _explanation(
    race: Race,
    nca: Optional[int],
    ordered: bool,
    path_a: List[Dict[str, Any]],
    path_b: List[Dict[str, Any]],
    trace: Trace,
) -> str:
    a, b = race.prior.op_id, race.current.op_id
    if ordered:
        return (
            f"ops {a} and {b} are HB-ordered — this pair should not have "
            "been reported (backend inconsistency)"
        )
    if nca is None:
        return (
            f"no operation happens before both op {a} and op {b}: their "
            "happens-before cones are disjoint, so no rule chain can order "
            "them"
        )
    rules_a = {step["rule"] for step in path_a}
    rules_b = {step["rule"] for step in path_b}
    return (
        f"op {nca} ({_source_of(trace, nca)}) is the "
        f"nearest operation ordered before both sides; rules "
        f"{sorted(rules_a) or ['-']} order it before op {a} and rules "
        f"{sorted(rules_b) or ['-']} before op {b}, but no rule chain "
        f"connects op {a} and op {b} in either direction — the pair can "
        "happen concurrently"
    )


def build_race_evidence(
    classified: ClassifiedRace,
    trace: Trace,
    hb,
    obs=None,
    cache: Optional[EvidenceCache] = None,
    fingerprint: Optional[str] = None,
) -> RaceEvidence:
    """Build the evidence record for one classified race.

    ``hb`` is the run's :class:`~repro.core.hb.graph.HBGraph` (every
    :func:`~repro.core.hb.backend.make_backend` product).  ``cache`` is
    the pass's :class:`EvidenceCache` (a fresh one when omitted), and
    ``fingerprint`` the race's :func:`race_fingerprint` when the caller
    already has it.
    """
    obs = obs if obs is not None else NULL
    cache = cache if cache is not None else EvidenceCache(hb)
    race = classified.race
    nca_id, common_count, ordered = cache.witness(
        race.prior.op_id, race.current.op_id
    )
    share = cache.share
    nca: Optional[Dict[str, Any]] = None
    if nca_id is not None:
        nca = share(("operation", nca_id), _operation_dict, trace, nca_id)
    sides = {}
    for role in ("prior", "current"):
        access = race.prior if role == "prior" else race.current
        op_id = access.op_id
        sides[role] = SideEvidence(
            role=role,
            access=share(("access", access.seq), _access_dict, access),
            operation=share(("operation", op_id), _operation_dict, trace, op_id),
            source=share(("source", op_id), _source_of, trace, op_id),
            path_from_nca=cache.path(nca_id, op_id),
            timeline=_timeline(trace, race, access.seq, cache),
        )
    prior, current = sides["prior"], sides["current"]
    evidence = RaceEvidence(
        fingerprint=(
            race_fingerprint(race, trace) if fingerprint is None else fingerprint
        ),
        kind=race.kind,
        location=race.location.describe(),
        location_token=location_token(race.location),
        location_family=location_family(race.location),
        race_type=classified.race_type,
        harmful=classified.harmful,
        reason=classified.reason,
        nca=nca,
        common_ancestor_count=common_count,
        prior=prior,
        current=current,
        explanation=_explanation(
            race, nca_id, ordered, prior.path_from_nca,
            current.path_from_nca, trace,
        ),
    )
    if obs.enabled:
        obs.count("evidence.record")
        obs.count(
            "evidence.path_edges",
            len(prior.path_from_nca) + len(current.path_from_nca),
        )
    return evidence


def attach_evidence(
    report: RaceReport, trace: Trace, hb, obs=None
) -> List[RaceEvidence]:
    """Build and attach evidence for every race in a classified report."""
    obs = obs if obs is not None else NULL
    cache = EvidenceCache(hb)
    records: List[RaceEvidence] = []
    with obs.span("explain.evidence", cat="explain", races=report.total()):
        for classified in report.races:
            classified.evidence = build_race_evidence(
                classified, trace, hb, obs=obs, cache=cache
            )
            records.append(classified.evidence)
    return records
