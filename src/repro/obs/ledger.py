"""Append-only on-disk run ledger (``--ledger DIR``).

Every ``check``/``corpus``/``explore``/``predict`` invocation is amnesiac
by default: spans, counters and race fingerprints vanish with the
process, so "is this race new, resolved, or flaky?" and "did this phase
get slower?" are unanswerable without manual archaeology.  The ledger is
the cross-run memory: when a run passes ``--ledger DIR``, exactly one
**run record** is appended to ``DIR/ledger.jsonl`` — command + config +
config digest, per-phase span durations and counters snapshotted from
:class:`repro.obs.Instrumentation`, and the full set of race
fingerprints with a verdict (``observed``, ``stable``,
``schedule-sensitive``, ``predicted+confirmed``, ``predicted-only``).

Design points:

* **Append-only JSONL.**  One JSON object per line, written with a
  single ``write()`` on a file opened in append mode — on POSIX
  filesystems ``O_APPEND`` writes from concurrent processes land whole,
  so two sequential runs interleaved with a ``--jobs`` run still yield
  one intact line each.  Nothing ever rewrites the file; the
  fingerprint-lifecycle index (:func:`lifecycle_index`) is *derived* at
  read time rather than stored, so there is no index file to corrupt.
* **Deterministic modulo time.**  Two runs with the same command and
  seeds produce byte-identical records after :func:`strip_volatile`
  removes the run id, timestamp and duration fields — the property the
  regression differ (:mod:`repro.obs.regress`) and the tests pin.
* **Schema-validated.**  Every record is validated against
  :data:`repro.explain.schema.RUN_RECORD_SCHEMA` before it is written
  and after it is read (imported lazily to keep ``repro.obs`` free of
  import cycles).
* **Zero overhead when off.**  The ledger is opt-in; without
  ``--ledger`` no :class:`Ledger` is ever constructed and the null-sink
  contract of :mod:`repro.obs` is untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..inputs import InputError
from .core import Instrumentation

#: The one file a ledger directory owns.
LEDGER_FILENAME = "ledger.jsonl"

RUN_RECORD_FORMAT = "webracer-run-record"
RUN_RECORD_VERSION = 1

#: Commands that append run records.
RUN_COMMANDS = ("check", "corpus", "explore", "predict")

#: Race verdicts a run record may carry.
RACE_VERDICTS = (
    "observed",
    "stable",
    "schedule-sensitive",
    "predicted+confirmed",
    "predicted-only",
)

#: Top-level record fields that vary run-to-run even for identical inputs.
VOLATILE_FIELDS = ("run_id", "timestamp", "duration_ms")
#: Per-phase fields that are wall-clock measurements.
VOLATILE_PHASE_FIELDS = ("total_ms", "self_ms")

#: Lifecycle statuses :func:`lifecycle_index` assigns.
STATUS_NEW = "new"
STATUS_PERSISTING = "persisting"
STATUS_RESOLVED = "resolved"
STATUS_FLAKY = "flaky"


def config_digest(config: Dict[str, Any]) -> str:
    """16-hex digest of a run's semantic configuration.

    Output destinations never belong in ``config`` (a run is the same
    run whether its report lands in ``/tmp`` or CI's workspace), so two
    runs with equal digests are directly comparable.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _phases_from_obs(obs: Optional[Instrumentation]) -> Dict[str, Dict[str, Any]]:
    if obs is None:
        return {}
    return {
        name: {
            "count": stat.count,
            "total_ms": round(stat.total / 1000.0, 3),
            "self_ms": round(stat.self_total / 1000.0, 3),
        }
        for name, stat in sorted(obs.span_totals().items())
    }


def _counters_from_obs(obs: Optional[Instrumentation]) -> Dict[str, int]:
    if obs is None:
        return {}
    return dict(sorted(obs.counter_totals().items()))


def new_run_id() -> str:
    """A unique, time-ordered run id (volatile — stripped for diffs)."""
    return f"r{time.time_ns():016x}.{os.getpid()}"


def build_run_record(
    command: str,
    config: Dict[str, Any],
    races: Sequence[Dict[str, Any]],
    totals: Dict[str, Any],
    obs: Optional[Instrumentation] = None,
    duration_ms: float = 0.0,
    run_id: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one run record (validated by :meth:`Ledger.append`).

    ``races`` entries need ``fingerprint``/``verdict``/``race_type``/
    ``harmful``/``location``/``page`` keys; they are sorted by
    ``(fingerprint, verdict)`` so the record is deterministic in the
    run's results alone.
    """
    if timestamp is None:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return {
        "format": RUN_RECORD_FORMAT,
        "version": RUN_RECORD_VERSION,
        "run_id": run_id if run_id is not None else new_run_id(),
        "timestamp": timestamp,
        "command": command,
        "config": dict(config),
        "config_digest": config_digest(config),
        "duration_ms": round(duration_ms, 3),
        "phases": _phases_from_obs(obs),
        "counters": _counters_from_obs(obs),
        "totals": dict(totals),
        "races": sorted(
            (dict(race) for race in races),
            key=lambda race: (race.get("fingerprint", ""), race.get("verdict", "")),
        ),
    }


def strip_volatile(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` without run id / timestamp / duration fields.

    What remains is a pure function of the run's inputs and results, so
    equal stripped records mean "the same run happened again".
    """
    stripped = {
        key: value for key, value in record.items() if key not in VOLATILE_FIELDS
    }
    stripped["phases"] = {
        name: {
            key: value
            for key, value in phase.items()
            if key not in VOLATILE_PHASE_FIELDS
        }
        for name, phase in record.get("phases", {}).items()
    }
    return stripped


def _validate_record(record: Dict[str, Any]) -> None:
    # Lazy import: repro.explain imports repro.core which imports
    # repro.obs — a top-level import here would close that cycle.
    from ..explain.schema import validate_run_record

    validate_run_record(record)


class LedgerError(InputError):
    """A ledger directory or file is unusable (message is one line)."""


class Ledger:
    """One on-disk run store: ``<directory>/ledger.jsonl``."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, LEDGER_FILENAME)

    # ------------------------------------------------------------------
    # writing

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Validate ``record`` and append it as one JSONL line.

        The single ``write()`` of a ``\\n``-terminated line on an
        append-mode handle is what makes concurrent appends safe: the
        kernel serializes ``O_APPEND`` writes, so interleaved runs never
        tear each other's lines.
        """
        _validate_record(record)
        os.makedirs(self.directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.path, "a") as handle:
            handle.write(line)
        return record

    # ------------------------------------------------------------------
    # reading

    def exists(self) -> bool:
        return os.path.isfile(self.path)

    def records(self) -> List[Dict[str, Any]]:
        """Every run record, in append (chronological) order.

        Raises :class:`LedgerError` when the file cannot be read as UTF-8
        text, and with the offending line number on a torn or non-record
        line — a ledger that lies is worse than one that fails loudly.
        """
        if not self.exists():
            raise LedgerError(f"no ledger at {self.path!r}")
        try:
            with open(self.path, encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise LedgerError(f"{self.path}: not UTF-8 (byte {exc.start})") from None
        records: List[Dict[str, Any]] = []
        for number, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise LedgerError(
                    f"{self.path}:{number}: corrupt record: {exc}"
                ) from None
            try:
                _validate_record(record)
            except ValueError as exc:
                raise LedgerError(f"{self.path}:{number}: {exc}") from None
            records.append(record)
        return records

    def find(self, run_ref: str) -> Dict[str, Any]:
        """Resolve a run reference to a record.

        Accepts an exact ``run_id``, a unique id prefix, or a signed
        integer position (``-1`` = most recent, ``0`` = first).
        """
        records = self.records()
        if not records:
            raise LedgerError(f"ledger {self.path!r} holds no runs")
        try:
            index = int(run_ref)
        except ValueError:
            pass
        else:
            if -len(records) <= index < len(records):
                return records[index]
            raise LedgerError(
                f"run index {run_ref} out of range; ledger holds "
                f"{len(records)} run(s)"
            )
        matches = [
            record
            for record in records
            if record["run_id"] == run_ref or record["run_id"].startswith(run_ref)
        ]
        if not matches:
            raise LedgerError(f"no run matching {run_ref!r} in {self.path!r}")
        exact = [record for record in matches if record["run_id"] == run_ref]
        if exact:
            return exact[-1]
        distinct = {record["run_id"] for record in matches}
        if len(distinct) > 1:
            raise LedgerError(
                f"run reference {run_ref!r} is ambiguous "
                f"({len(distinct)} matches)"
            )
        return matches[-1]

    def baseline_for(self, latest: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The most recent earlier run comparable to ``latest``.

        Comparable means same command and same config digest — the only
        pairing for which "zero new races" and per-phase deltas carry
        meaning.
        """
        earlier: List[Dict[str, Any]] = []
        for record in self.records():
            # Records are chronological; anything at or after ``latest``
            # is not a baseline for it.
            if record["run_id"] == latest["run_id"]:
                break
            if (
                record["command"] == latest["command"]
                and record["config_digest"] == latest["config_digest"]
            ):
                earlier.append(record)
        return earlier[-1] if earlier else None


# ----------------------------------------------------------------------
# the fingerprint-lifecycle index


def lifecycle_index(
    records: Iterable[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Derive the per-fingerprint lifecycle from run records.

    For every fingerprint ever recorded: the first/last run that saw it,
    how many runs saw it, and a status —

    * ``new``: first seen in the most recent run;
    * ``persisting``: present in every run since first seen, including
      the most recent;
    * ``flaky``: present in the most recent run but absent from at least
      one run in between;
    * ``resolved``: absent from the most recent run.

    The index is a pure function of the records, computed at read time —
    the on-disk format stays append-only.
    """
    ordered = list(records)
    entries: Dict[str, Dict[str, Any]] = {}
    seen_in: Dict[str, List[int]] = {}
    for position, record in enumerate(ordered):
        for race in record.get("races", ()):
            fingerprint = race["fingerprint"]
            entry = entries.get(fingerprint)
            if entry is None:
                entry = entries[fingerprint] = {
                    "fingerprint": fingerprint,
                    "first_seen": record["run_id"],
                    "last_seen": record["run_id"],
                    "occurrences": 0,
                    "race_type": race.get("race_type", ""),
                    "harmful": bool(race.get("harmful", False)),
                    "location": race.get("location", ""),
                    "verdict": race.get("verdict", "observed"),
                }
                seen_in[fingerprint] = []
            entry["last_seen"] = record["run_id"]
            entry["verdict"] = race.get("verdict", entry["verdict"])
            entry["harmful"] = bool(race.get("harmful", entry["harmful"]))
            if not seen_in[fingerprint] or seen_in[fingerprint][-1] != position:
                seen_in[fingerprint].append(position)
                entry["occurrences"] += 1
    latest = len(ordered) - 1
    for fingerprint, entry in entries.items():
        positions = seen_in[fingerprint]
        first, last = positions[0], positions[-1]
        in_latest = last == latest
        gaps = (last - first + 1) != len(positions)
        if not in_latest:
            status = STATUS_RESOLVED
        elif first == latest:
            status = STATUS_NEW
        elif gaps:
            status = STATUS_FLAKY
        else:
            status = STATUS_PERSISTING
        entry["status"] = status
        entry["runs_considered"] = len(ordered)
    return sorted(entries.values(), key=lambda entry: entry["fingerprint"])
