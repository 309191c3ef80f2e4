"""Unit tests for the run ledger, regression differ and bench envelope."""

import json
import os

import pytest

from repro.obs import Instrumentation
from repro.obs.bench import (
    bench_envelope,
    validate_bench_document,
    validate_bench_file,
    write_bench,
)
from repro.obs.ledger import (
    Ledger,
    LedgerError,
    build_run_record,
    config_digest,
    lifecycle_index,
    strip_volatile,
)
from repro.obs.regress import (
    PhaseDelta,
    diff_records,
    perf_regressions,
    render_diff_text,
)


def _race(fingerprint, page="p.html", verdict="observed", harmful=True):
    return {
        "fingerprint": fingerprint,
        "verdict": verdict,
        "race_type": "variable",
        "harmful": harmful,
        "location": "p.html:1",
        "description": "write-write race",
        "page": page,
    }


def _record(races=(), config=None, duration_ms=1.0, command="check"):
    return build_run_record(
        command,
        config if config is not None else {"seed": 0},
        list(races),
        {"races": len(races)},
        duration_ms=duration_ms,
    )


class TestRunRecords:
    def test_identical_runs_are_byte_identical_modulo_volatile(self):
        obs_a, obs_b = Instrumentation(), Instrumentation()
        for obs in (obs_a, obs_b):
            with obs.span("phase"):
                obs.count("races.raw", 2)
        a = build_run_record(
            "check", {"seed": 1}, [_race("ff" * 8)], {"races": 1},
            obs=obs_a, duration_ms=3.0,
        )
        b = build_run_record(
            "check", {"seed": 1}, [_race("ff" * 8)], {"races": 1},
            obs=obs_b, duration_ms=900.0,
        )
        assert a["run_id"] != b["run_id"]
        stripped_a, stripped_b = strip_volatile(a), strip_volatile(b)
        assert stripped_a == stripped_b
        assert json.dumps(stripped_a, sort_keys=True) == json.dumps(
            stripped_b, sort_keys=True
        )

    def test_strip_volatile_removes_phase_timings_but_keeps_counts(self):
        obs = Instrumentation()
        with obs.span("phase"):
            pass
        record = build_run_record(
            "check", {}, [], {}, obs=obs, duration_ms=1.0
        )
        stripped = strip_volatile(record)
        assert "duration_ms" not in stripped
        assert "run_id" not in stripped
        assert "timestamp" not in stripped
        assert stripped["phases"]["phase"] == {"count": 1}

    def test_races_sorted_by_fingerprint(self):
        record = _record([_race("ff" * 8), _race("aa" * 8)])
        fingerprints = [race["fingerprint"] for race in record["races"]]
        assert fingerprints == sorted(fingerprints)

    def test_config_digest_ignores_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestLedgerAppendAndRead:
    def test_roundtrip(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led"))
        record = _record([_race("ab" * 8)])
        ledger.append(record)
        assert ledger.exists()
        assert ledger.records() == [record]

    def test_append_is_one_line_per_record(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record())
        ledger.append(_record())
        lines = open(ledger.path).read().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_append_rejects_invalid_record(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        record = _record()
        del record["config_digest"]
        with pytest.raises(ValueError):
            ledger.append(record)
        assert not ledger.exists()

    def test_interleaved_appends_from_two_ledgers_never_tear(self, tmp_path):
        # Two handles on the same file, appends interleaved — the O_APPEND
        # single-write contract must keep every line whole.
        first, second = Ledger(str(tmp_path)), Ledger(str(tmp_path))
        for index in range(10):
            (first if index % 2 == 0 else second).append(
                _record([_race(f"{index:02d}" * 8)])
            )
        records = first.records()
        assert len(records) == 10

    def test_records_fails_loudly_on_corrupt_line(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record())
        with open(ledger.path, "a") as handle:
            handle.write("{torn line\n")
        with pytest.raises(LedgerError, match=r":2: corrupt record"):
            ledger.records()

    def test_records_fails_loudly_on_schema_violation(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        record = _record()
        record["command"] = "frobnicate"
        line = json.dumps(record, sort_keys=True)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(ledger.path, "w") as handle:
            handle.write(line + "\n")
        with pytest.raises(LedgerError, match=":1:"):
            ledger.records()

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no ledger"):
            Ledger(str(tmp_path / "nope")).records()

    def test_records_fails_loudly_on_non_utf8(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record())
        with open(ledger.path, "ab") as handle:
            handle.write(b"\xff\n")
        with pytest.raises(LedgerError, match=r"ledger\.jsonl: not UTF-8"):
            ledger.records()


class TestLedgerFind:
    def test_find_by_index_and_id_and_prefix(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        for _ in range(3):
            ledger.append(_record())
        records = ledger.records()
        assert ledger.find("-1") == records[-1]
        assert ledger.find("0") == records[0]
        assert ledger.find(records[1]["run_id"]) == records[1]
        # run ids share the "r" prefix, so a generous unique prefix:
        unique = records[2]["run_id"][:-1]
        if sum(r["run_id"].startswith(unique) for r in records) == 1:
            assert ledger.find(unique) == records[2]

    def test_find_out_of_range_and_missing(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record())
        with pytest.raises(LedgerError, match="out of range"):
            ledger.find("5")
        with pytest.raises(LedgerError, match="no run matching"):
            ledger.find("zzz")

    def test_ambiguous_prefix(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record())
        ledger.append(_record())
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.find("r")


class TestBaseline:
    def test_baseline_is_latest_comparable_earlier_run(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record(config={"seed": 1}))
        ledger.append(_record(config={"seed": 2}))  # different digest
        ledger.append(_record(config={"seed": 1}))
        ledger.append(_record(config={"seed": 1}))
        records = ledger.records()
        baseline = ledger.baseline_for(records[-1])
        assert baseline["run_id"] == records[2]["run_id"]

    def test_no_baseline_for_first_comparable_run(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record(config={"seed": 2}))
        ledger.append(_record(config={"seed": 1}))
        records = ledger.records()
        assert ledger.baseline_for(records[-1]) is None

    def test_baseline_requires_same_command(self, tmp_path):
        ledger = Ledger(str(tmp_path))
        ledger.append(_record(command="corpus", config={}))
        ledger.append(_record(command="check", config={}))
        records = ledger.records()
        assert ledger.baseline_for(records[-1]) is None


class TestLifecycleIndex:
    def test_new_persisting_resolved_flaky(self):
        runs = [
            _record([_race("aa" * 8), _race("bb" * 8)]),
            _record([_race("aa" * 8), _race("cc" * 8)]),
            _record([_race("aa" * 8), _race("cc" * 8), _race("dd" * 8)]),
        ]
        index = {e["fingerprint"]: e for e in lifecycle_index(runs)}
        assert index["aa" * 8]["status"] == "persisting"
        assert index["bb" * 8]["status"] == "resolved"
        assert index["cc" * 8]["status"] == "persisting"
        assert index["dd" * 8]["status"] == "new"

    def test_flaky_requires_a_gap(self):
        runs = [
            _record([_race("aa" * 8)]),
            _record([]),
            _record([_race("aa" * 8)]),
        ]
        (entry,) = lifecycle_index(runs)
        assert entry["status"] == "flaky"
        assert entry["occurrences"] == 2
        assert entry["runs_considered"] == 3

    def test_first_and_last_seen_are_run_ids(self):
        runs = [_record([_race("aa" * 8)]), _record([_race("aa" * 8)])]
        (entry,) = lifecycle_index(runs)
        assert entry["first_seen"] == runs[0]["run_id"]
        assert entry["last_seen"] == runs[1]["run_id"]


class TestDiff:
    def test_new_resolved_common(self):
        a = _record([_race("aa" * 8), _race("bb" * 8)])
        b = _record([_race("bb" * 8), _race("cc" * 8)])
        diff = diff_records(a, b)
        assert [r["fingerprint"] for r in diff.new_races] == ["cc" * 8]
        assert [r["fingerprint"] for r in diff.resolved_races] == ["aa" * 8]
        assert diff.common == 1
        assert diff.same_config

    def test_config_mismatch_flagged(self):
        a = _record(config={"seed": 1})
        b = _record(config={"seed": 2})
        diff = diff_records(a, b)
        assert not diff.same_config
        assert "different config digests" in render_diff_text(diff)

    def test_perf_regression_gate(self):
        a = _record(duration_ms=100.0)
        b = _record(duration_ms=150.0)
        diff = diff_records(a, b)
        assert [d.phase for d in perf_regressions(diff, 20.0)] == ["<run>"]
        assert perf_regressions(diff, 60.0) == []

    def test_tiny_phases_never_regress(self):
        a = _record(duration_ms=0.1)
        b = _record(duration_ms=0.9)  # +800% but under min_ms
        diff = diff_records(a, b)
        assert perf_regressions(diff, 20.0) == []

    def test_diff_text_lists_new_and_resolved(self):
        a = _record([_race("aa" * 8)])
        b = _record([_race("bb" * 8)])
        text = render_diff_text(diff_records(a, b))
        assert "NEW" in text and "bb" * 8 in text
        assert "RESOLVED" in text and "aa" * 8 in text


class TestPhaseDeltaZeroBaseline:
    """A 0 ms baseline phase must never divide by zero (the old crash)."""

    def test_new_phase_has_infinite_pct(self):
        delta = PhaseDelta(phase="detect", a_ms=0.0, b_ms=5.0)
        assert delta.delta_pct == float("inf")

    def test_absent_phase_has_no_pct(self):
        delta = PhaseDelta(phase="detect", a_ms=0.0, b_ms=0.0)
        assert delta.delta_pct is None

    def test_to_dict_stays_json_safe(self):
        document = PhaseDelta(phase="detect", a_ms=0.0, b_ms=5.0).to_dict()
        assert document["delta_pct"] is None  # inf is not valid JSON
        assert json.dumps(document)  # never raises
        finite = PhaseDelta(phase="detect", a_ms=4.0, b_ms=5.0).to_dict()
        assert finite["delta_pct"] == 25.0

    def test_new_expensive_phase_flags_as_regression(self):
        a = _record(duration_ms=10.0)
        b = _record(duration_ms=10.0)
        b["phases"] = {"detect": {"total_ms": 50.0, "count": 1}}
        diff = diff_records(a, b)
        flagged = {delta.phase for delta in perf_regressions(diff, 20.0)}
        assert "detect" in flagged

    def test_zero_to_zero_never_flags(self):
        a = _record(duration_ms=0.0)
        b = _record(duration_ms=0.0)
        assert perf_regressions(diff_records(a, b), 1.0) == []

    def test_render_marks_new_phases(self):
        a = _record(duration_ms=10.0)
        b = _record(duration_ms=10.0)
        b["phases"] = {"detect": {"total_ms": 50.0, "count": 1}}
        text = render_diff_text(diff_records(a, b))
        assert "new" in text  # rendered instead of an infinite percent


class TestBenchEnvelope:
    def test_envelope_fields_and_roundtrip(self, tmp_path):
        path = write_bench(
            "sample", {"speedup": 2.0, "missing": None},
            payload={"detail": [1, 2]}, directory=str(tmp_path),
        )
        assert os.path.basename(path) == "BENCH_sample.json"
        document = validate_bench_file(path)
        assert document["benchmark"] == "sample"
        assert document["metrics"]["speedup"] == 2.0
        assert document["payload"] == {"detail": [1, 2]}

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            bench_envelope("x", {"name": "fast"})

    def test_validate_rejects_missing_envelope(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"benchmark": "bad", "metrics": {"a": 1}}')
        with pytest.raises(ValueError, match="envelope"):
            validate_bench_file(str(path))

    def test_validate_rejects_empty_metrics(self):
        document = bench_envelope("x", {"a": 1.0})
        document["metrics"] = {}
        with pytest.raises(ValueError, match="non-empty"):
            validate_bench_document(document)

    def test_committed_bench_files_validate(self):
        """Every committed ``BENCH_*.json`` carries a valid envelope."""
        import glob

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        assert paths
        for path in paths:
            validate_bench_file(path)


#: A ``corpus`` record written before the sampling tier and the extra HB
#: backends were removed: ``detector``/``sample_*`` config keys,
#: ``hb_backend: "chains"`` and a per-race ``tier``.
LEGACY_RECORD = {
    "command": "corpus",
    "config": {
        "detector": "two-tier",
        "hb_backend": "chains",
        "sample_budget": 64,
        "sample_seed": 0,
        "schedule_seed": None,
        "scheduler": "fifo",
        "seed": 0,
        "sites": 2,
    },
    "config_digest": "ad0b023c5b73eb5f",
    "counters": {"access.read": 590, "access.write": 1366},
    "duration_ms": 227.014,
    "format": "webracer-run-record",
    "phases": {"check_page": {"count": 2, "self_ms": 2.984, "total_ms": 150.537}},
    "races": [
        {
            "description": "[html/benign] read-write race on element "
            "#nAmericanExpr1_7: op 18 (write) vs op 66 (read)",
            "fingerprint": "046aea52ee47cae3",
            "harmful": False,
            "location": "HElemLocation(element=('id', 1, 'nAmericanExpr1_7'))",
            "page": "AmericanExpress",
            "race_type": "html",
            "tier": "escalated",
            "verdict": "observed",
        }
    ],
    "run_id": "r18deeb02c7f60d8e.5656",
    "timestamp": "2026-10-16T05:21:38+0000",
    "totals": {
        "races_filtered": 49,
        "races_harmful": 7,
        "sites_checked": 2,
        "sites_failed": 0,
        "sites_with_races": 2,
    },
    "version": 1,
}


#: Stands for the page path in the run-config cases below.
PAGE = "<page>"
_DEFAULTS = {"seed": 0, "hb_backend": "graph"}
_SCHEDULER = {"scheduler": "fifo", "schedule_seed": None}
_CONNECTION = {
    "network": "connection",
    "bandwidth": 1500.0,
    "rtt": 40.0,
    "connections_per_origin": 6,
}
_UNIFORM_CASES = [
    ("check", [PAGE], {"page": PAGE, **_DEFAULTS, **_SCHEDULER}),
    ("corpus", ["--sites", "2"], {"sites": 2, **_DEFAULTS, **_SCHEDULER}),
    (
        "explore",
        [PAGE, "--schedules", "2"],
        {"path": PAGE, "schedules": 2, **_DEFAULTS},
    ),
    (
        "predict",
        [PAGE, "--budget", "2"],
        {"path": PAGE, "budget": 2, "minimize": False, **_DEFAULTS},
    ),
]
#: (command, argv, ledger config) as recorded before ``RunConfig``.
RUN_CONFIG_CASES = [
    *_UNIFORM_CASES,
    *(
        (command, [*argv, "--network", "connection"], {**config, **_CONNECTION})
        for command, argv, config in _UNIFORM_CASES
    ),
    (
        "corpus",
        ["--sites", "2", "--scheduler", "random", "--schedule-seed", "3"],
        {"sites": 2, **_DEFAULTS, "scheduler": "random", "schedule_seed": 3},
    ),
]
RUN_CONFIG_IDS = [
    *(f"{command}-uniform" for command, _, _ in _UNIFORM_CASES),
    *(f"{command}-connection" for command, _, _ in _UNIFORM_CASES),
    "corpus-random",
]
#: Corpus ``--sites 2`` digests, keyed by the flags after ``--sites 2``.
CORPUS_DIGESTS = {
    (): "fe4d8c5d2da74929",
    ("--network", "connection"): "c9a2a952f71f7bcf",
    ("--scheduler", "random", "--schedule-seed", "3"): "a707814a0f3dbefa",
}


class TestLedgerCompatibility:
    def test_default_corpus_config_digest_is_stable(self):
        config = {
            "sites": 2,
            "seed": 0,
            "scheduler": "fifo",
            "schedule_seed": None,
            "hb_backend": "graph",
        }
        assert config_digest(config) == "fe4d8c5d2da74929"

    def test_default_corpus_run_keeps_its_digest(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["corpus", "--sites", "2", "--ledger", str(tmp_path)]) == 0
        capsys.readouterr()
        (record,) = Ledger(str(tmp_path)).records()
        assert record["config_digest"] == "fe4d8c5d2da74929"

    def test_legacy_record_loads_in_history_and_diff(self, tmp_path, capsys):
        from repro.__main__ import main

        assert config_digest(LEGACY_RECORD["config"]) == LEGACY_RECORD["config_digest"]
        (tmp_path / "ledger.jsonl").write_text(json.dumps(LEGACY_RECORD) + "\n")
        assert main(["corpus", "--sites", "2", "--ledger", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["history", "--ledger", str(tmp_path)]) == 0
        assert "046aea52ee47cae3" in capsys.readouterr().out
        assert main(["diff", "0", "1", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "config" in out

    @pytest.mark.parametrize(
        "command, argv, expected", RUN_CONFIG_CASES, ids=RUN_CONFIG_IDS
    )
    def test_run_config_keys_are_unchanged(
        self, command, argv, expected, tmp_path, capsys
    ):
        """Every command's ledger config keeps the keys and values it had
        before the run settings became one ``RunConfig``, so old ledgers
        still baseline against new runs."""
        from repro.__main__ import main

        page = tmp_path / "page.html"
        page.write_text("<div id='a'></div><script>x = 1;</script>")
        argv = [str(page) if arg == PAGE else arg for arg in argv]
        expected = {
            key: str(page) if value == PAGE else value
            for key, value in expected.items()
        }
        ledger = tmp_path / "ledger"
        assert main([command, *argv, "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        (record,) = Ledger(str(ledger)).records()
        assert record["config"] == expected
        if command == "corpus":
            assert record["config_digest"] == CORPUS_DIGESTS[tuple(argv[2:])]

    def test_failed_predict_page_writes_no_races(self, tmp_path, capsys, monkeypatch):
        """A page whose prediction fails after its base run has observed
        races, but none of them — and none of its partial predictions —
        reach the ledger."""
        import repro.predict
        from repro.__main__ import main

        def explode(*args, **kwargs):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(repro.predict, "predict_races", explode)
        pages = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "pages")
        page = os.path.join(pages, "form_race.html")
        ledger = tmp_path / "ledger"
        argv = ["predict", page, "--budget", "2", "--ledger", str(ledger)]
        argv += ["--resource", "hint.js=" + os.path.join(pages, "hint.js")]
        assert main(argv) == 2
        assert "RuntimeError: sweep failed" in capsys.readouterr().err
        store = Ledger(str(ledger))
        records = store.records() if store.exists() else []
        assert [
            race for record in records for race in record["races"]
            if race["page"] == page
        ] == []
