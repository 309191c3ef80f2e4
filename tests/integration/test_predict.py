"""Integration tests for single-trace race prediction (`repro predict`).

The acceptance property of the prediction pipeline: from ONE recorded
FIFO execution of the polling page, SHB predicts a race the exact
detector does not report in that schedule, and a witness reordering
replay-confirms it — coverage the explore matrix needs N runs to reach.
"""

import json
import pathlib

import pytest

from repro import WebRacer
from repro.__main__ import main
from repro.config import RunConfig
from repro.core.hb.shb import predict_races
from repro.core.serialize import dumps_trace, loads_trace
from repro.explain.schedule_report import (
    assemble_predict_document,
    render_predict_text,
    validate_predict_document,
)
from repro.predict import (
    OUTCOME_CONFIRMED,
    predict_page,
    predict_pages,
    witness_schedule_specs,
)
from repro.schedule_runner import PageInput, load_page_inputs

from .test_explore import POLL_HTML, POLL_RESOURCES

EXAMPLE_PAGES = load_page_inputs(
    str(pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages")
)


@pytest.fixture
def poll_page():
    return PageInput(url="poll.html", html=POLL_HTML, resources=dict(POLL_RESOURCES))


@pytest.fixture
def pages_dir(tmp_path):
    pages = tmp_path / "pages"
    pages.mkdir()
    (pages / "poll.html").write_text(POLL_HTML)
    for name, content in POLL_RESOURCES.items():
        (pages / name).write_text(content)
    return pages


@pytest.fixture(scope="module")
def poll_report():
    """One prediction pass over the polling page (shared, read-only)."""
    page = PageInput(url="poll.html", html=POLL_HTML, resources=dict(POLL_RESOURCES))
    return predict_page(page, RunConfig(seed=0), minimize=True)


class TestWitnessSchedules:
    def test_adversarial_first_then_seeded_randoms(self):
        specs = witness_schedule_specs(seed=0, budget=3)
        assert [s.policy for s in specs] == ["adversarial", "random", "random"]
        assert specs[0].seed is None
        assert specs[1].seed != specs[2].seed

    def test_budget_one_is_adversarial_only(self):
        assert [s.sid for s in witness_schedule_specs(0, 1)] == ["adversarial"]

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            witness_schedule_specs(0, 0)


class TestPredictPage:
    def test_single_trace_beats_the_observed_schedule(self, poll_report):
        """The tentpole acceptance: >= 1 predicted race that the exact
        detector does not report in the observed FIFO schedule, confirmed
        by replaying a witnessing reordering."""
        assert poll_report.ok
        assert poll_report.observed_fingerprints
        confirmed = poll_report.confirmed()
        assert confirmed
        for prediction in confirmed:
            assert prediction.fingerprint not in poll_report.observed_fingerprints
            assert prediction.outcome == OUTCOME_CONFIRMED
            assert prediction.witness_sid is not None
            assert prediction.witness_trace_dict is not None
            assert prediction.replay_ok is True

    def test_confirmation_came_from_a_witness_run(self, poll_report):
        confirmed = poll_report.confirmed()[0]
        witness = next(
            run
            for run in poll_report.witness_runs
            if run.sid == confirmed.witness_sid
        )
        assert confirmed.fingerprint in witness.fingerprints
        assert confirmed.fingerprint not in poll_report.observed_fingerprints

    def test_predictions_carry_classification_and_evidence(self, poll_report):
        for prediction in poll_report.predictions:
            assert prediction.status in ("schedulable", "conditional")
            assert prediction.race_type
            assert prediction.evidence is not None
            assert prediction.evidence["fingerprint"] == prediction.fingerprint
            assert len(prediction.op_pair) == 2
            if prediction.status == "conditional":
                assert prediction.blocking_rf

    def test_minimized_witness_recorded(self, poll_report):
        minimized = [p for p in poll_report.confirmed() if p.minimized]
        assert minimized
        outcome = minimized[0].minimized
        assert outcome["fingerprint"] == minimized[0].fingerprint
        assert (
            outcome["minimized_divergences"] <= outcome["original_divergences"]
        )

    def test_shb_accounting_present(self, poll_report):
        assert poll_report.rf_edges > 0
        assert poll_report.rf_racy > 0
        assert "SHB:" in poll_report.shb_summary
        assert poll_report.runs_executed > 1
        assert poll_report.base_trace_dict is not None

    def test_crash_isolated_into_report_error(self):
        broken = PageInput(url="broken.html", html=None, resources={})
        report = predict_page(broken, RunConfig(seed=0))
        assert not report.ok
        assert report.error
        assert report.predictions == []


class TestPredictDocument:
    def test_document_validates_and_counts(self, poll_report):
        document = assemble_predict_document([poll_report])
        validate_predict_document(document)
        totals = document["totals"]
        assert totals["pages"] == 1
        assert totals["predicted"] == len(poll_report.predictions)
        assert totals["confirmed"] == len(poll_report.confirmed())
        assert (
            totals["predicted_only"]
            == totals["predicted"] - totals["confirmed"]
        )

    def test_document_is_deterministic(self, poll_page):
        page2 = PageInput(
            url="poll.html", html=POLL_HTML, resources=dict(POLL_RESOURCES)
        )
        first = assemble_predict_document([predict_page(poll_page, RunConfig(seed=0))])
        second = assemble_predict_document([predict_page(page2, RunConfig(seed=0))])
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_evidence_can_be_omitted(self, poll_report):
        document = assemble_predict_document([poll_report], with_evidence=False)
        validate_predict_document(document)
        for page in document["pages"]:
            for prediction in page["predictions"]:
                assert prediction.get("evidence") is None

    def test_render_mentions_outcomes(self, poll_report):
        document = assemble_predict_document([poll_report])
        text = render_predict_text(document)
        assert OUTCOME_CONFIRMED in text
        assert "confirmed by replay" in text

    def test_failed_page_documented(self):
        broken = PageInput(url="broken.html", html=None, resources={})
        reports = predict_pages([broken], seed=0)
        document = assemble_predict_document(reports)
        validate_predict_document(document)
        assert document["pages"][0]["error"]


class TestPredictCli:
    def test_predict_writes_validated_json(self, pages_dir, tmp_path, capsys):
        out_json = tmp_path / "predict.json"
        status = main([
            "predict", str(pages_dir), "--seed", "0",
            "--json", str(out_json),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "predicted races for 1 page(s)" in out
        assert OUTCOME_CONFIRMED in out
        document = json.loads(out_json.read_text())
        validate_predict_document(document)
        assert document["totals"]["confirmed"] >= 1

    def test_minimize_flag_records_minimization(self, pages_dir, capsys):
        status = main([
            "predict", str(pages_dir), "--minimize", "--budget", "4",
        ])
        assert status == 0
        assert "minimized to" in capsys.readouterr().out

    def test_bad_budget_exits_2(self, pages_dir, capsys):
        assert main(["predict", str(pages_dir), "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_bad_resource_mapping_exits_2(self, pages_dir, capsys):
        page = pages_dir / "poll.html"
        status = main(["predict", str(page), "--resource", "noequals"])
        assert status == 2
        assert "expected url=path" in capsys.readouterr().err

    def test_missing_resource_file_exits_2(self, pages_dir, capsys):
        page = pages_dir / "poll.html"
        status = main([
            "predict", str(page), "--resource", "lib.js=/nonexistent/lib.js",
        ])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert main(["predict", "/nonexistent/pages"]) == 2

    def test_unwritable_json_exits_2(self, pages_dir, capsys):
        status = main([
            "predict", str(pages_dir), "--json", "/nonexistent/dir/out.json",
        ])
        assert status == 2
        assert "does not exist" in capsys.readouterr().err

    def test_file_mode_with_resource_mappings(self, pages_dir, capsys):
        page = pages_dir / "poll.html"
        status = main([
            "predict", str(page),
            "--resource", f"lib.js={pages_dir / 'lib.js'}",
            "--resource", f"boot.js={pages_dir / 'boot.js'}",
        ])
        assert status == 0
        assert OUTCOME_CONFIRMED in capsys.readouterr().out


class TestShbBackendCli:
    def test_check_plain_backend_prints_no_predictions(self, pages_dir, capsys):
        main([
            "check", str(pages_dir / "poll.html"),
            "--resource", f"lib.js={pages_dir / 'lib.js'}",
            "--resource", f"boot.js={pages_dir / 'boot.js'}",
        ])
        assert "predicted" not in capsys.readouterr().out

    def test_analyze_replays_predictions_offline(
        self, pages_dir, tmp_path, capsys
    ):
        trace_json = tmp_path / "trace.json"
        main([
            "check", str(pages_dir / "poll.html"),
            "--resource", f"lib.js={pages_dir / 'lib.js'}",
            "--resource", f"boot.js={pages_dir / 'boot.js'}",
            "--json", str(trace_json),
        ])
        capsys.readouterr()
        status = main(["analyze", str(trace_json), "--predict"])
        assert status in (0, 1)
        out = capsys.readouterr().out
        assert "SHB:" in out
        assert "predicted races (SHB" in out
        assert "[schedulable]" in out


class TestOfflinePrediction:
    """``analyze --predict`` sweeps a captured trace: reloading the trace
    must predict exactly what the sweep over the live run predicts."""

    @pytest.mark.parametrize("network", ["uniform", "connection"])
    @pytest.mark.parametrize(
        "page", EXAMPLE_PAGES, ids=lambda page: pathlib.Path(page.url).name
    )
    def test_reloaded_trace_predicts_what_the_live_run_does(self, page, network):
        report = WebRacer(seed=0, network=network).check_page(
            page.html, resources=page.resources, url=page.url,
            sizes=page.sizes or None,
        )
        graph = report.page.monitor.graph
        offline = loads_trace(dumps_trace(report.trace, graph)).predict()
        live = predict_races(report.trace, graph, report.raw_races)
        assert [p.describe() for p in offline.predictions] == [
            p.describe() for p in live.predictions
        ]
        assert offline.summary() == live.summary()
