"""End-to-end tests for HAR-driven checking and the connection model.

The bundled capture ``examples/pages/shop.har`` is the PR's acceptance
workload: a timer-guarded fallback write races with a 1.2 MB catalog
script.  Under the uniform latency model every resource arrives well
before the 250 ms timer, so the guarded write never executes and no race
is observable; under the connection model the catalog's size pushes its
arrival past the timer and the filtered form-field race appears.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.browser.scheduler import DecisionScheduler, SeededRandomScheduler
from repro.config import RunConfig
from repro.explain.schedule_report import assemble_explore_document
from repro.schedule_runner import (
    explore_pages,
    load_page_inputs,
    report_run,
    run_page_once,
)

EXAMPLE_HAR = str(
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages" / "shop.har"
)

CONNECTION = RunConfig(seed=0, network="connection")


def shop_page():
    [page] = load_page_inputs(EXAMPLE_HAR)
    return page


class TestCheckGolden:
    def test_uniform_model_runs_clean(self, capsys):
        assert main(["check", EXAMPLE_HAR]) == 0
        out = capsys.readouterr().out
        assert "0 after filtering" in out
        assert "#promo.value" not in out

    def test_connection_model_surfaces_the_race(self, capsys):
        assert main(["check", EXAMPLE_HAR, "--network", "connection"]) == 0
        out = capsys.readouterr().out
        assert "#promo.value" in out
        assert "write-write race" in out

    def test_differential_is_the_point(self, capsys):
        """The acceptance bar: the connection model finds a filtered race
        on the bundled capture that the uniform model never reports."""
        main(["check", EXAMPLE_HAR])
        uniform_out = capsys.readouterr().out
        main(["check", EXAMPLE_HAR, "--network", "connection"])
        connection_out = capsys.readouterr().out
        assert "#promo.value" in connection_out
        assert "#promo.value" not in uniform_out

    def test_cli_resource_overrides_har_body(self, tmp_path, capsys):
        stub = tmp_path / "catalog.js"
        stub.write_text("// neutered catalog\n")
        assert main([
            "check", EXAMPLE_HAR,
            "--resource", f"https://cdn.shop-static.example/catalog.js={stub}",
        ]) == 0
        assert "0 after filtering" in capsys.readouterr().out

    def test_json_dump_from_har(self, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main([
            "check", EXAMPLE_HAR, "--network", "connection",
            "--json", str(out_path),
        ]) == 0
        data = json.loads(out_path.read_text())
        assert data["accesses"]


class TestCliErrors:
    def test_malformed_har_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.har"
        bad.write_text("this is { not json")
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad HAR '{bad}'")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_empty_capture_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.har"
        empty.write_text('{"log": {"entries": []}}')
        assert main(["check", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no entries" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_har_exits_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "gone.har")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")

    def test_explore_bad_har_in_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.har").write_text("{{{")
        assert main(["explore", str(tmp_path), "--schedules", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad HAR '{tmp_path / 'bad.har'}'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag", ["--bandwidth", "--rtt", "--connections-per-origin"]
    )
    def test_tuning_flags_require_connection_model(self, flag, capsys):
        assert main(["check", EXAMPLE_HAR, flag, "5"]) == 2
        err = capsys.readouterr().err
        assert f"{flag} requires --network connection" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--bandwidth", "0"),
            ("--bandwidth", "-10"),
            ("--rtt", "0"),
            ("--connections-per-origin", "0"),
        ],
    )
    def test_bad_tuning_values_exit_2(self, flag, value, capsys):
        args = ["check", EXAMPLE_HAR, "--network", "connection", flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_network_model_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", EXAMPLE_HAR, "--network", "pigeon"])
        assert excinfo.value.code == 2


class TestJobsByteIdentity:
    @pytest.mark.parametrize("network", [None, CONNECTION])
    def test_parallel_matches_sequential(self, network):
        config = network or RunConfig(seed=0)
        sequential = assemble_explore_document(
            explore_pages([shop_page()], schedules=4, jobs=1, config=config)
        )
        parallel = assemble_explore_document(
            explore_pages([shop_page()], schedules=4, jobs=2, config=config)
        )
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_network_config_reaches_the_run(self):
        """Sanity: the config's network settings actually configure the
        browser — a connection-model run of the capture spends far more
        virtual time (the 1.2 MB catalog) than a uniform run ever can."""
        from repro.browser.scheduler import FifoScheduler

        uniform_page = run_page_once(shop_page(), FifoScheduler(), RunConfig(seed=0))
        connection_page = run_page_once(shop_page(), FifoScheduler(), CONNECTION)
        assert uniform_page.loop.clock.now < 700  # everything inside max latency
        assert connection_page.loop.clock.now > 800  # catalog transfer dominates


class TestReplayProperty:
    @settings(max_examples=8, deadline=None)
    @given(schedule_seed=st.integers(min_value=0, max_value=10_000))
    def test_connection_runs_replay_bit_for_bit(self, schedule_seed):
        """Any recorded connection-model run must replay exactly: same
        schedule length, same operation count, same race fingerprints."""
        page = shop_page()
        recorder = DecisionScheduler(SeededRandomScheduler(schedule_seed))
        recorded_page = run_page_once(page, recorder, CONNECTION)
        _, recorded_fps, _ = report_run(recorded_page, page.url, CONNECTION)
        trace = recorder.trace(seed=schedule_seed, page=page.url)
        replayed_page = run_page_once(
            page, DecisionScheduler(follow=trace.picks), CONNECTION
        )
        _, replayed_fps, _ = report_run(replayed_page, page.url, CONNECTION)
        assert replayed_fps == recorded_fps
        assert len(replayed_page.trace.accesses) == len(
            recorded_page.trace.accesses
        )
        assert replayed_page.loop.executed_count == recorded_page.loop.executed_count
