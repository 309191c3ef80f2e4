"""The one run configuration: it pickles, round-trips the CLI, and reaches
every ``--jobs`` worker intact, whatever its field values."""

import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser
from repro.browser.network import NETWORK_MODELS
from repro.browser.scheduler import SCHEDULER_POLICIES
from repro.config import CLI_FIELDS, NETWORK_TUNING, RunConfig
from repro.core.hb.backend import HB_BACKENDS
from repro.schedule_runner import PageInput, ScheduleSpec, run_page_schedule
from repro.sites import build_corpus, corpus_builders
from repro.webracer import WebRacer


@st.composite
def run_configs(draw):
    """A valid RunConfig over every field: a flag that only means
    something under another setting is drawn only with that setting."""
    scheduler = draw(st.sampled_from(SCHEDULER_POLICIES))
    network = draw(st.sampled_from(NETWORK_MODELS))
    tuning = {}
    if network == "connection":
        tuning = {
            "bandwidth": draw(st.floats(100.0, 5000.0)),
            "rtt": draw(st.floats(5.0, 200.0)),
            "connections_per_origin": draw(st.integers(1, 8)),
        }
    schedule_seed = None
    if scheduler == "random":
        schedule_seed = draw(st.none() | st.integers(0, 10_000))
    return RunConfig(
        seed=draw(st.integers(0, 10_000)),
        scheduler=scheduler,
        schedule_seed=schedule_seed,
        hb_backend=draw(st.sampled_from(HB_BACKENDS)),
        network=network,
        **tuning,
        explore=draw(st.booleans()),
        eager=draw(st.booleans()),
        apply_filters=draw(st.booleans()),
        max_run_ms=draw(st.none() | st.floats(1.0, 500.0)),
    )


def check_argv(config):
    """The ``check`` command line that sets ``config``'s CLI fields."""
    argv = ["check", "page.html"]
    for name in CLI_FIELDS:
        value = getattr(config, name)
        if value is None or (name in NETWORK_TUNING and config.network == "uniform"):
            continue
        argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_config_pickles_and_round_trips_the_cli(config):
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    assert hash(clone) == hash(config)
    parsed, error = RunConfig.from_args(build_parser().parse_args(check_argv(config)))
    assert error is None
    assert parsed == RunConfig(**{name: getattr(config, name) for name in CLI_FIELDS})


@settings(max_examples=3, deadline=None)
@example(RunConfig(seed=0, apply_filters=False, explore=False, eager=False))
@example(
    RunConfig(
        seed=3,
        scheduler="random",
        schedule_seed=5,
        hb_backend="shb",
        network="connection",
        bandwidth=700.0,
        max_run_ms=40.0,
    )
)
@given(run_configs())
def test_parallel_corpus_matches_sequential(config):
    """Workers run under the parent's whole config, so a sharded corpus
    run equals the sequential one for every setting — not only for the
    ones a worker payload happened to forward."""
    sequential = WebRacer(config).check_corpus(build_corpus(master_seed=0, limit=3))
    parallel = WebRacer(config).check_corpus(
        corpus_builders(master_seed=0, limit=3), jobs=2
    )
    assert parallel.table1() == sequential.table1()
    assert parallel.table2() == sequential.table2()
    assert parallel.table2_totals() == sequential.table2_totals()
    assert [result.races for result in parallel.reports] == [
        result.races for result in sequential.reports
    ]
    assert [result.error for result in parallel.reports] == [None] * 3


def test_run_page_schedule_takes_fields_as_keywords():
    """Like ``WebRacer``, ``explore_pages`` and ``predict_pages``, a single
    matrix cell takes a config or its fields as keywords."""
    page = PageInput(
        url="page.html",
        html='<input type="text" id="q" /><script src="hint.js"></script>',
        resources={"hint.js": "document.getElementById('q').value = 'hint';"},
    )
    spec = ScheduleSpec("adversarial", "adversarial")
    config = RunConfig(seed=4, hb_backend="shb")
    by_config = run_page_schedule(page, spec, config, verify_replay=False)
    by_fields = run_page_schedule(
        page, spec, seed=4, hb_backend="shb", verify_replay=False
    )
    assert by_config.ok and by_config.fingerprints
    assert by_fields.fingerprints == by_config.fingerprints
    assert by_fields.trace_dict == by_config.trace_dict
