"""Tests for the network simulators (uniform and connection-level)."""

import random

import pytest

from repro.browser.event_loop import EventLoop
from repro.browser.network import (
    ConnectionNetworkSimulator,
    ERROR_BODY_SIZE,
    INITIAL_WINDOW,
    MAX_LATENCY,
    MIN_LATENCY,
    NetworkSimulator,
    _bytes_in,
    _transfer_time,
    make_network,
    origin_of,
)


def make(resources=None, **kwargs):
    loop = EventLoop()
    return loop, NetworkSimulator(loop, resources=resources or {}, **kwargs)


def make_conn(resources=None, **kwargs):
    loop = EventLoop()
    return loop, ConnectionNetworkSimulator(
        loop, resources=resources or {}, **kwargs
    )


def in_flight(net):
    """Number of assigned (active) transfers right now."""
    return len(net._active)


class TestFetch:
    def test_known_resource_completes_ok(self):
        loop, net = make({"a.js": "var x = 1;"})
        results = []
        net.fetch("a.js", results.append)
        loop.run()
        assert results[0].ok
        assert results[0].content == "var x = 1;"

    def test_unknown_resource_404(self):
        loop, net = make({})
        results = []
        net.fetch("missing.js", results.append)
        loop.run()
        assert not results[0].ok
        assert results[0].status == 404

    def test_completion_happens_after_latency(self):
        loop, net = make({"a.js": "x"}, latencies={"a.js": 33.0})
        times = []
        net.fetch("a.js", lambda result: times.append(loop.clock.now))
        loop.run()
        assert times == [33.0]

    def test_latency_override_beats_random(self):
        _loop, net = make({}, seed=1, latencies={"fast.js": 1.0})
        assert net.latency_for("fast.js") == 1.0

    def test_random_latency_within_bounds(self):
        _loop, net = make({}, seed=5)
        for _ in range(50):
            assert MIN_LATENCY <= net.latency_for("any.js") <= MAX_LATENCY

    def test_seeded_latencies_reproducible(self):
        _loop1, net1 = make({}, seed=9)
        _loop2, net2 = make({}, seed=9)
        urls = [f"r{i}.js" for i in range(10)]
        assert [net1.latency_for(u) for u in urls] == [
            net2.latency_for(u) for u in urls
        ]

    def test_different_seeds_differ(self):
        _loop1, net1 = make({}, seed=1)
        _loop2, net2 = make({}, seed=2)
        urls = [f"r{i}.js" for i in range(10)]
        assert [net1.latency_for(u) for u in urls] != [
            net2.latency_for(u) for u in urls
        ]

    def test_fetch_count(self):
        loop, net = make({"a": "1"})
        net.fetch("a", lambda result: None)
        net.fetch("a", lambda result: None)
        assert net.fetch_count == 2

    def test_add_resource_later(self):
        loop, net = make({})
        net.add_resource("late.js", "x")
        results = []
        net.fetch("late.js", results.append)
        loop.run()
        assert results[0].ok

    def test_cancelled_fetch_never_completes(self):
        loop, net = make({"a.js": "x"})
        results = []
        handle = net.fetch("a.js", results.append)
        handle.cancel()
        loop.run()
        assert results == []
        assert handle.cancelled

    def test_pinned_latency_does_not_consume_rng(self):
        """A pinned URL draws nothing and every other URL exactly once."""
        _loop, net = make({}, seed=11, latencies={"pin.js": 3.0})
        reference = random.Random(11)
        for _ in range(2):
            assert net.latency_for("pin.js") == 3.0
            assert net.latency_for("free.js") == reference.uniform(
                MIN_LATENCY, MAX_LATENCY
            )


class TestOrigin:
    def test_scheme_host(self):
        assert origin_of("https://a.example/x/y.js") == "https://a.example"

    def test_host_only_no_path(self):
        assert origin_of("https://a.example") == "https://a.example"

    def test_relative_urls_share_empty_origin(self):
        assert origin_of("assets/app.js") == ""
        assert origin_of("other.js") == ""


class TestClosedForms:
    """The slow-start integrals: `_transfer_time` and `_bytes_in`."""

    def test_zero_size_is_instant(self):
        assert _transfer_time(0.0, INITIAL_WINDOW, 1500.0, 40.0) == 0.0

    def test_inverse_of_each_other(self):
        for size in (100.0, 14600.0, 80000.0, 1200000.0):
            for cwnd in (1000.0, INITIAL_WINDOW, 100000.0):
                time = _transfer_time(size, cwnd, 1500.0, 40.0)
                assert _bytes_in(time, cwnd, 1500.0, 40.0) == pytest.approx(
                    size, rel=1e-9
                )

    def test_warmer_window_is_faster(self):
        cold = _transfer_time(80000.0, INITIAL_WINDOW, 1500.0, 40.0)
        warm = _transfer_time(80000.0, 4 * INITIAL_WINDOW, 1500.0, 40.0)
        assert warm < cold

    def test_saturated_window_is_linear(self):
        share, rtt = 1500.0, 40.0
        cwnd = share * rtt  # at the rate cap already
        assert _transfer_time(30000.0, cwnd, share, rtt) == pytest.approx(
            30000.0 / share
        )

    def test_larger_share_never_slower(self):
        narrow = _transfer_time(500000.0, INITIAL_WINDOW, 750.0, 40.0)
        wide = _transfer_time(500000.0, INITIAL_WINDOW, 1500.0, 40.0)
        assert wide < narrow


class TestConnectionModel:
    def test_known_resource_completes_ok(self):
        loop, net = make_conn({"https://a.example/x.js": "var x = 1;"})
        results = []
        net.fetch("https://a.example/x.js", results.append)
        loop.run()
        assert results[0].ok
        assert results[0].content == "var x = 1;"
        assert loop.clock.now > 0  # transfers take virtual time

    def test_unknown_resource_404(self):
        loop, net = make_conn({})
        results = []
        net.fetch("https://a.example/missing.js", results.append)
        loop.run()
        assert not results[0].ok
        assert results[0].status == 404

    def test_pinned_size_beats_body_length(self):
        _loop, net = make_conn(
            {"https://a.example/x.js": "tiny"},
            sizes={"https://a.example/x.js": 5000.0},
        )
        result_ok = net.resources["https://a.example/x.js"]
        from repro.browser.network import FetchResult

        assert (
            net.size_for(
                "https://a.example/x.js",
                FetchResult(url="https://a.example/x.js", ok=True, content=result_ok),
            )
            == 5000.0
        )

    def test_error_body_size_for_404(self):
        from repro.browser.network import FetchResult

        _loop, net = make_conn({})
        missing = FetchResult(url="u", ok=False, content="", status=404)
        assert net.size_for("u", missing) == ERROR_BODY_SIZE

    def test_big_resource_arrives_after_small(self):
        loop, net = make_conn(
            {"https://a.example/small.js": "s", "https://b.example/big.js": "b"},
            sizes={
                "https://a.example/small.js": 1000.0,
                "https://b.example/big.js": 500000.0,
            },
        )
        order = []
        net.fetch("https://b.example/big.js", lambda r: order.append("big"))
        net.fetch("https://a.example/small.js", lambda r: order.append("small"))
        loop.run()
        assert order == ["small", "big"]

    def test_bandwidth_is_shared_across_transfers(self):
        def completion_time(concurrent):
            loop, net = make_conn(
                {"https://a.example/x.js": "x", "https://b.example/y.js": "y"},
                sizes={
                    "https://a.example/x.js": 200000.0,
                    "https://b.example/y.js": 200000.0,
                },
            )
            times = {}
            net.fetch(
                "https://a.example/x.js",
                lambda r: times.setdefault("x", loop.clock.now),
            )
            if concurrent:
                net.fetch("https://b.example/y.js", lambda r: None)
            loop.run()
            return times["x"]

        assert completion_time(concurrent=True) > completion_time(concurrent=False)

    def test_connection_cap_queues_excess_requests(self):
        loop, net = make_conn(
            {"https://a.example/1.js": "1", "https://a.example/2.js": "2"},
            sizes={
                "https://a.example/1.js": 50000.0,
                "https://a.example/2.js": 50000.0,
            },
            connections_per_origin=1,
        )
        order = []
        net.fetch("https://a.example/1.js", lambda r: order.append("1"))
        net.fetch("https://a.example/2.js", lambda r: order.append("2"))
        assert in_flight(net) == 1  # second request is queued, not active
        loop.run()
        assert order == ["1", "2"]
        pool = net.connections("https://a.example")
        assert len(pool) == 1
        assert pool[0].transfers_served == 2
        assert not pool[0].busy

    def test_warm_reused_connection_is_faster(self):
        loop, net = make_conn(
            {"https://a.example/1.js": "1", "https://a.example/2.js": "2"},
            sizes={
                "https://a.example/1.js": 100000.0,
                "https://a.example/2.js": 100000.0,
            },
            connections_per_origin=1,
        )
        times = []
        net.fetch("https://a.example/1.js", lambda r: times.append(loop.clock.now))
        net.fetch("https://a.example/2.js", lambda r: times.append(loop.clock.now))
        loop.run()
        first_duration = times[0]
        second_duration = times[1] - times[0]
        # Same bytes, but the reused connection skips the handshake RTT and
        # starts from the congestion window the first transfer grew.
        assert second_duration < first_duration

    def test_deterministic_for_a_seed(self):
        def run(seed):
            loop, net = make_conn(
                {"https://a.example/x.js": "x", "https://b.example/y.js": "y"},
                sizes={
                    "https://a.example/x.js": 30000.0,
                    "https://b.example/y.js": 70000.0,
                },
                seed=seed,
            )
            times = []
            net.fetch("https://a.example/x.js", lambda r: times.append(loop.clock.now))
            net.fetch("https://b.example/y.js", lambda r: times.append(loop.clock.now))
            loop.run()
            return times

        assert run(5) == run(5)
        assert run(1) != run(2)  # seeded jitter perturbs arrival times

    def test_cancel_frees_the_connection(self):
        loop, net = make_conn(
            {"https://a.example/x.js": "x"},
            sizes={"https://a.example/x.js": 500000.0},
        )
        results = []
        transfer = net.fetch("https://a.example/x.js", results.append)
        transfer.cancel()
        loop.run()
        assert results == []
        assert in_flight(net) == 0
        assert all(not c.busy for c in net.connections("https://a.example"))

    def test_cancel_promotes_the_queued_request(self):
        loop, net = make_conn(
            {"https://a.example/1.js": "1", "https://a.example/2.js": "2"},
            sizes={
                "https://a.example/1.js": 500000.0,
                "https://a.example/2.js": 1000.0,
            },
            connections_per_origin=1,
        )
        order = []
        first = net.fetch("https://a.example/1.js", lambda r: order.append("1"))
        net.fetch("https://a.example/2.js", lambda r: order.append("2"))
        first.cancel()
        assert in_flight(net) == 1  # the queued request took the connection
        loop.run()
        assert order == ["2"]

    def test_cancel_is_idempotent(self):
        loop, net = make_conn({"https://a.example/x.js": "x"})
        transfer = net.fetch("https://a.example/x.js", lambda r: None)
        transfer.cancel()
        transfer.cancel()
        loop.run()
        assert transfer.cancelled

    def test_bytes_delivered_accounting(self):
        loop, net = make_conn(
            {"https://a.example/x.js": "x"},
            sizes={"https://a.example/x.js": 12345.0},
        )
        net.fetch("https://a.example/x.js", lambda r: None)
        loop.run()
        assert net.bytes_delivered == 12345.0
        assert net.fetch_count == 1

    def test_constructor_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            ConnectionNetworkSimulator(loop, bandwidth=0)
        with pytest.raises(ValueError):
            ConnectionNetworkSimulator(loop, rtt=-1)
        with pytest.raises(ValueError):
            ConnectionNetworkSimulator(loop, connections_per_origin=0)


class TestMakeNetwork:
    def test_uniform_by_default(self):
        loop = EventLoop()
        assert isinstance(make_network(loop), NetworkSimulator)

    def test_connection_model(self):
        loop = EventLoop()
        net = make_network(
            loop,
            model="connection",
            sizes={"a": 10.0},
            bandwidth=500.0,
            rtt=20.0,
            connections_per_origin=2,
        )
        assert isinstance(net, ConnectionNetworkSimulator)
        assert net.bandwidth == 500.0
        assert net.rtt == 20.0
        assert net.connections_per_origin == 2

    def test_connection_defaults_for_none(self):
        from repro.browser.network import (
            DEFAULT_BANDWIDTH,
            DEFAULT_CONNECTIONS_PER_ORIGIN,
            DEFAULT_RTT,
        )

        net = make_network(EventLoop(), model="connection")
        assert net.bandwidth == DEFAULT_BANDWIDTH
        assert net.rtt == DEFAULT_RTT
        assert net.connections_per_origin == DEFAULT_CONNECTIONS_PER_ORIGIN

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown network model"):
            make_network(EventLoop(), model="carrier-pigeon")
