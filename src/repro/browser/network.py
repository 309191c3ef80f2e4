"""Simulated network.

The paper's races are triggered by "variation in network bandwidth, CPU
resources, or the timing of user input events" (Section 2.1).  This module
supplies the network half in two interchangeable models:

* :class:`NetworkSimulator` — the original **uniform** model: resources
  (script files, iframe HTML, images, XHR endpoints) live in an in-memory
  map, and each fetch completes after a *seeded pseudo-random latency*, so
  the same page under different seeds loads its sub-resources in different
  orders — the substitution for the authors' real Fortune-100 page loads
  (see DESIGN.md).  Latency: uniform in ``[MIN_LATENCY, MAX_LATENCY]``
  (5–120 ms), overridable per-URL (``latencies``) for experiments that need
  a specific winner — e.g. forcing the Fig. 4 iframe to load faster than
  20ms.

* :class:`ConnectionNetworkSimulator` — the **connection** model: a
  discrete-event simulation of per-origin connection pools (HTTP/1.1-style,
  one transfer per connection, ``connections_per_origin`` parallel
  connections, excess requests queue), TCP-slow-start-style ramping
  throughput (a per-connection congestion window that grows with every
  acknowledged byte, carried across reuses so warm connections are fast),
  and a shared downlink whose bandwidth is divided across all in-flight
  requests.  Completion callbacks are ordinary event-loop tasks (kind
  ``"network"``), so schedule record/replay, the adversarial scheduler and
  exhaustive enumeration work unchanged.  Resource *sizes* (``sizes`` map,
  defaulting to the body length) are what make arrival order physical: a
  large script on a congested origin arrives late no matter how early the
  parser requested it — the orderings the paper's Section 2.1 mechanism
  needs and the uniform model cannot produce.  The initial congestion
  window and the request-latency jitter are the constants
  ``INITIAL_WINDOW`` and ``DEFAULT_JITTER``.

Both simulators expose the same surface (``fetch``/``add_resource``/
``resources``/``fetch_count``); :func:`make_network` picks one by name.
``fetch`` returns a cancellable handle — the XHR ``abort()`` path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .event_loop import EventLoop, Task

#: Network models `make_network` accepts (the CLI's `--network` choices).
NETWORK_MODELS = ("uniform", "connection")

#: Latency range of the uniform model, virtual milliseconds.
MIN_LATENCY = 5.0
MAX_LATENCY = 120.0

#: Shared downlink of the connection model, kilobytes/second (numerically
#: equal to bytes per virtual millisecond) — a mid-band ~12 Mbit/s link.
DEFAULT_BANDWIDTH = 1500.0
#: Round-trip time of the connection model, virtual milliseconds.
DEFAULT_RTT = 40.0
#: Parallel connections per origin (the classic HTTP/1.1 browser cap).
DEFAULT_CONNECTIONS_PER_ORIGIN = 6
#: Initial congestion window, bytes (10 segments of 1460B, RFC 6928).
INITIAL_WINDOW = 14600.0
#: Multiplicative request-latency jitter (seeded), so `--seed` still
#: perturbs arrival orders under the connection model.
DEFAULT_JITTER = 0.05
#: Bytes billed for a 404 response body.
ERROR_BODY_SIZE = 512.0


@dataclass
class FetchResult:
    """Outcome of a completed fetch."""

    url: str
    ok: bool
    content: str = ""
    status: int = 200


class FetchHandle:
    """Cancellable in-flight fetch of the uniform model."""

    def __init__(self, url: str, task: Task, latency: float):
        self.url = url
        self.task = task
        self.latency = latency
        self.cancelled = False

    def cancel(self) -> None:
        """Drop the pending completion; the callback never runs."""
        self.cancelled = True
        self.task.cancel()


class NetworkSimulator:
    """Seeded-latency resource fetcher (the uniform model)."""

    def __init__(
        self,
        loop: EventLoop,
        resources: Optional[Dict[str, str]] = None,
        seed: int = 0,
        latencies: Optional[Dict[str, float]] = None,
    ):
        self.loop = loop
        self.resources: Dict[str, str] = dict(resources) if resources else {}
        self.rng = random.Random(seed)
        self.latencies: Dict[str, float] = dict(latencies) if latencies else {}
        self.fetch_count = 0

    # ------------------------------------------------------------------

    def add_resource(self, url: str, content: str) -> None:
        """Register (or replace) a resource body for a URL."""
        self.resources[url] = content

    def latency_for(self, url: str) -> float:
        """The latency a fetch of ``url`` will take (pinned or drawn).

        A pinned URL consumes no RNG draw and every other URL exactly one,
        so a run's latencies depend only on the seed and the order of its
        unpinned fetches.
        """
        fixed = self.latencies.get(url)
        if fixed is not None:
            return fixed
        return self.rng.uniform(MIN_LATENCY, MAX_LATENCY)

    def fetch(
        self,
        url: str,
        on_complete: Callable[[FetchResult], None],
        kind: str = "network",
    ) -> FetchHandle:
        """Start an asynchronous fetch; returns a cancellable handle.

        ``on_complete`` runs as an event-loop task once the latency
        elapses.  Unknown URLs complete with ``ok=False`` / status 404 —
        pages must tolerate missing resources like real browsers do.
        """
        self.fetch_count += 1
        latency = self.latency_for(url)
        if url in self.resources:
            result = FetchResult(url=url, ok=True, content=self.resources[url])
        else:
            result = FetchResult(url=url, ok=False, content="", status=404)
        task = self.loop.post(
            lambda: on_complete(result),
            delay=latency,
            kind=kind,
            label=f"fetch {url}",
        )
        return FetchHandle(url, task, latency)

    def clear(self) -> None:
        """Drop every fetch in flight: nothing to do here, because a fetch
        is only its completion task, which the loop holds."""


# ----------------------------------------------------------------------
# connection-level discrete-event model


def origin_of(url: str) -> str:
    """``scheme://host`` of an absolute URL; relative URLs share ``""``."""
    sep = url.find("://")
    if sep == -1:
        return ""
    end = url.find("/", sep + 3)
    return url if end == -1 else url[:end]


def _transfer_time(size: float, cwnd: float, share: float, rtt: float) -> float:
    """Virtual ms to deliver ``size`` bytes from window ``cwnd``.

    Slow start grows the window by one byte per acknowledged byte (cwnd
    doubles per RTT), so while the connection is window-limited delivery
    is exponential: ``delivered(t) = cwnd * (e^(t/rtt) - 1)``.  Once the
    instantaneous rate ``cwnd/rtt`` reaches the fair ``share`` of the
    downlink, delivery is linear at ``share``.
    """
    if size <= 0:
        return 0.0
    cap_window = share * rtt  # window at which the rate saturates
    if cwnd >= cap_window:
        return size / share
    ramp_bytes = cap_window - cwnd
    if size <= ramp_bytes:
        return rtt * math.log1p(size / cwnd)
    return rtt * math.log(cap_window / cwnd) + (size - ramp_bytes) / share


def _bytes_in(dt: float, cwnd: float, share: float, rtt: float) -> float:
    """Bytes delivered over ``dt`` ms (inverse of :func:`_transfer_time`)."""
    if dt <= 0:
        return 0.0
    cap_window = share * rtt
    if cwnd >= cap_window:
        return share * dt
    ramp_time = rtt * math.log(cap_window / cwnd)
    if dt <= ramp_time:
        return cwnd * math.expm1(dt / rtt)
    return (cap_window - cwnd) + share * (dt - ramp_time)


class Connection:
    """One persistent connection to an origin.

    The congestion window survives across transfers — connection *reuse*
    is what makes a warm origin serve small late requests faster than a
    cold one, one of the arrival-order mechanisms the model exists for.
    """

    __slots__ = ("origin", "cwnd", "busy", "transfers_served")

    def __init__(self, origin: str, cwnd: float):
        self.origin = origin
        self.cwnd = cwnd
        self.busy = False
        self.transfers_served = 0

    def __repr__(self) -> str:
        return (
            f"Connection({self.origin!r}, cwnd={self.cwnd:.0f}B, "
            f"busy={self.busy})"
        )


class Transfer:
    """One in-flight (or queued) request of the connection model."""

    def __init__(
        self,
        sim: "ConnectionNetworkSimulator",
        url: str,
        kind: str,
        result: FetchResult,
        on_complete: Callable[[FetchResult], None],
        size: float,
        delay_factor: float,
    ):
        self.sim = sim
        self.url = url
        self.kind = kind
        self.result = result
        self.on_complete = on_complete
        self.size = size
        self.origin = origin_of(url)
        #: Seeded multiplicative jitter on this request's setup delay.
        self.delay_factor = delay_factor
        #: Remaining setup time (handshake + request RTT) before bytes flow.
        self.delay_remaining = 0.0
        self.bytes_remaining = size
        self.connection: Optional[Connection] = None
        self.task: Optional[Task] = None
        self.done = False
        self.cancelled = False

    def cancel(self) -> None:
        """Abort the request; the completion callback never runs."""
        self.sim.cancel(self)

    def __repr__(self) -> str:
        state = "done" if self.done else (
            "cancelled" if self.cancelled else
            ("queued" if self.connection is None else "active")
        )
        return f"Transfer({self.url!r}, {self.size:.0f}B, {state})"


class ConnectionNetworkSimulator:
    """Connection-level discrete-event resource fetcher.

    State advances lazily: every event (a ``fetch``, a completion, a
    cancellation) first integrates all in-flight transfers over the
    virtual time elapsed since the previous event — the bandwidth share
    and connection assignment are constant over that interval, so the
    closed forms above are exact — and then re-posts each transfer's
    projected completion into the event loop (the stale task is
    cancelled).  Only completions are loop tasks; the bookkeeping itself
    never competes with page work for the scheduler, which is what keeps
    record/replay and the adversarial scheduler oblivious to the model.

    Setup time (one extra RTT of handshake for a cold connection, one RTT
    of request/first-byte for every request) overlaps delivery in the
    share accounting: every assigned transfer counts toward the divisor.
    """

    def __init__(
        self,
        loop: EventLoop,
        resources: Optional[Dict[str, str]] = None,
        sizes: Optional[Dict[str, float]] = None,
        seed: int = 0,
        bandwidth: float = DEFAULT_BANDWIDTH,
        rtt: float = DEFAULT_RTT,
        connections_per_origin: int = DEFAULT_CONNECTIONS_PER_ORIGIN,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        if rtt <= 0:
            raise ValueError(f"rtt must be > 0, got {rtt}")
        if connections_per_origin < 1:
            raise ValueError(
                f"connections_per_origin must be >= 1, got "
                f"{connections_per_origin}"
            )
        self.loop = loop
        self.resources: Dict[str, str] = dict(resources) if resources else {}
        self.sizes: Dict[str, float] = dict(sizes) if sizes else {}
        self.rng = random.Random(seed)
        self.bandwidth = bandwidth
        self.rtt = rtt
        self.connections_per_origin = connections_per_origin
        self.fetch_count = 0
        #: Total bytes delivered (completed transfers only).
        self.bytes_delivered = 0.0
        self._pools: Dict[str, List[Connection]] = {}
        self._queues: Dict[str, List[Transfer]] = {}
        self._active: List[Transfer] = []
        self._last_time = 0.0

    # ------------------------------------------------------------------

    def add_resource(self, url: str, content: str, size: Optional[float] = None) -> None:
        """Register (or replace) a resource body (and optionally size)."""
        self.resources[url] = content
        if size is not None:
            self.sizes[url] = float(size)

    def size_for(self, url: str, result: FetchResult) -> float:
        """On-the-wire bytes of a response (pinned, else body length)."""
        pinned = self.sizes.get(url)
        if pinned is not None:
            return max(1.0, float(pinned))
        if not result.ok:
            return ERROR_BODY_SIZE
        return max(1.0, float(len(result.content)))

    def connections(self, origin: str) -> List[Connection]:
        """The connection pool of an origin (diagnostics/tests)."""
        return list(self._pools.get(origin, []))

    def clear(self) -> None:
        """Drop every transfer in flight or queued (the page closed): each
        holds its completion callback, and its task holds it back."""
        for transfer in self._active:
            transfer.task = None
        self._active.clear()
        self._queues.clear()

    # ------------------------------------------------------------------

    def fetch(
        self,
        url: str,
        on_complete: Callable[[FetchResult], None],
        kind: str = "network",
    ) -> Transfer:
        """Start an asynchronous fetch; returns the cancellable transfer.

        The request takes a connection from its origin's pool (reusing an
        idle one, opening a new one under the cap, queueing otherwise);
        completion is posted into the event loop at the projected finish
        time and re-projected whenever the in-flight set changes.
        """
        self.fetch_count += 1
        now = self.loop.clock.now
        self._advance(now)
        if url in self.resources:
            result = FetchResult(url=url, ok=True, content=self.resources[url])
        else:
            result = FetchResult(url=url, ok=False, content="", status=404)
        factor = self.rng.uniform(1.0 - DEFAULT_JITTER, 1.0 + DEFAULT_JITTER)
        transfer = Transfer(
            sim=self,
            url=url,
            kind=kind,
            result=result,
            on_complete=on_complete,
            size=self.size_for(url, result),
            delay_factor=factor,
        )
        pool = self._pools.setdefault(transfer.origin, [])
        idle = next((conn for conn in pool if not conn.busy), None)
        if idle is not None:
            self._assign(transfer, idle, reused=True)
        elif len(pool) < self.connections_per_origin:
            connection = Connection(transfer.origin, INITIAL_WINDOW)
            pool.append(connection)
            self._assign(transfer, connection, reused=False)
        else:
            self._queues.setdefault(transfer.origin, []).append(transfer)
        self._reschedule()
        return transfer

    def cancel(self, transfer: Transfer) -> None:
        """Abort a transfer (XHR ``abort()``); frees its connection."""
        if transfer.done or transfer.cancelled:
            return
        transfer.cancelled = True
        self._advance(self.loop.clock.now)
        if transfer in self._active:
            self._active.remove(transfer)
            self._release(transfer.connection)
        else:
            queue = self._queues.get(transfer.origin)
            if queue and transfer in queue:
                queue.remove(transfer)
        if transfer.task is not None:
            transfer.task.cancel()
            transfer.task = None
        self._reschedule()

    # ------------------------------------------------------------------

    def _assign(self, transfer: Transfer, connection: Connection, reused: bool) -> None:
        connection.busy = True
        transfer.connection = connection
        base = self.rtt if reused else 2.0 * self.rtt
        transfer.delay_remaining = base * transfer.delay_factor
        self._active.append(transfer)

    def _release(self, connection: Optional[Connection]) -> None:
        """Hand a finished connection to the next queued request (reuse)."""
        if connection is None:
            return
        queue = self._queues.get(connection.origin)
        if queue:
            self._assign(queue.pop(0), connection, reused=True)
        else:
            connection.busy = False

    def _advance(self, now: float) -> None:
        """Integrate all in-flight transfers up to virtual time ``now``."""
        dt = now - self._last_time
        if dt > 0:
            self._last_time = now
        if dt <= 0 or not self._active:
            self._last_time = max(self._last_time, now)
            return
        share = self.bandwidth / len(self._active)
        for transfer in self._active:
            remaining = dt
            if transfer.delay_remaining > 0:
                step = min(transfer.delay_remaining, remaining)
                transfer.delay_remaining -= step
                remaining -= step
            if remaining > 0 and transfer.bytes_remaining > 0:
                connection = transfer.connection
                delivered = min(
                    _bytes_in(remaining, connection.cwnd, share, self.rtt),
                    transfer.bytes_remaining,
                )
                transfer.bytes_remaining -= delivered
                connection.cwnd = min(
                    connection.cwnd + delivered, self.bandwidth * self.rtt
                )

    def _reschedule(self) -> None:
        """Re-post every active transfer's projected completion task."""
        if not self._active:
            return
        share = self.bandwidth / len(self._active)
        for transfer in self._active:
            finish = transfer.delay_remaining + _transfer_time(
                transfer.bytes_remaining,
                transfer.connection.cwnd,
                share,
                self.rtt,
            )
            if transfer.task is not None:
                transfer.task.cancel()
            transfer.task = self.loop.post(
                lambda t=transfer: self._complete(t),
                delay=finish,
                kind=transfer.kind,
                label=f"fetch {transfer.url}",
            )

    def _complete(self, transfer: Transfer) -> None:
        if transfer.done or transfer.cancelled:
            return
        self._advance(self.loop.clock.now)
        transfer.done = True
        transfer.bytes_remaining = 0.0
        transfer.task = None
        self.bytes_delivered += transfer.size
        self._active.remove(transfer)
        if transfer.connection is not None:
            transfer.connection.transfers_served += 1
        self._release(transfer.connection)
        self._reschedule()
        transfer.on_complete(transfer.result)


def make_network(
    loop: EventLoop,
    model: str = "uniform",
    resources: Optional[Dict[str, str]] = None,
    seed: int = 0,
    latencies: Optional[Dict[str, float]] = None,
    sizes: Optional[Dict[str, float]] = None,
    **tuning,
):
    """Build the network simulator ``model`` names.

    The uniform model keeps its per-URL latency pins; the connection
    model replaces them with physics (sizes, pools, bandwidth), so
    ``latencies`` is ignored there and ``sizes`` is ignored by uniform.
    ``tuning`` (``bandwidth``, ``rtt``, ``connections_per_origin``) goes
    to :class:`ConnectionNetworkSimulator`, which holds their defaults.
    """
    if model == "uniform":
        return NetworkSimulator(
            loop, resources=resources, seed=seed, latencies=latencies
        )
    if model == "connection":
        return ConnectionNetworkSimulator(
            loop,
            resources=resources,
            sizes=sizes,
            seed=seed,
            **tuning,
        )
    raise ValueError(
        f"unknown network model {model!r}; expected one of "
        f"{', '.join(NETWORK_MODELS)}"
    )
