"""One frozen run configuration: every setting a WebRacer run takes.

The paper configures WebRacer once and checks every site under that one
configuration (Sections 5–6).  :class:`RunConfig` is that configuration,
declared in one place: each field carries its default, :meth:`from_args`
holds every CLI consistency check, and :meth:`ledger_fields` says which
fields a ledger record digests.  The same frozen value configures a
:class:`~repro.webracer.WebRacer`, builds every explore/predict run, and
is the task payload of ``--jobs`` workers, so sequential and sharded runs
see identical settings by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from .browser.network import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CONNECTIONS_PER_ORIGIN,
    DEFAULT_RTT,
)
from .core.hb.backend import HB_STORE, check_store
from .inputs import InputError

#: Connection-model tuning fields, meaningful only under ``--network connection``.
NETWORK_TUNING = ("bandwidth", "rtt", "connections_per_origin")
#: Fields the CLI sets (each is the flag's ``dest``).
CLI_FIELDS = ("seed", "scheduler", "schedule_seed", "network", *NETWORK_TUNING)


@dataclass(frozen=True)
class RunConfig:
    """The settings of one WebRacer run (picklable, hashable)."""

    #: Seed of network latencies; corpus sites derive theirs from it.
    seed: int = 0
    #: Event-loop policy name: ``fifo``, ``random`` or ``adversarial``.
    scheduler: str = "fifo"
    #: Base seed of ``random`` scheduling (``None``: ``seed``), so the
    #: schedule can vary while the latencies stay fixed.
    schedule_seed: Optional[int] = None
    #: ``uniform`` (seeded per-resource latencies) or ``connection``
    #: (per-origin pools, slow start, shared bandwidth, tuned below).
    network: str = "uniform"
    bandwidth: float = DEFAULT_BANDWIDTH
    rtt: float = DEFAULT_RTT
    connections_per_origin: int = DEFAULT_CONNECTIONS_PER_ORIGIN
    # Library-only settings, which tests and the paper-figure benchmarks set.
    #: Auto-explore user interactions after window load (Section 5.2.2).
    explore: bool = True
    #: Explore each handler as soon as it is registered.
    eager: bool = True
    #: Apply the Section 5.3 filters.
    apply_filters: bool = True
    #: Virtual-time bound on a page run (``None``: run until it settles).
    max_run_ms: Optional[float] = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        """The config parsed CLI flags describe.

        A flag the command does not define, or a tuning flag left unset,
        keeps its default.  Flags that only mean something under another
        setting raise :class:`~repro.inputs.InputError` rather than being
        ignored, so a user never believes a FIFO run was reseeded or a
        uniform run bandwidth-shaped.
        """
        given = {
            name: getattr(args, name)
            for name in CLI_FIELDS
            if getattr(args, name, None) is not None
        }
        if "schedule_seed" in given and given.get("scheduler") != "random":
            raise InputError("--schedule-seed requires --scheduler random")
        config = cls(**given)
        if config.network == "uniform":
            for name in NETWORK_TUNING:
                if name in given:
                    flag = "--" + name.replace("_", "-")
                    raise InputError(f"{flag} requires --network connection")
        elif config.bandwidth <= 0:
            raise InputError(f"--bandwidth must be > 0, got {config.bandwidth:g}")
        elif config.rtt <= 0:
            raise InputError(f"--rtt must be > 0, got {config.rtt:g}")
        elif config.connections_per_origin < 1:
            raise InputError(
                f"--connections-per-origin must be >= 1, "
                f"got {config.connections_per_origin}"
            )
        return config

    def ledger_fields(self, scheduler: bool = True) -> Dict[str, Any]:
        """The settings a ledger record's config digest covers.

        ``seed`` and ``hb_backend`` always; the latter is always
        :data:`HB_STORE`, and stays so that digests match ledgers written
        when the store was a setting.  The scheduler keys only when
        ``scheduler`` is set — ``check`` and ``corpus`` have scheduler
        flags, ``explore`` and ``predict`` do not.  The network keys only
        under the connection model, so uniform runs keep the digests of
        ledgers written before it existed.  The library-only settings
        cannot differ between CLI runs and are left out.
        """
        fields: Dict[str, Any] = {"seed": self.seed, "hb_backend": HB_STORE}
        if scheduler:
            fields["scheduler"] = self.scheduler
            fields["schedule_seed"] = self.schedule_seed
        if self.network != "uniform":
            fields["network"] = self.network
            for name in NETWORK_TUNING:
                fields[name] = getattr(self, name)
        return fields


def run_config(config: Optional[RunConfig] = None, **fields) -> RunConfig:
    """``config`` (the defaults when ``None``) with ``fields`` replaced.

    Entry points take a :class:`RunConfig` or its fields as keywords:
    ``WebRacer(seed=7)`` is ``WebRacer(RunConfig(seed=7))``.  They also
    take ``hb_backend``, the store's name, which must be ``"graph"``
    (:data:`~repro.core.hb.backend.HB_STORE`); any other value raises
    ``ValueError``.
    """
    check_store(fields.pop("hb_backend", HB_STORE))
    if config is None:
        config = RunConfig()
    return replace(config, **fields) if fields else config
