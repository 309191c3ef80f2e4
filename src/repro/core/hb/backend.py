"""The one happens-before store, and the name documents record it under.

Every run builds :class:`~repro.core.hb.graph.HBGraph`.  Report, explore
and predict documents and ledger configs still carry an ``"hb_backend"``
key, set to :data:`HB_STORE`, so their formats and config digests stay
those of runs recorded when the store was a run setting.

SHB prediction is not a store: ``repro predict`` and ``repro analyze
--predict`` sweep a recorded trace with
:func:`repro.core.hb.shb.predict_races`.
"""

from __future__ import annotations

from .graph import HBGraph

#: The store's name, as documents and ledger configs record it.
HB_STORE = "graph"


def check_store(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is :data:`HB_STORE`."""
    if name != HB_STORE:
        raise ValueError(f"unknown hb backend {name!r}; expected {HB_STORE!r}")


def make_backend(name: str = HB_STORE, obs=None) -> HBGraph:
    """Build the happens-before store; ``name`` must be :data:`HB_STORE`.

    ``obs`` is the instrumentation sink edge/chain counters report to.
    """
    check_store(name)
    return HBGraph(obs=obs)
