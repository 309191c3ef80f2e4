"""Process-pool sharded corpus runner (``repro corpus --jobs N``).

The Fortune-100 corpus is embarrassingly parallel: every site is
deterministic in ``(master_seed, site_index)`` and detection on one site
never touches another.  This module exploits that without ever pickling a
``Site``/``Page`` graph — each worker task carries only the frozen
:class:`~repro.config.RunConfig` plus ``(master_seed, index)`` and the
per-task flags, **rebuilds** its site from the deterministic spec
generator (:func:`repro.sites.corpus_specs` +
:func:`repro.sites.build_site`), runs detection with the standard
per-site seed formula (``seed + index * 101``), and ships back a plain
:class:`~repro.webracer.SiteResult` summary.

Why rebuild instead of pickle?  A built ``Site`` is mostly strings, but a
run's ``Page`` holds the DOM, the JS heap, the HB store and the trace —
megabytes of interlinked objects, much of it (closures, bound handlers)
not picklable at all.  Rebuilding from the seed costs a few milliseconds
per site and keeps the parent↔worker contract to two small, stable,
versionable value types (the ``RunConfig`` and ``SiteResult``).

Each site is one pool task (not one contiguous shard per worker), so an
expensive site — Ford's 112-location polling page, say — never serializes
a whole shard behind it; the pool load-balances across whatever cores
exist.  Results are merged in site-index order, which together with
per-site determinism makes ``--jobs N`` output byte-identical to
``--jobs 1``.

Failure isolation is inherited from
:meth:`~repro.webracer.WebRacer.run_site_guarded`: a site that raises or
overruns the per-site deadline becomes an error ``SiteResult`` inside its
worker.  Errors that kill the worker process itself (or a broken pool)
are converted to error results here, so a corpus run always completes
with one result per site.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from .config import RunConfig
from .obs import Instrumentation, merge_shard, snapshot
from .webracer import SiteResult, WebRacer


def resolve_jobs(jobs: int) -> int:
    """Map the ``--jobs`` flag to a worker count (0 = all CPUs)."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs if jobs else (os.cpu_count() or 1)


def corpus_site_count(master_seed: int, limit: int) -> int:
    """How many sites a corpus build with this limit yields."""
    from .sites import corpus as corpus_mod

    return len(corpus_mod.corpus_specs(master_seed)[:limit])


def _pool_context():
    """Prefer fork: no interpreter re-exec per worker, and the parent's
    module state (including test monkeypatches) carries over."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_site_task(
    config: RunConfig,
    master_seed: int,
    index: int,
    timeout: Optional[float],
    collect_evidence: bool,
    obs_t0: Optional[float],
) -> SiteResult:
    """Worker entry point: rebuild one site from its seed and run it.

    Module-level (picklable by reference) and self-contained: the worker
    constructs its own :class:`WebRacer` from the parent's ``config`` and,
    when the parent profiles (``obs_t0`` is its clock origin), its own
    :class:`Instrumentation` synced to that origin so merged timelines
    line up.  The corpus module is resolved at call time so the worker
    sees the same generator functions the parent would.
    """
    from .sites import corpus as corpus_mod

    obs = None
    if obs_t0 is not None:
        obs = Instrumentation()
        obs._t0 = obs_t0

    def build():
        spec = corpus_mod.corpus_specs(master_seed)[index]
        return corpus_mod.build_site(spec)

    result = WebRacer(config, obs=obs).run_site_guarded(
        build,
        index,
        config.seed + index * 101,
        timeout=timeout,
        collect_evidence=collect_evidence,
        keep_page=False,
    )
    if obs is not None:
        result.obs_snapshot = snapshot(obs)
    return result


def run_corpus_parallel(
    config: RunConfig = RunConfig(),
    master_seed: int = 0,
    limit: int = 100,
    jobs: int = 0,
    timeout: Optional[float] = None,
    collect_evidence: bool = False,
    obs: Optional[Instrumentation] = None,
) -> List[SiteResult]:
    """Run the corpus across a process pool; results in site-index order.

    When ``obs`` is a live collector, worker instrumentation shards are
    merged into it (in site-index order, one Chrome-trace lane per site)
    after the pool drains.  The returned list always has one entry per
    site; sites whose worker died abnormally carry an error entry.
    """
    workers = resolve_jobs(jobs)
    count = corpus_site_count(master_seed, limit)
    results: List[SiteResult] = []
    if count:
        obs_t0 = obs._t0 if obs is not None else None
        with ProcessPoolExecutor(
            max_workers=min(workers, count), mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(
                    run_site_task,
                    config,
                    master_seed,
                    index,
                    timeout,
                    collect_evidence,
                    obs_t0,
                ): index
                for index in range(count)
            }
            for future, index in futures.items():
                try:
                    results.append(future.result())
                except Exception as exc:  # worker process died / lost
                    results.append(
                        SiteResult(
                            index=index,
                            url=f"site[{index}]",
                            error=f"worker failed: {type(exc).__name__}: {exc}",
                        )
                    )
    results.sort(key=lambda result: result.index)
    if obs is not None:
        for result in results:
            if result.obs_snapshot is not None:
                merge_shard(
                    obs,
                    result.obs_snapshot,
                    tid=result.index + 1,
                    thread_name=result.url,
                )
                result.obs_snapshot = None
    return results
