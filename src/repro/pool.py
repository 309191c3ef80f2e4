"""One fan-out for the multi-item commands (``corpus``, ``explore``, ``predict``).

:func:`fan_out` runs a task over a list of items: in-process and in
order, with the caller's instrumentation, when ``jobs`` is 1; otherwise
over a fork-based process pool.  Every item is deterministic in its
inputs and results come back in item order, so ``--jobs N`` output is
byte-identical to ``--jobs 1``.  Each item is its own pool task, not
part of a fixed shard per worker, so one expensive item (Ford's
112-location polling site, say) never holds other items up behind it.

A task is a module-level function bound with :func:`functools.partial`,
called as ``task(item, obs=obs)``.  Tasks and items cross to the workers
by pickle, which costs little next to running them (DESIGN.md §9 has the
measurement).  Results are picklable summaries; a worker never returns a
live page.  When the caller profiles, each worker records into its own
:class:`~repro.obs.Instrumentation` synced to the caller's clock origin,
and that snapshot travels back beside the result and merges in item
order, one Chrome-trace lane per item.

Tasks isolate their own failures (a crash or timeout becomes an error
result).  A worker process that dies anyway becomes the result that the
caller's ``failed`` callback builds, so a run always yields one result
per item.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

from .browser.page import clear_parse_cache
from .obs import NULL, Instrumentation, merge_shard, snapshot


def resolve_jobs(jobs: int) -> int:
    """Map the ``--jobs`` flag to a worker count (0 = every CPU this
    process may run on)."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def crash_line(exc: BaseException) -> str:
    """``Type: first message line`` — how an isolated failure is recorded."""
    message = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {message}".rstrip(": ")


def _in_worker(task: Callable, item: Any, obs_t0: Optional[float]):
    """Run one item in a worker: ``(result, obs snapshot or None)``.

    ``obs_t0`` is the profiling caller's clock origin (``None``: no obs).
    """
    if obs_t0 is None:
        return task(item, obs=NULL), None
    obs = Instrumentation()
    obs._t0 = obs_t0
    return task(item, obs=obs), snapshot(obs)


def fan_out(
    task: Callable,
    items: Sequence[Any],
    jobs: int = 1,
    obs=NULL,
    lane: Optional[Callable[[Any], str]] = None,
    failed: Optional[Callable[[Any, str], Any]] = None,
) -> List[Any]:
    """``[task(item, obs=obs) for item in items]``, in-process or pooled.

    ``jobs`` is the ``--jobs`` value (0 = every usable CPU), clamped to
    the number of items; one worker runs in-process.  A pooled run needs
    ``lane(result)``, the trace-lane name of an item's merged
    instrumentation, and ``failed(item, message)``, the result of an item
    whose worker died.  The parse caches start cold either way, as a CLI
    run does.
    """
    clear_parse_cache()
    workers = min(resolve_jobs(jobs), len(items))
    if workers <= 1:
        return [task(item, obs=obs) for item in items]
    # Imported here so in-process runs never load multiprocessing: that
    # import alone raised the peak RSS of an in-process 100-site corpus
    # run by about 1.5 MB (CPython 3.11, Linux x86-64).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    obs_t0 = obs._t0 if obs is not None and obs.enabled else None
    # Fork: no interpreter re-exec per worker, and the parent's module
    # state (including test monkeypatches) carries over.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    results = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(_in_worker, task, item, obs_t0) for item in items]
        for position, (item, future) in enumerate(zip(items, futures)):
            try:
                result, shard = future.result()
            except Exception as exc:  # the worker process died
                result, shard = failed(item, f"worker failed: {crash_line(exc)}"), None
            if shard is not None:
                merge_shard(obs, shard, tid=position + 1, thread_name=lane(result))
            results.append(result)
    return results
