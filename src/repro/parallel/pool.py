"""Process worker-pool runtime.

A thin, dependency-free wrapper around :mod:`multiprocessing` tailored to
shard execution:

* **fork when available, spawn otherwise** — fork (Linux) makes workers
  inherit the loaded modules for free; spawn (macOS/Windows default) works
  because every worker entry point in this package is a module-level
  function operating on picklable task payloads.
* **graceful degradation** — ``workers <= 1``, a single shard, or an
  environment where processes cannot start (sandboxes without ``fork``)
  all fall back to running the tasks inline in the calling process, so the
  parallel code path is always *correct*, merely not always parallel.
* **deterministic result order** — results come back in task order no
  matter which worker finished first (the order-stable half of the
  subsystem's order-stable merge).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, TypeVar

from ..runtime.transport import preferred_context

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

__all__ = ["imap_tasks", "run_tasks"]


def run_tasks(
    worker: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    workers: int,
) -> List[ResultT]:
    """Run ``worker`` over ``tasks`` on up to ``workers`` processes.

    ``worker`` must be a module-level function and tasks/results must be
    picklable.  Results are returned in task order.  Falls back to inline
    execution when parallelism cannot help (one worker, one task) or when
    worker processes cannot be started at all.
    """
    return list(imap_tasks(worker, tasks, workers))


def imap_tasks(
    worker: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    workers: int,
) -> Iterator[ResultT]:
    """Like :func:`run_tasks`, but yield results as tasks complete, in order.

    The caller overlaps its own post-processing (decoding, merging) of shard
    ``i`` with the still-running computation of shards ``i+1..n`` — with
    evenly sized shards this hides most of the result-side serialization
    cost behind worker compute.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if workers == 1 or len(tasks) <= 1:
        for task in tasks:
            yield worker(task)
        return
    context = preferred_context()
    try:
        pool = context.Pool(processes=min(workers, len(tasks)))
    except (OSError, PermissionError):  # pragma: no cover - sandboxed fallback
        for task in tasks:
            yield worker(task)
        return
    with pool:
        yield from pool.imap(worker, tasks)
