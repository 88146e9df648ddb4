"""When and on how many processes independent units run.

`harness.parallel_map` (sweep units, gate pairs) and `MetaSac.meta_train`
(one meta-iteration's tasks) fork their workers by this one policy, so
`workers` means the same in both: at most that many processes, None for
every CPU this process may run on, and this process alone for one.
"""

from __future__ import annotations

import os


def worker_count(workers: int | None, n_units: int) -> int:
    """Processes `n_units` units run on.

    At most `workers` (None: no limit), the CPUs this process may run on
    and the unit count; at least one.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus if workers is None else workers, cpus, n_units))


def fork_context(workers: int | None, n_units: int):
    """(fork context, process count) for `n_units` units, or (None, 1) to
    run them in this process.

    This process alone runs them when `worker_count` is one, inside a
    daemonic process (a pool worker, which may not start children) and
    where the platform cannot fork. Workers are forked because spawn and
    forkserver re-import numpy and uavlc, ~0.2 s per worker. A fork copies
    only the calling thread, and a lock another thread holds stays held in
    the workers, so a caller that runs threads of its own should pass
    `workers=1`.
    """
    n = worker_count(workers, n_units)
    if n > 1:
        import multiprocessing     # ~17 ms; only callers that fork pay it
        if (not multiprocessing.current_process().daemon
                and "fork" in multiprocessing.get_all_start_methods()):
            return multiprocessing.get_context("fork"), n
    return None, 1
