"""When and how independent units run on forked processes.

`harness.parallel_map` (sweep units, gate pairs) and `MetaSac.meta_train`
(one meta-iteration's tasks) fork their workers by this one policy, so
`workers` means the same in both: at most that many processes, None for
every CPU this process may run on, and this process alone for one.

Both also fork by this one mechanism, `forked`: one daemon process and one
duplex pipe per handler. A worker inherits its handler, and everything the
handler reads, from the fork, so none of it is pickled; only requests and
replies are. It answers each request with `handler(request)`, or with the
exception that it raised. A worker that exits without replying is a
`RuntimeError` in the parent, never a hang.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


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
    daemonic process (a `forked` worker, which may not start children) and
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


@contextmanager
def forked(ctx, handlers):
    """The parent's pipe ends to one forked worker per handler, in order.

    Send a request on a pipe and `receive` its reply. Leaving the block
    stops and joins every worker, also one still running a request.
    """
    conns, procs = [], []
    try:
        for handler in handlers:
            conn, child = ctx.Pipe()
            conns.append(conn)
            procs.append(ctx.Process(target=_serve, daemon=True,
                                     args=(handler, child, list(conns))))
            procs[-1].start()
            child.close()
        yield conns
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.terminate()
            proc.join()


def receive(conn):
    """The reply on `conn`: `handler(request)`, or the exception it raised
    (see `value`). Raises `RuntimeError` if the worker exited instead."""
    try:
        return conn.recv()
    except (EOFError, ConnectionError):
        raise RuntimeError("a forked worker exited without replying") from None


def value(reply):
    """`reply`, raised if it is an exception."""
    if isinstance(reply, BaseException):
        raise reply
    return reply


def ready(conns) -> list:
    """The pipe ends of `conns` with a reply (or an exit) to read; blocks
    until there is one."""
    from multiprocessing.connection import wait
    return wait(conns)


def _serve(handler, conn, parent_ends: list):
    """A worker's loop: reply to each request until the parent closes the
    pipe. A closed or reset pipe ends it quietly: the parent has left."""
    for end in parent_ends:     # so the parent's close reaches the worker
        end.close()
    while True:
        try:
            request = conn.recv()
        except (EOFError, ConnectionError):
            return
        try:
            reply = handler(request)
        except Exception as exc:
            reply = exc
        try:
            conn.send(reply)
        except ConnectionError:
            return
