"""Forked workers: replies, a unit's exception, a parent that leaves."""

import multiprocessing

import pytest

from uavlc.procs import _serve, fork_context, forked, receive, value


def test_forked_workers_answer_with_the_handler_or_its_exception():
    ctx, _ = fork_context(2, 2)
    if ctx is None:
        pytest.skip("this process may not fork")
    with forked(ctx, [lambda x: 10 * x, lambda x: 1 // x]) as conns:
        for conn, request in zip(conns, (3, 0)):
            conn.send(request)
        assert value(receive(conns[0])) == 30
        with pytest.raises(ZeroDivisionError):
            value(receive(conns[1]))
    assert multiprocessing.active_children() == []


def reset_pipe():
    """A worker's pipe end whose parent closed it on an unread reply."""
    parent, child = multiprocessing.Pipe()
    child.send("a reply the parent never read")
    parent.close()
    return child


def test_a_worker_returns_quietly_when_the_parent_resets_its_pipe():
    with pytest.raises(ConnectionResetError):   # what the worker reads
        reset_pipe().recv()
    _serve(lambda request: request, reset_pipe(), [])
