"""Forked workers for the suites' jobs (``harness._run_jobs``).

The parent writes every job's index to one task pipe and closes it, then
forks.  Each child takes indices from the pipe until it is empty, runs those
jobs, and writes one ``(index, ok, result or exception)`` pickle per job to
its own result pipe.  The parent reads every result pipe to its end, reaps
the children, and unpickles.  A child leaves by ``os._exit``, so none of the
parent's code runs twice.
"""
from __future__ import annotations

import io
import os
import pickle
import select
import signal
import sys

from .numerics import ContractError

_INDEX_BYTES = 4
# the parent writes every index before it forks, so they must fit the
# task pipe's 64 KiB buffer
MAX_JOBS = 65536 // _INDEX_BYTES


def run_forked(jobs: list, workers: int) -> list:
    """Call every job in one of ``workers`` forked children and return the
    results in job order.  Where jobs fail, the lowest-index one's exception
    is raised.  Every child is killed and reaped before this returns or
    raises, interrupted too."""
    if len(jobs) > MAX_JOBS:
        raise ContractError(f"run_forked takes at most {MAX_JOBS} jobs, "
                            f"got {len(jobs)}")
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                            for i in range(len(jobs))))
    os.close(feed)
    # what the parent buffered is written once, not once more per child
    sys.stdout.flush()
    sys.stderr.flush()
    pending: dict = {}  # a worker's result pipe -> the chunks read so far
    streams, pids, statuses = [], [], []
    try:
        for _ in range(workers):
            read_end, write_end = os.pipe()
            pending[read_end] = []
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(jobs, tasks, write_end)
                pids.append(pid)
            finally:
                os.close(write_end)
        while pending:
            for fd in select.select(list(pending), [], [])[0]:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    pending[fd].append(chunk)
                else:
                    os.close(fd)
                    streams.append(b"".join(pending.pop(fd)))
        while pids:
            statuses.append(os.waitstatus_to_exitcode(
                os.waitpid(pids[-1], 0)[1]))
            pids.pop()
    finally:
        os.close(tasks)
        for fd in pending:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    results, errors = {}, {}
    for data in streams:
        stream = io.BytesIO(data)
        try:  # a worker killed while writing leaves a truncated pickle
            while stream.tell() < len(data):
                index, ok, value = pickle.load(stream)
                (results if ok else errors)[index] = value
        except (EOFError, pickle.UnpicklingError):
            pass
    for index in range(len(jobs)):
        if index in errors:
            raise errors[index]
        if index not in results:
            raise RuntimeError(f"job {index} sent no result; the workers "
                               f"exited with statuses {sorted(statuses)}")
    return [results[index] for index in range(len(jobs))]


def _worker(jobs: list, tasks: int, out: int) -> None:
    """Body of a forked child, as the module docstring says; it never
    returns."""
    status = 1
    try:
        with os.fdopen(out, "wb") as fh:
            while index := os.read(tasks, _INDEX_BYTES):
                index = int.from_bytes(index, "little")
                try:
                    message = pickle.dumps((index, True, jobs[index]()))
                except BaseException as err:
                    message = pickle.dumps((index, False, _portable(err)))
                fh.write(message)
                fh.flush()
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _portable(err: BaseException) -> BaseException:
    """``err`` where it survives a pickle round trip, else a RuntimeError
    with its class name and message."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
