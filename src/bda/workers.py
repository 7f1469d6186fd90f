"""Forked workers for the suites' jobs (``harness._run_jobs``).

The parent writes the index of every job but the first to one task pipe and
closes it, creates one anonymous memory file (``os.memfd_create``) per
worker, forks, and runs job 0 itself.  Each child takes indices from the
pipe until it is empty, and after each job appends one ``(index, ok, result
or exception)`` pickle to its own file.  A file cannot fill up, so no child
ever waits on the parent.  Once job 0 returns, the parent reaps the
children and unpickles every file from its start.  A child leaves by
``os._exit``, so none of the parent's code runs twice.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys

from .numerics import ContractError

_INDEX_BYTES = 4
# the parent writes every index before it forks, so they must fit the
# task pipe's 64 KiB buffer
MAX_JOBS = 65536 // _INDEX_BYTES


def run_forked(jobs: list, workers: int) -> list:
    """Call job 0 in this process and every other job in one of ``workers``
    forked children, and return the results in job order.

    Job 0 is always the caller's, so what this process does depends on the
    job list alone and never on timing, and job 0's result is never
    pickled.  Where jobs fail, the lowest-index one's exception is raised;
    job 0's is raised as soon as it fails.  Every child is killed and reaped
    before this returns or raises, interrupted too.
    """
    if len(jobs) > MAX_JOBS:
        raise ContractError(f"run_forked takes at most {MAX_JOBS} jobs, "
                            f"got {len(jobs)}")
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                            for i in range(1, len(jobs))))
    os.close(feed)
    # what the parent buffered is written once, not once more per child
    sys.stdout.flush()
    sys.stderr.flush()
    files, pids, statuses = [], [], []
    results, errors = {}, {}
    try:
        for _ in range(workers):
            files.append(os.fdopen(os.memfd_create("bda-results"), "w+b"))
            pid = os.fork()
            if pid == 0:
                _worker(jobs, tasks, files[-1])
            pids.append(pid)
        results[0] = jobs[0]()
        while pids:
            statuses.append(os.waitstatus_to_exitcode(
                os.waitpid(pids[-1], 0)[1]))
            pids.pop()
        for fh in files:
            fh.seek(0)
            try:  # a worker killed while writing leaves a truncated pickle
                while True:
                    index, ok, value = pickle.load(fh)
                    (results if ok else errors)[index] = value
            except (EOFError, pickle.UnpicklingError):
                pass
    finally:
        os.close(tasks)
        for fh in files:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    for index in range(len(jobs)):
        if index in errors:
            raise errors[index]
        if index not in results:
            raise RuntimeError(f"job {index} sent no result; the workers "
                               f"exited with statuses {sorted(statuses)}")
    return [results[index] for index in range(len(jobs))]


def _worker(jobs: list, tasks: int, out) -> None:
    """Body of a forked child, as the module docstring says; it never
    returns."""
    status = 1
    try:
        while index := os.read(tasks, _INDEX_BYTES):
            index = int.from_bytes(index, "little")
            try:
                message = pickle.dumps((index, True, jobs[index]()))
            except BaseException as err:
                message = pickle.dumps((index, False, _portable(err)))
            out.write(message)
            out.flush()
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
