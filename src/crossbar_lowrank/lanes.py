"""Forked lanes: jobs dealt over the calling process, lane 0, and os.fork()
children of it, each of which inherits what its jobs need copy-on-write
and pickles back only their results (in_lanes).
"""
from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence


def _lane_count(lanes: int, jobs: int, cores: int) -> int:
    """How many lanes run `jobs` jobs when `lanes` are asked for: no more
    than one per job and one per usable core, and at least one."""
    return max(1, min(lanes, jobs, cores))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def available(wanted: int, jobs: int) -> int:
    """_lane_count(wanted, jobs, usable cores), or 1 without os.fork or
    beside other Python threads, which a fork would not copy."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _lane_count(wanted, jobs, _usable_cores())


def _run_lane(jobs: list, run: Callable) -> tuple[list, Exception | None]:
    """run(job) for the jobs in order, up to the first that raises: the
    results before it, and its exception or None."""
    done = []
    try:
        for job in jobs:
            done.append(run(job))
    except Exception as exc:
        return done, exc
    return done, None


@dataclass
class _Child:
    """A forked lane: its pid, the read end of its pipe, what it sent
    (None until read to the end) and its wait status (None until reaped)."""

    pid: int
    pipe: BinaryIO
    sent: bytes | None = None
    status: int | None = None


def _fork_lane(jobs: list, run: Callable) -> _Child:
    """A forked child that runs _run_lane(jobs, run) and writes its pickled
    outcome to a pipe. It ends in os._exit, so it runs no handler or
    cleanup of the parent's."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_lane(jobs, run)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return _Child(pid, open(read_fd, "rb"))


def in_lanes(jobs: Sequence, run: Callable, lanes: int, name: str = "MC lane") -> list:
    """[run(job) for job in jobs], dealt round-robin over L =
    available(lanes, len(jobs)) lanes: job i runs in lane i % L. Lane 0 is
    the calling process. Every other lane is a forked child, which
    inherits what run needs copy-on-write, runs its jobs in order and
    pickles back only their results, or the exception that stopped it.
    Each job must draw only from streams it builds, so every result is the
    same at any lane count, and the exception raised is that of the
    earliest failing job, the one a serial run raises.

    A child that ends without a result is a ChildProcessError naming its
    lane as `name` and number. Every child is reaped before this returns or
    raises; one still running when the call raises, KeyboardInterrupt
    included, is killed first. Without os.fork, at one lane, or beside
    other Python threads, the jobs run in order in the calling process."""
    count = available(lanes, len(jobs))
    if count == 1:
        return [run(job) for job in jobs]
    children: list[_Child] = []
    try:
        for lane in range(1, count):
            children.append(_fork_lane(jobs[lane::count], run))
        outcomes = [_run_lane(jobs[::count], run)]
        for child in children:
            child.sent = child.pipe.read()
    finally:
        for child in children:
            child.pipe.close()
            if child.sent is None:  # not read to its end: it may still be running
                # imported only here: signal builds its enums on import,
                # a cost that a call which succeeds need not pay
                import signal
                os.kill(child.pid, signal.SIGKILL)
            child.status = os.waitpid(child.pid, 0)[1]
    for lane, child in enumerate(children, start=1):
        try:
            outcomes.append(pickle.loads(child.sent))
        except Exception:
            raise ChildProcessError(
                f"{name} {lane} (pid {child.pid}) ended without a result, exit code "
                f"{os.waitstatus_to_exitcode(child.status)}") from None
    failed = [(lane + len(done) * count, error)
              for lane, (done, error) in enumerate(outcomes) if error is not None]
    if failed:
        raise min(failed, key=lambda failure: failure[0])[1]
    results = [None] * len(jobs)
    for lane, (done, _) in enumerate(outcomes):
        results[lane::count] = done
    return results
