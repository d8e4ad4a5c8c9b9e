"""Independent items run side by side, at most one executor per usable CPU.

Executor t of T runs items t, t + T, ... in order and stops at its first
failure. The results come back in item order, or the error of the lowest
failing item, the one the serial loop would meet first, is raised.

``run_all(jobs)`` returns ``[job() for job in jobs]`` from forked workers:
``multiprocessing`` processes of the fork context, whatever the platform's
default start method, so a job reads the parent's arrays without a copy and
only its result is pickled back, through a ``Pipe``. A job that draws its
random numbers only from its own seeds gives the bits of the serial loop. A
fork copies only the calling thread, so no other thread may hold a lock that
a job needs. Each worker runs BLAS at the parent's thread count, so set that
to 1 before numpy loads. No job calls ``run_all``: work that depends on
other work runs in a later round, started by the caller, so the process
tree is one level deep (``run_experiment`` fits its stages in two rounds).

``thread_map`` runs items on threads of this process instead: numpy releases
the GIL in its array work. Its pool is joined before it returns, so
``run_all`` never forks beside a live thread.
"""
from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _stripe(fn, items: range) -> tuple[list, tuple | None]:
    """``[fn(i) for i in items]`` up to the first failure ``(i, exc)``, or None."""
    done = []
    for i in items:
        try:
            done.append(fn(i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _gather(n: int, stripes: list) -> list:
    """The results of n items from each executor's ``_stripe``, in item
    order; if any failed, the lowest failing item's error is raised."""
    failures = [failure for _, failure in stripes if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [stripes[i % len(stripes)][0][i // len(stripes)] for i in range(n)]


@contextmanager
def thread_map(n_items: int):
    """Yield ``(T, map_items)``, T = ``min(n_items, usable CPUs)``.

    ``map_items(fn)`` returns ``[fn(i) for i in range(n_items)]``, item i on
    thread ``i % T``. Thread 0 is the calling thread, which would otherwise
    wait idle, and the rest are a pool of T - 1 threads, joined on exit; with
    T < 2 there is no pool.
    """
    n_threads = min(n_items, _usable_cpus())
    if n_threads < 2:
        yield n_threads, lambda fn: [fn(i) for i in range(n_items)]
        return
    with ThreadPoolExecutor(n_threads - 1) as pool:

        def map_items(fn):
            mine, *theirs = [range(t, n_items, n_threads) for t in range(n_threads)]
            futures = [pool.submit(_stripe, fn, items) for items in theirs]
            first = _stripe(fn, mine)
            return _gather(n_items, [first, *(future.result() for future in futures)])

        yield n_threads, map_items


def run_all(jobs: list) -> list:
    """``[job() for job in jobs]``, in at most one forked worker per usable CPU.

    A job's error is raised again with its type and message; a worker that
    ends without reporting fails at its first job, with a RuntimeError. Every
    worker is reaped before this returns or raises. With one job or one
    usable CPU the jobs run here.
    """
    n = min(len(jobs), _usable_cpus())
    if n < 2:
        return [job() for job in jobs]
    fork = multiprocessing.get_context("fork")
    workers, reads, outcomes, codes = [], [], [], []
    try:
        for w in range(n):
            read, write = fork.Pipe(duplex=False)
            reads.append(read)
            with write:  # closed once forked, so a dead worker ends its recv
                worker = fork.Process(target=_work, args=(jobs, range(w, len(jobs), n), write))
                worker.start()
            workers.append(worker)
        for read in reads:
            try:
                outcomes.append(read.recv())
            except (EOFError, OSError):  # the worker died before or while it reported
                outcomes.append(None)
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    finally:
        for read in reads:
            read.close()
        for worker in workers:
            worker.join()
            codes.append(worker.exitcode)
            worker.close()
    for w, (outcome, code) in enumerate(zip(outcomes, codes)):
        if code != 0 or outcome is None:
            outcomes[w] = [], (w, RuntimeError(
                f"run_all: worker {w} exited with code {code} before it reported"))
        elif outcome[1] is not None:
            i, blob, trace = outcome[1]
            try:
                exc = pickle.loads(blob)
            except Exception:  # the job's error cannot travel as itself
                exc = RuntimeError(f"run_all: job {i} failed in a worker:\n{trace}")
            exc.__cause__ = RuntimeError(f"the traceback in the worker:\n{trace}")
            outcomes[w] = outcome[0], (i, exc)
    return _gather(len(jobs), outcomes)


def _work(jobs: list, indices: range, pipe) -> None:
    """A worker's life: run its jobs and send what they gave down the pipe."""
    done, failure = _stripe(lambda i: jobs[i](), indices)
    if failure is not None:
        i, exc = failure
        try:
            blob = pickle.dumps(exc)
        except Exception:
            blob = None
        failure = i, blob, "".join(traceback.format_exception(exc))
    pipe.send((done, failure))
