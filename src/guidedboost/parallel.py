"""Independent jobs run side by side in forked worker processes.

``run_all(jobs)`` returns ``[job() for job in jobs]``. The workers are
``multiprocessing`` processes of the fork context, whatever the platform's
default start method, so a job reads the parent's arrays without a copy and
only its result is pickled back, through a ``Pipe``. A job that draws its
random numbers only from its own seeds gives the bits of the serial loop. A
fork copies only the calling thread, so no other thread may hold a lock that
a job needs. Each worker runs BLAS at the parent's thread count, so set that
to 1 before numpy loads.

``thread_map`` splits work in this process over threads instead, at most one
per usable CPU: numpy releases the GIL in its array work. Its pool is joined
before it returns, so ``run_all`` never forks beside a live thread.
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


@contextmanager
def thread_map(n_shares: int):
    """Yield ``(T, map_threads)`` for work that splits into ``n_shares`` shares.

    T is ``min(n_shares, usable CPUs)``. ``map_threads(fn, shares)`` returns
    ``[fn(share) for share in shares]``: share 0 runs in the calling thread,
    which would otherwise wait idle, and the rest on a pool of T - 1 threads.
    The error of the lowest failing share is raised. With T < 2 there is no
    pool; otherwise it is joined on exit.
    """
    n_threads = min(n_shares, _usable_cpus())
    if n_threads < 2:
        yield n_threads, lambda fn, shares: [fn(share) for share in shares]
        return
    with ThreadPoolExecutor(n_threads - 1) as pool:

        def map_threads(fn, shares):
            rest = [pool.submit(fn, share) for share in shares[1:]]
            first = fn(shares[0])
            return [first, *(future.result() for future in rest)]

        yield n_threads, map_threads


def run_all(jobs: list) -> list:
    """``[job() for job in jobs]``, in at most one forked worker per usable CPU.

    Worker w of W runs jobs w, w + W, ... in order and stops at its first
    failure. The failure with the lowest job index, the one the serial loop
    would raise, is raised again with its type and message; a worker that
    ends without reporting raises RuntimeError. Every worker is reaped before
    this returns or raises. With one job or one usable CPU the jobs run here.
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
    results, failures = [None] * len(jobs), []
    for w, (outcome, code) in enumerate(zip(outcomes, codes)):
        if code != 0 or outcome is None:
            failures.append((w, RuntimeError(
                f"run_all: worker {w} exited with code {code} before it reported")))
            continue
        done, failure = outcome
        for i, result in zip(range(w, len(jobs), n), done):
            results[i] = result
        if failure is not None:
            i, blob, trace = failure
            try:
                exc = pickle.loads(blob)
            except Exception:  # the job's error cannot travel as itself
                exc = RuntimeError(f"run_all: job {i} failed in a worker:\n{trace}")
            exc.__cause__ = RuntimeError(f"the traceback in the worker:\n{trace}")
            failures.append((i, exc))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _work(jobs: list, indices: range, pipe) -> None:
    """A worker's life: run its jobs and send what they gave down the pipe."""
    done, failure = [], None
    for i in indices:
        try:
            done.append(jobs[i]())
        except Exception as exc:
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            failure = (i, blob, traceback.format_exc())
            break
    pipe.send((done, failure))
