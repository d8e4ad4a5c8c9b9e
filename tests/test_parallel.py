"""run_all and thread_map: forked workers and threads give the serial loop's
results, failures and bits."""
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from conftest import make_blobs

from guidedboost import parallel, pipeline
from guidedboost.classifiers import linear
from guidedboost.classifiers.forest import ForestConfig, train_random_forest
from guidedboost.harness.config import ExperimentConfig, SyntheticSpec
from guidedboost.harness.experiment import StageError, metrics_to_csv, run_experiment
from guidedboost.nn import training
from guidedboost.nn.network import encoder_spec, projection_spec
from guidedboost.nn.training import TrainConfig
from guidedboost.parallel import run_all
from guidedboost.pipeline import RetrainConfig
from guidedboost.thresholding import ToleranceConfig

TINY = ExperimentConfig(
    synthetic=SyntheticSpec(n_per_class=150, n_features=4, seed=3),
    base="logistic",
    tolerance=ToleranceConfig(X=5.0, Y=5.0),
    retrain=RetrainConfig(
        encoder=encoder_spec((8, 4)),
        projection=projection_spec((4, 2)),
        train=TrainConfig(max_epochs=3, patience=2, learning_rate=0.01),
    ),
)


def _with_cpus(monkeypatch, n, fn):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: n)
    return fn()


def _serial_and_pooled(monkeypatch, fn):
    """fn() with the jobs run in process, then in two workers."""
    return [_with_cpus(monkeypatch, n, fn) for n in (1, 2)]


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_jobs", [0, 1, 2, 5])
def test_pooled_results_are_the_serial_results_in_job_order(n_jobs, monkeypatch):
    jobs = [partial(pow, i, 2) for i in range(n_jobs)]
    serial, pooled = _serial_and_pooled(monkeypatch, lambda: run_all(jobs))
    assert serial == pooled == [i * i for i in range(n_jobs)]
    _assert_no_children_left()


def test_jobs_run_in_workers_unless_there_is_one(monkeypatch):
    here = os.getpid()
    assert _with_cpus(monkeypatch, 2, lambda: run_all([os.getpid])) == [here]
    pids = _with_cpus(monkeypatch, 2, lambda: run_all([os.getpid] * 3))
    assert here not in pids and len(set(pids)) == 2
    assert _with_cpus(monkeypatch, 1, lambda: run_all([os.getpid] * 3)) == [here] * 3


def test_output_is_written_once_and_what_jobs_print_is_kept():
    # stdout into a pipe is block-buffered: the parent's buffer must not be
    # copied into the workers, nor a worker's buffer dropped at its exit.
    # Unbuffered, print writes a line and its newline apart, and the two
    # workers' lines can interleave.
    script = ("from guidedboost import parallel\n"
              "parallel._usable_cpus = lambda: 2\n"
              "print('before')\n"
              "parallel.run_all([lambda: print('job a'), lambda: print('job b')])\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=60, env=env).stdout.splitlines()
    assert out[0] == "before" and sorted(out[1:]) == ["job a", "job b"]


def _state(stage):
    nets = [m for m in stage.models_1_to_4 if m is not None] + [stage.model, stage.auxiliary]
    return [a for net in nets for a in net.state_arrays()], [vars(n.train_state) for n in nets]


def test_serial_and_pooled_runs_are_bit_identical(monkeypatch):
    def run():
        result = run_experiment(TINY)
        return (metrics_to_csv(result.rows), result.summary,
                _state(result.guided.stage), _state(result.classic.stage))

    serial, pooled = _serial_and_pooled(monkeypatch, run)
    assert serial[0] == pooled[0] and serial[1] == pooled[1]
    assert any(m is not None for m in run_experiment(TINY).guided.stage.models_1_to_4)
    for (arrays, states), (arrays_p, states_p) in zip(serial[2:], pooled[2:]):
        assert len(arrays) == len(arrays_p)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, arrays_p))
        assert states == states_p


def test_serial_and_pooled_forests_are_equal(monkeypatch):
    data = make_blobs(n_per_class=60, n_features=4, gap=1.0, seed=2)
    cfg = ForestConfig(n_trees=5, max_depth=4, seed=7)
    serial, pooled = _serial_and_pooled(monkeypatch, lambda: train_random_forest(data, cfg))
    for name in ("feature", "threshold", "left", "right", "p1", "roots"):
        assert np.array_equal(getattr(serial, name), getattr(pooled, name)), name
        assert getattr(serial, name).dtype == getattr(pooled, name).dtype


def _fail(exc):
    raise exc


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["serial", "pooled"])
def test_the_lowest_failing_job_raises_its_own_error(n_cpus, monkeypatch):
    jobs = [lambda: 0, partial(_fail, KeyError("second")), partial(_fail, TypeError("third")),
            partial(_fail, ValueError("fourth"))]
    with pytest.raises(KeyError, match="second"):
        _with_cpus(monkeypatch, n_cpus, lambda: run_all(jobs))
    _assert_no_children_left()


def test_a_job_that_ends_its_process_raises_in_the_parent(monkeypatch):
    jobs = [partial(os._exit, 3), lambda: 1]
    with pytest.raises(RuntimeError, match="worker 0 exited with code 3"):
        _with_cpus(monkeypatch, 2, lambda: run_all(jobs))
    _assert_no_children_left()


class _NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_error_that_cannot_come_back_is_reported_with_its_traceback(monkeypatch):
    jobs = [partial(_fail, _NeedsTwoArguments("x", "y")), lambda: 1]
    with pytest.raises(RuntimeError, match="(?s)job 0 failed in a worker.*x and y"):
        _with_cpus(monkeypatch, 2, lambda: run_all(jobs))
    _assert_no_children_left()


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["serial", "pooled"])
def test_a_non_finite_pair_model_fails_its_stage_as_in_serial(n_cpus, monkeypatch):
    real_train_model, real_supcon = pipeline.train_model, training.supcon_loss

    def nan_loss(*args):
        return np.nan, real_supcon(*args)[1]

    def train_model(*args, seed):
        if seed[1] != 3:
            return real_train_model(*args, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(training, "supcon_loss", nan_loss)
            return real_train_model(*args, seed=seed)

    monkeypatch.setattr(pipeline, "train_model", train_model)
    with pytest.raises(StageError) as err:
        _with_cpus(monkeypatch, n_cpus, lambda: run_experiment(TINY))
    assert err.value.stage == "guided-retrain"
    assert str(err.value) == (
        "stage guided-retrain: guided_fit: model 3: "
        "train_model: monitored loss is nan at epoch 1"
    )
    assert isinstance(err.value.original, FloatingPointError)
    _assert_no_children_left()


def _kill_own_process():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_worker_killed_by_a_signal_reports_its_code(monkeypatch):
    jobs = [lambda: 0, _kill_own_process]
    with pytest.raises(RuntimeError) as err:
        _with_cpus(monkeypatch, 2, lambda: run_all(jobs))
    assert str(err.value) == "run_all: worker 1 exited with code -9 before it reported"
    _assert_no_children_left()


def _send_part_of_a_message_then_die():
    # the parent reads worker 0 first, so this worker blocks once the pipe
    # is full and is killed with its 10 MB result partly sent
    threading.Timer(0.5, _kill_own_process).start()
    return bytes(10_000_000)


def test_a_worker_that_dies_part_way_through_its_message_reports_its_code(monkeypatch):
    jobs = [partial(time.sleep, 1), _send_part_of_a_message_then_die]
    with pytest.raises(RuntimeError) as err:
        _with_cpus(monkeypatch, 2, lambda: run_all(jobs))
    assert str(err.value) == "run_all: worker 1 exited with code -9 before it reported"
    _assert_no_children_left()


def test_a_failed_start_kills_and_reaps_the_workers_already_started(monkeypatch):
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("no second fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    start = time.monotonic()
    with pytest.raises(OSError, match="no second fork"):
        _with_cpus(monkeypatch, 2, lambda: run_all([partial(time.sleep, 30)] * 2))
    assert time.monotonic() - start < 10  # the first worker was killed, not waited for
    _assert_no_children_left()


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


@contextmanager
def _interrupt_after(seconds):
    """Raise KeyboardInterrupt in this thread after ``seconds``, as Ctrl-C would."""
    previous = signal.signal(signal.SIGALRM, _raise_keyboard_interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_an_interrupted_parent_kills_and_reaps_its_workers(monkeypatch):
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt), _interrupt_after(0.5):
        _with_cpus(monkeypatch, 2, lambda: run_all([partial(time.sleep, 30)] * 2))
    assert time.monotonic() - start < 5
    _assert_no_children_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_descriptor_is_left_open(monkeypatch):
    """Checked while the caught errors, and with them run_all's frames and
    its Process objects, are still held (``failed``, ``interrupted``)."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)

    def descriptors():
        return sorted(os.listdir("/proc/self/fd"))

    before = descriptors()
    assert run_all([partial(pow, 2, 3)] * 3) == [8] * 3
    assert descriptors() == before
    with pytest.raises(KeyError) as failed:
        run_all([partial(_fail, KeyError("first")), lambda: 1])
    assert descriptors() == before
    with pytest.raises(KeyboardInterrupt) as interrupted, _interrupt_after(0.5):
        run_all([partial(time.sleep, 30)] * 2)
    assert descriptors() == before
    _assert_no_children_left()


def test_no_fork_runs_beside_a_live_thread(monkeypatch, tmp_path):
    """Thread pools (svm epochs, network passes) are joined before any fork,
    in the parent and in the workers that fork the pair Models."""
    real_fork, log = os.fork, tmp_path / "forks"

    def fork():
        assert threading.active_count() == 1, "fork beside a live thread"
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(linear, "BLOCK_ROWS", 64)
    monkeypatch.setattr(pipeline, "PREDICT_BLOCK_ROWS", 64)
    assert threading.active_count() == 1
    result = _with_cpus(monkeypatch, 2, lambda: run_experiment(replace(TINY, base="svm")))
    assert any(m is not None for m in result.guided.stage.models_1_to_4)
    forking = set(log.read_text().split())
    assert str(os.getpid()) in forking and len(forking) > 1  # nested forks ran too
    _assert_no_children_left()


# ------------------------------------------------ thread_map


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n_items", [0, 1, 5, 8])
def test_thread_map_runs_item_i_on_thread_i_mod_t(n_items, cpus, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    before, caller, threads = threading.active_count(), threading.get_ident(), {}
    with parallel.thread_map(n_items) as (n_threads, map_items):
        assert n_threads == min(n_items, cpus)
        # each thread's first item waits until all T run at once, so no
        # thread can take two stripes one after the other
        start = threading.Barrier(max(n_threads, 1), timeout=30)

        def fn(i):
            if i < n_threads:
                start.wait()
            threads[i] = threading.get_ident()
            return i * i

        assert map_items(fn) == [i * i for i in range(n_items)]
    assert threading.active_count() == before
    assert n_items == 0 or threads[0] == caller
    for i in range(n_items):
        for j in range(n_items):
            assert (threads[i] == threads[j]) == (i % n_threads == j % n_threads), (i, j)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n_items", [5, 8])
def test_thread_map_raises_the_lowest_failing_items_error(n_items, cpus, monkeypatch):
    # items 3 and 4 fail, on different threads from 2 CPUs up; item 3 fails last
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    before, ran = threading.active_count(), set()

    def fn(i):
        ran.add(i)
        if i == 3:
            time.sleep(0.1)
        if i in (3, 4):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="^item 3$"):
        with parallel.thread_map(n_items) as (n_threads, map_items):
            map_items(fn)
    assert threading.active_count() == before
    # each thread stops at its first failure
    assert ran == {i for i in range(n_items)
                   if not any(j < i and j % n_threads == i % n_threads for j in (3, 4))}
