import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from deepbrainnet import parallel


@pytest.fixture()
def four_workers(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)


def test_results_come_back_in_item_order(four_workers):
    def run(_, item):
        time.sleep(0.001 * (item % 3))  # later items often finish first
        return item * item

    assert parallel.map_on_workers(run, list(range(23))) == [i * i for i in range(23)]


def test_each_worker_gets_its_own_state_and_runs_off_the_calling_thread(four_workers):
    made = []

    def make_worker():
        made.append(object())
        return made[-1]

    seen = parallel.map_on_workers(lambda worker, _: (worker, threading.current_thread()),
                                   range(10), make_worker)
    assert len(made) == 4 and {id(w) for w, _ in seen} <= {id(w) for w in made}
    assert threading.current_thread() not in {thread for _, thread in seen}


def test_every_item_runs_once_under_frequent_thread_switches(monkeypatch):
    """More workers than cores, switching every microsecond: a job taken twice or
    skipped would show in the counts."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    counts = [0] * 2000
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(_, item):
            counts[item] += 1  # each item has one writer
            return item

        assert parallel.map_on_workers(run, range(len(counts))) == list(range(len(counts)))
    finally:
        sys.setswitchinterval(interval)
    assert counts == [1] * len(counts)
    assert threading.active_count() == threads_before  # every worker has ended


def test_one_worker_runs_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    threads = parallel.map_on_workers(lambda _, __: threading.current_thread(), range(3))
    assert threads == [threading.current_thread()] * 3


@pytest.mark.parametrize("side,threaded", [(32, False), (95, False), (96, True), (224, True)])
def test_small_images_run_in_the_calling_thread(four_workers, side, threaded):
    threads = parallel.map_on_workers(lambda _, __: threading.current_thread(), range(3),
                                      item_pixels=side * side)
    assert (threading.current_thread() not in threads) == threaded


def test_an_uncaught_error_is_the_first_failing_item_s(four_workers):
    """Item 5 fails only after item 9 has failed, yet the caller gets item 5's error."""
    failed_9 = threading.Event()

    def run(_, item):
        if item == 5:
            assert failed_9.wait(5)
            raise KeyError(item)
        if item == 9:
            failed_9.set()
            raise ValueError(item)
        return item

    with pytest.raises(KeyError) as info:
        parallel.map_on_workers(run, list(range(12)))
    assert info.value.args == (5,)


def test_no_worker_takes_a_new_item_after_one_has_raised(monkeypatch):
    """Item 3 raises at once while the others take 1 ms: the items before it have all
    run, its error is raised, and the items after it are not handed out."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    ran = []

    def run(_, item):
        ran.append(item)
        if item == 3:
            raise KeyError(item)
        time.sleep(0.001)
        return item

    with pytest.raises(KeyError) as info:
        parallel.map_on_workers(run, list(range(100)))
    assert info.value.args == (3,)
    assert set(range(3)) <= set(ran) and len(ran) < 10, sorted(ran)


def test_workers_take_the_caller_s_numpy_error_state(four_workers):
    def run(_, __):
        return np.float32(3e38) * np.float32(10)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            parallel.map_on_workers(run, range(4))
    with np.errstate(over="ignore"):
        assert all(np.isinf(parallel.map_on_workers(run, range(4))))


def test_threads_start_only_in_the_worker_loop():
    package = Path(parallel.__file__).parent
    users = [p.name for p in sorted(package.rglob("*.py")) if "threading.Thread" in p.read_text()]
    assert users == ["parallel.py"]
