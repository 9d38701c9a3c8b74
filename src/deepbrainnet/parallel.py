"""One worker thread per CPU, for the stages whose items are independent.

numpy releases the GIL inside its array loops, so threads that each run
their own image or chunk overlap on the cores without copying any input.
Every result is computed exactly as in one thread, so the outputs do not
depend on the worker count.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Items of fewer image pixels run in the calling thread. Such an item is mostly
# interpreter and small-file calls, which threads do not overlap: on 2 CPUs, 200
# images at 32 px took 0.21 s to synthesize and 0.51 s to preprocess on one
# thread, and 0.27 s and 0.62 s on two. Two threads began to win at 96 px, and
# at 224 px they cut both stages by about a third.
_MIN_THREADED_PIXELS = 96 * 96


def available_cpus() -> int:
    """CPUs this process may run on: one worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_on_workers(run, items, make_worker=lambda: None, item_pixels: int | None = None) -> list:
    """[run(worker, item) for item in items], the items spread over worker threads.

    One thread per available CPU, at most one per item, each with its own
    `make_worker()`, takes the next item in turn and runs it under the
    caller's numpy error state (which is per thread). The results come back in
    item order. Once an item has raised, no worker takes a new one; the items
    are handed out in order, so every item before it has run, and the caller
    gets the first exception in item order unchanged once the running items
    end. With one worker, or items of one image each whose
    `item_pixels` are under `_MIN_THREADED_PIXELS`, the items run in the
    calling thread, and the first exception stops them. Every worker has
    ended on return.
    """
    workers = min(available_cpus(), len(items))
    if workers < 2 or (item_pixels is not None and item_pixels < _MIN_THREADED_PIXELS):
        worker = make_worker()
        return [run(worker, item) for item in items]
    outcomes: list = [None] * len(items)
    todo = iter(range(len(items)))
    lock = threading.Lock()
    errors = np.geterr()
    failed = False

    def work(worker) -> None:
        nonlocal failed
        with np.errstate(**errors):
            while True:
                with lock:
                    k = None if failed else next(todo, None)
                if k is None:
                    return
                try:
                    outcomes[k] = (run(worker, items[k]), None)
                except BaseException as error:  # raised again below, in item order
                    outcomes[k] = (None, error)
                    with lock:
                        failed = True

    threads = [threading.Thread(target=work, args=(make_worker(),)) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for _, error in outcomes:  # an item left unrun (None) follows the one that raised
        if error is not None:
            raise error
    return [result for result, _ in outcomes]
