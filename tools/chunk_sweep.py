"""Seconds of predict and of one training step, and predict's traced peak, per micro-batch size.

    PYTHONPATH=src python3 tools/chunk_sweep.py --size 224 --chunks 1,2,4,13 --rounds 5

For each `--chunks` entry, sets how many images `Network.inference_logits`
and `Network.train_step` run at once (by setting `network._CHUNK_BYTES` to
that many float32 images), then times `predict` of `--predict` images and
one `train_step` of a `--batch` image batch. The network is the seeded
untrained one in float32, as `train` on the command line builds it, and the
inputs are seeded uint8 planes in the CLI's one-plane view (`cli._to_tensor`),
so each chunk becomes floats inside the worker that runs it, as in `train`
and `evaluate`. Each round runs every chunk size once, in turn, after one
warm-up round, so drift spreads over all of them; the median seconds per
chunk size are printed as one JSON object, next to the peak that tracemalloc
sees over one more, untimed `predict` (`predict_peak_mb`). The chunks
run on one worker thread per available CPU, as they do in `train` and
`evaluate`; pin the process to one CPU (`taskset -c 0`) to time them
serially. Pin the BLAS thread count in the environment for comparable runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc

import numpy as np

from deepbrainnet.cli import _to_tensor
from deepbrainnet.nnet import build_deepbrainnet_mini, network, predict
from deepbrainnet.rng import Prng

SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=224)
    parser.add_argument("--chunks", default="1,2,4,13", help="images per chunk, comma-separated")
    parser.add_argument("--predict", type=int, default=64)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    chunks = [int(c) for c in args.chunks.split(",")]
    net = build_deepbrainnet_mini(args.size, 4, seed=SEED, dtype=np.float32)
    data = np.random.default_rng(SEED)
    images = _to_tensor(data.integers(0, 256, (args.predict, args.size, args.size), dtype=np.uint8))
    batch = _to_tensor(data.integers(0, 256, (args.batch, args.size, args.size), dtype=np.uint8))
    labels = np.arange(args.batch) % 4
    image_bytes = 4 * 3 * args.size * args.size
    seconds = {(c, kind): [] for c in chunks for kind in ("predict_s", "train_step_s")}
    peaks = {}
    saved = network._CHUNK_BYTES
    try:
        for round_ in range(args.rounds + 1):
            for c in chunks:
                network._CHUNK_BYTES = c * image_bytes
                for kind, run in (("predict_s", lambda: predict(net, images)),
                                  ("train_step_s", lambda: net.train_step(batch, labels, Prng(SEED)))):
                    started = time.perf_counter()
                    run()
                    if round_:  # round 0 warms up
                        seconds[c, kind].append(time.perf_counter() - started)
        for c in chunks:
            network._CHUNK_BYTES = c * image_bytes
            tracemalloc.start()
            try:
                predict(net, images)
                peaks[c] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        network._CHUNK_BYTES = saved
    report = {"size": args.size, "predict": args.predict, "batch": args.batch, "rounds": args.rounds}
    for c in chunks:
        report[str(c)] = {kind: round(statistics.median(seconds[c, kind]), 4)
                          for kind in ("predict_s", "train_step_s")}
        report[str(c)]["predict_peak_mb"] = round(peaks[c] / 1e6, 3)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
