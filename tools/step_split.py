"""Per-layer seconds of one full training step at a chosen size and batch.

    PYTHONPATH=src python3 tools/step_split.py --size 224 --batch 32 --steps 3

Builds the seeded untrained network in float32, as `train` on the command
line does, and runs a warm-up step plus `--steps` measured steps on seeded
float32 uniform inputs. A step is what `train` does per
batch: `Network.train_step` (forward with dropout on, loss gradient and
backward over each cache-sized micro-batch in turn) and then the Adam update.
The forward and backward of each `Network.named_layers()` entry, summed over
the micro-batches, and the Adam update are timed with the span tracer of
`perfbench/tracing.py`, and the median seconds per step are printed as one
JSON object.
`perfbench/layer_split.py` takes its figures from the paper workload's batch
of 12 and scales them to batch 32; this measures the batch directly. Pin the
BLAS thread count in the environment for comparable runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from deepbrainnet.nnet import Adam, TrainConfig, build_deepbrainnet_mini
from deepbrainnet.rng import Prng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer, _instrument_network  # noqa: E402

SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=224)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--steps", type=int, default=3)
    args = parser.parse_args(argv)
    tracer = Tracer()
    network = build_deepbrainnet_mini(args.size, 4, seed=SEED, dtype=np.float32)
    network = _instrument_network(tracer, network)
    config = TrainConfig(seed=SEED)
    optimizer = Adam(network.parameters(), config.beta1, config.beta2, config.adam_epsilon)
    adam_step = tracer.traced(optimizer.step, "nnet.adam_step")
    dropout_rng = Prng(SEED)
    x = np.random.default_rng(SEED).random((args.batch, 3, args.size, args.size), dtype=np.float32)
    labels = np.arange(args.batch) % 4
    for step in range(args.steps + 1):
        tracer.run_id = str(step)
        with tracer.span("step"):
            network.train_step(x, labels, dropout_rng)
            adam_step(network.gradients(), config.learning_rate)
    # per measured step: seconds of each span name; the warm-up step "0" is left out
    seconds: dict[str, list[float]] = defaultdict(lambda: [0.0] * args.steps)
    for name, start, end, _, run_id in tracer.spans:
        if run_id != "0":
            seconds[name.removeprefix("nnet.")][int(run_id) - 1] += end - start
    report = {"size": args.size, "batch": args.batch, "steps": args.steps,
              "step_s": statistics.median(seconds.pop("step"))}
    report.update({name: statistics.median(values) for name, values in seconds.items()})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
