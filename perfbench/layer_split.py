"""Per-layer forward/backward split of one training step, from a traced run's spans.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 1
    python3 perfbench/layer_split.py .perfbench_run/spans-paper-s1.jsonl

Only layer spans inside `nnet.train` and outside `nnet.evaluate_loss` count,
so validation forwards are left out. Seconds are per Adam step at the
workload's batch size, and also scaled linearly to batch 32 for comparison
with figures measured at that batch.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from tracing import LAYER_NAMES


def training_split(path: str) -> tuple[dict[str, dict[str, float]], int, int]:
    """({layer: {direction: seconds per step}}, batch size, steps) averaged over traced runs."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "name" in record:
                spans.append(record)
            else:
                counts[record["run_id"]] = record["counts"]

    def in_training(span) -> bool:
        inside_train = False
        while span["parent"] >= 0:
            span = spans[span["parent"]]
            if span["name"] == "nnet.evaluate_loss":
                return False
            inside_train = inside_train or span["name"] == "nnet.train"
        return inside_train

    seconds: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    steps = sum(span["name"] == "nnet.adam_step" for span in spans)
    if not steps:
        raise SystemExit(f"layer_split: no training steps in {path}")
    for span in spans:
        name = span["name"]
        if name.startswith("nnet.") and name.rsplit(".", 1)[-1] in ("forward", "backward") \
                and in_training(span):
            layer, direction = name[len("nnet."):].rsplit(".", 1)
            seconds[layer][direction] += (span["end"] - span["start"]) / steps
    samples = sum(c.get("nnet.train_samples", 0) for c in counts.values())
    return seconds, round(samples / steps), steps


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    seconds, batch, steps = training_split(argv[0])
    scale = 32 / batch
    total = sum(sum(directions.values()) for directions in seconds.values())
    forward = sum(seconds[layer]["forward"] for layer in LAYER_NAMES)
    backward = sum(seconds[layer]["backward"] for layer in LAYER_NAMES)
    print(f"{steps} training steps at batch {batch}; "
          f"batch-32 columns scale linearly by {scale:.4g}")
    print("| layer | forward s/step | backward s/step | share of step "
          "| forward s @32 | backward s @32 |")
    print("| --- | --- | --- | --- | --- | --- |")
    for layer in LAYER_NAMES:
        f, b = seconds[layer]["forward"], seconds[layer]["backward"]
        print(f"| {layer} | {f:.4f} | {b:.4f} | {(f + b) / total:.1%} "
              f"| {f * scale:.3f} | {b * scale:.3f} |")
    print(f"| total | {forward:.4f} | {backward:.4f} | 100% "
          f"| {forward * scale:.3f} | {backward * scale:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
