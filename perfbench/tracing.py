"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps each layer's public functions where the caller looks them
up (the `deepbrainnet.cli` namespace, `Adam.step` and `evaluate_loss` in
`deepbrainnet.nnet.training`, and `forward`/`backward` of every named layer
of each network the CLI builds or loads). Wrappers are installed only inside
`instrument()` and removed when it exits, so untraced runs execute the
unmodified program.

A span is (name, start, end, parent index, run id). Counters (bytes, points,
FCM iterations, computed FLOPs) are kept per run id beside the spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

# named layers of the mini network, in Network.named_layers() order
LAYER_NAMES = tuple(
    [f"branch_a.{i}" for i in range(5)]
    + [f"branch_b.{i}" for i in range(3)]
    + ["head.dropout", "head.dense", "head.softmax"]
)
CONV_LAYERS = ("branch_a.0", "branch_a.2", "branch_a.3", "branch_b.0", "branch_b.1")
STAGES = ("preprocess", "fcm", "train", "evaluate")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, run_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, run_id)

    def count(self, key: str, amount: float) -> None:
        self.counts[self.run_id][key] += amount

    def traced(self, fn, name: str, after=None):
        """`fn` wrapped in a span; `after(args, result)` records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, then one line of counters per run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id}) + "\n")
            for run_id, counts in self.counts.items():
                fh.write(json.dumps({"run_id": run_id, "counts": counts}) + "\n")

    def layer_metrics(self, run_id: str) -> dict[str, float]:
        """Per-layer metric values of one traced pipeline run."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_seconds: dict[int, float] = defaultdict(float)
        for _, (name, start, end, parent, _) in spans:
            seconds[name] += end - start
            calls[name] += 1
            child_seconds[parent] += end - start
        counts = self.counts[run_id]
        values = {}
        for name in ("dataio.load_pgm", "dataio.save_pgm", "imaging.augment",
                     "fcm.fcm_segment", "nnet.adam_step"):
            values[f"{name}_calls"] = calls[name]
        for name in ("dataio.load_pgm", "dataio.save_pgm", "dataio.scan_dataset",
                     "imaging.auto_crop_margins", "imaging.resize_bilinear", "imaging.box_blur",
                     "imaging.clahe", "imaging.augment", "fcm.fcm_segment", "fcm.save_matrix_csv",
                     "nnet.adam_step", "nnet.evaluate_loss", "nnet.save_checkpoint",
                     "nnet.load_checkpoint", "nnet.predict", "metrics.classification_report",
                     "metrics.roc_curve", "metrics.svg", "metrics.csv"):
            values[f"{name}_s"] = seconds[name]
        for key in ("dataio.read_bytes", "dataio.write_bytes", "fcm.points", "fcm.iterations",
                    "fcm.csv_bytes", "nnet.train_samples"):
            values[key] = counts[key]
        segmented = calls["fcm.fcm_segment"]
        values["fcm.converged_ratio"] = counts["fcm.converged"] / segmented if segmented else 0.0
        for layer in LAYER_NAMES:
            for direction in ("forward", "backward"):
                values[f"nnet.{layer}.{direction}_s"] = seconds[f"nnet.{layer}.{direction}"]
        for layer in CONV_LAYERS:
            forward = counts[f"nnet.{layer}.forward_flop"] / 1e9
            values[f"nnet.{layer}.forward_gflop"] = forward
            values[f"nnet.{layer}.backward_gflop"] = counts[f"nnet.{layer}.backward_flop"] / 1e9
            busy = seconds[f"nnet.{layer}.forward"]
            values[f"nnet.{layer}.forward_gflops"] = forward / busy if busy else 0.0
        for stage in STAGES:
            own = [(i, s) for i, s in spans if s[0] == f"cli.{stage}"]
            values[f"cli.{stage}.self_s"] = sum(s[2] - s[1] - child_seconds[i] for i, s in own)
        return values


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in ("dataio.load_pgm", "dataio.save_pgm", "imaging.augment",
                 "fcm.fcm_segment", "nnet.adam_step"):
        units[f"{name}_calls"] = "count"
    for name in ("dataio.read_bytes", "dataio.write_bytes", "fcm.csv_bytes"):
        units[name] = "B"
    for name in ("fcm.points", "fcm.iterations", "nnet.train_samples"):
        units[name] = "count"
    units["fcm.converged_ratio"] = "ratio"
    values = Tracer().layer_metrics("")
    for name in values:
        units.setdefault(name, "GFLOP/s" if name.endswith("_gflops")
                         else "GFLOP" if name.endswith("_gflop") else "s")
    units["trace.overhead_s"] = "s"
    return units


def conv_flops(layer, shape) -> int:
    """Forward FLOPs of a convolution-bearing layer for an input shape, computed
    as 2 * multiply-accumulates of each convolution; 0 for other layers."""
    n, _, h, w = shape
    if layer.kind == "residual_block":
        return 2 * conv_flops(layer.conv1, shape)
    if layer.kind not in ("conv2d", "ds_block"):
        return 0
    k, s, p = layer.kernel, layer.stride, layer.padding
    pixels = ((h + 2 * p - k) // s + 1) * ((w + 2 * p - k) // s + 1)
    if layer.kind == "conv2d":
        return 2 * n * pixels * layer.c_in * layer.c_out * k * k
    return 2 * n * pixels * layer.c_in * (k * k + layer.c_out)  # depthwise then pointwise


def _instrument_network(tracer: Tracer, network):
    """Wrap forward/backward of every named layer on this network instance.

    Backward FLOPs are counted as twice the forward FLOPs of the layer's last
    forward call: one convolution for the weight gradient, one for the input
    gradient.
    """
    for name, layer in network.named_layers():
        last_flops = [0]

        def forward_done(args, _result, name=name, layer=layer, last_flops=last_flops):
            last_flops[0] = conv_flops(layer, args[0].shape) if args[0].ndim == 4 else 0
            tracer.count(f"nnet.{name}.forward_flop", last_flops[0])

        def backward_done(_args, _result, name=name, last_flops=last_flops):
            tracer.count(f"nnet.{name}.backward_flop", 2 * last_flops[0])

        layer.forward = tracer.traced(layer.forward, f"nnet.{name}.forward", forward_done)
        layer.backward = tracer.traced(layer.backward, f"nnet.{name}.backward", backward_done)
    return network


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of one traced pipeline run."""
    from deepbrainnet import cli
    from deepbrainnet.nnet import training

    def file_bytes(key, arg_index):
        return lambda args, _r: tracer.count(key, os.path.getsize(args[arg_index]))

    def segmented(args, result):
        image, (_, fcm_result) = args[0], result
        tracer.count("fcm.points", image.width * image.height)
        tracer.count("fcm.iterations", fcm_result.iterations_run)
        tracer.count("fcm.converged", int(fcm_result.converged))

    def trained(args, history):
        tracer.count("nnet.train_samples", len(history) * len(args[1][1]))

    def with_network(fn, name):
        traced = tracer.traced(fn, name)
        return lambda *a, **k: _instrument_network(tracer, traced(*a, **k))

    cli_wrappers = {
        "load_pgm": tracer.traced(cli.load_pgm, "dataio.load_pgm",
                                  file_bytes("dataio.read_bytes", 0)),
        "save_pgm": tracer.traced(cli.save_pgm, "dataio.save_pgm",
                                  file_bytes("dataio.write_bytes", 1)),
        "scan_dataset": tracer.traced(cli.scan_dataset, "dataio.scan_dataset"),
        "auto_crop_margins": tracer.traced(cli.auto_crop_margins, "imaging.auto_crop_margins"),
        "resize_bilinear": tracer.traced(cli.resize_bilinear, "imaging.resize_bilinear"),
        "box_blur": tracer.traced(cli.box_blur, "imaging.box_blur"),
        "clahe": tracer.traced(cli.clahe, "imaging.clahe"),
        "augment_image": tracer.traced(cli.augment_image, "imaging.augment"),
        "fcm_segment": tracer.traced(cli.fcm_segment, "fcm.fcm_segment", segmented),
        "save_matrix_csv": tracer.traced(cli.save_matrix_csv, "fcm.save_matrix_csv",
                                         file_bytes("fcm.csv_bytes", 1)),
        "build_deepbrainnet_mini": with_network(cli.build_deepbrainnet_mini, "nnet.build"),
        "load_checkpoint": with_network(cli.load_checkpoint, "nnet.load_checkpoint"),
        "save_checkpoint": tracer.traced(cli.save_checkpoint, "nnet.save_checkpoint"),
        "predict": tracer.traced(cli.predict, "nnet.predict"),
        "train": tracer.traced(cli.train, "nnet.train", trained),
        "classification_report": tracer.traced(cli.classification_report,
                                               "metrics.classification_report"),
        "roc_curve": tracer.traced(cli.roc_curve, "metrics.roc_curve"),
        "roc_svg": tracer.traced(cli.roc_svg, "metrics.svg"),
        "confusion_svg": tracer.traced(cli.confusion_svg, "metrics.svg"),
        "report_to_csv": tracer.traced(cli.report_to_csv, "metrics.csv"),
        "confusion_to_csv": tracer.traced(cli.confusion_to_csv, "metrics.csv"),
        "roc_to_csv": tracer.traced(cli.roc_to_csv, "metrics.csv"),
    }
    patches = [(cli, attr, wrapper) for attr, wrapper in cli_wrappers.items()]
    patches.append((training, "evaluate_loss",
                    tracer.traced(training.evaluate_loss, "nnet.evaluate_loss")))
    patches.append((training.Adam, "step", tracer.traced(training.Adam.step, "nnet.adam_step")))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
