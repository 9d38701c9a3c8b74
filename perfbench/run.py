"""deepbrainnet benchmark: per-stage CLI times on three seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each workload first sets itself up (import plus synthetic inputs from
`--seed`, repeated SETUP_REPEATS times; the median is `setup_s`), then runs
its pipeline through `deepbrainnet.cli.main` in a fresh output directory
again and again until `--seconds` would be exceeded, at least MIN_RUNS times.
Every pipeline run is checked (exit codes, artifacts, digests against the run
records and against the first run, prediction rows, the desk accuracy floor).

`--trace 0` reports the end-to-end metrics of untraced runs. `--trace 1`
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones plus the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from tracing import Tracer, instrument, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RUN_ROOT = ".perfbench_run"  # under the working directory, listed in .gitignore
SETUP_REPEATS = 3
MIN_RUNS = 2
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# End-to-end metrics of every workload, with units, in BENCHMARK.json order.
END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    stages: tuple[str, ...]  # measured, in order
    prepared: bool = False  # setup also runs preprocess and writes an untrained checkpoint
    accuracy_floor: float | None = None  # minimum validation accuracy from predictions.csv


# Why each workload exists, and which layer metrics it should move, is in
# BENCHMARK.json and REPORT.md. Sizes keep a run near 30 s so that 70 runs fit
# in the measurement budget. The patience above the epoch count makes every
# run train for the same number of epochs. Desk trains 20 epochs because with
# 10 some seeds stop, loss still falling, below the accuracy floor.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            {"image_size": 32, "synth_per_class": 50, "epochs": 20, "batch_size": 32,
             "learning_rate": 0.005, "augment_enabled": "true", "fcm_mask_enabled": "true",
             "early_stop_patience": 1000},
            ("preprocess", "fcm", "train", "evaluate"),
            accuracy_floor=0.6,
        ),
        Workload(
            "paper",
            {"image_size": 224, "synth_per_class": 4, "epochs": 2, "augment_enabled": "false",
             "early_stop_patience": 1000},
            ("preprocess", "fcm", "train"),
        ),
        Workload(
            "paper_infer",
            {"image_size": 224, "synth_per_class": 17, "train_fraction": 0.05},
            ("evaluate",),
            prepared=True,
        ),
    )
}

# Artifacts every stage must leave, relative to output_dir.
REQUIRED = {
    "preprocess": ("preprocessed/manifest.csv",),
    "fcm": ("fcm/summaries.csv",),
    "train": ("train/checkpoint.bin", "train/checkpoint.bin.layers.csv", "train/history.csv"),
    "evaluate": ("eval/predictions.csv", "eval/report.csv", "eval/report.txt",
                 "eval/confusion.csv", "eval/confusion.svg", "eval/roc.svg"),
}


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def import_program():
    """Import deepbrainnet from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "deepbrainnet", "cli.py")):
        raise SystemExit(f"perfbench: no deepbrainnet sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sys.dont_write_bytecode = True
    import deepbrainnet.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported deepbrainnet from {cli.__file__}, not {SRC}")
    return cli


def machine_record() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # older numpy has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def write_config(path: str, workload: Workload, seed: int, dataset: str, output: str) -> None:
    items = {**workload.config, "seed": seed, "dataset_root": dataset, "output_dir": output}
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in items.items())


def run_cli(cli, args: list[str]) -> tuple[int, str]:
    """cli.main with its console output captured; (exit code, captured text)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(args)
    return code, captured.getvalue()


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------


def set_up(cli, workload: Workload, seed: int, root: str) -> None:
    """Synthetic inputs (plus, for a prepared workload, preprocessed images and
    an untrained seeded checkpoint) under root."""
    config = os.path.join(root, "setup.cfg")
    write_config(config, workload, seed, os.path.join(root, "data"), os.path.join(root, "prepared"))
    commands = ["synth", "preprocess"] if workload.prepared else ["synth"]
    for command in commands:
        code, text = run_cli(cli, [command, "--config", config])
        if code != 0:
            raise RuntimeError(f"setup {command} exited {code}: {text.strip()[-500:]}")
    if workload.prepared:
        from deepbrainnet.nnet import build_deepbrainnet_mini, save_checkpoint

        network = build_deepbrainnet_mini(workload.config["image_size"], 4, seed=seed)
        os.makedirs(os.path.join(root, "prepared", "train"))
        save_checkpoint(network, os.path.join(root, "prepared", "train", "checkpoint.bin"))


def setup_digest(root: str) -> str:
    """One digest over every input file the setup produced."""
    digest = hashlib.sha256()
    for base in ("data", "prepared/preprocessed", "prepared/train"):
        top = os.path.join(root, base)
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                digest.update(os.path.relpath(path, root).encode() + sha256(path).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def check_outputs(workload: Workload, out: str) -> tuple[list[str], dict[str, str]]:
    """(problems, artifact digests) for one finished pipeline run in `out`."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    for stage in workload.stages:
        record = os.path.join(out, f"runrecord_{stage}.txt")
        if not os.path.isfile(record):
            problems.append(f"{stage}: no run record")
            continue
        with open(record, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("artifact: "):
                    recorded, rel = line[len("artifact: "):].rstrip("\n").split("  ", 1)
                    digests[rel] = recorded
        for rel in REQUIRED[stage]:
            if rel not in digests:
                problems.append(f"{stage}: {rel} missing from the run record")
    for rel, recorded in digests.items():
        path = os.path.join(out, rel)
        if not os.path.isfile(path):
            problems.append(f"{rel}: missing")
        elif sha256(path) != recorded:
            problems.append(f"{rel}: content differs from its run-record digest")
    if "evaluate" in workload.stages and not problems:
        problems += check_predictions(workload, os.path.join(out, "eval", "predictions.csv"))
    return problems, digests


def check_predictions(workload: Workload, path: str) -> list[str]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        k = len(header) - 3
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if k < 2 or not rows:
        return [f"predictions.csv: {k} probability columns, {len(rows)} rows"]
    for row in rows:
        probs = [float(v) for v in row[3:]]
        if len(probs) != k or abs(sum(probs) - 1.0) > 1e-9 or min(probs) < 0.0:
            problems.append(f"predictions.csv: row {row[0]} does not sum to 1 over {k} columns")
    accuracy = sum(row[1] == row[2] for row in rows) / len(rows)
    if workload.accuracy_floor is not None and accuracy < workload.accuracy_floor:
        problems.append(f"validation accuracy {accuracy:.3f} below floor {workload.accuracy_floor}")
    return problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_pipeline(cli, workload: Workload, seed: int, setup_root: str, out: str, tracer=None):
    """One pipeline run in the fresh directory `out`; returns (measurements, problems):
    `<stage>_s` per stage, `pipeline_s` their sum, `output_bytes` written under `out`."""
    prepared = os.path.join(setup_root, "prepared")
    if workload.prepared:
        for sub in ("preprocessed", "train"):
            shutil.copytree(os.path.join(prepared, sub), os.path.join(out, sub))
    config = os.path.join(out, "run.cfg")
    write_config(config, workload, seed, os.path.join(setup_root, "data"), out)
    bytes_before = tree_bytes(out)
    times = {}
    problems = []
    with instrument(tracer) if tracer else contextlib.nullcontext():
        for stage in workload.stages:
            span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
            started = time.perf_counter()
            with span:
                code, text = run_cli(cli, [stage, "--config", config])
            times[f"{stage}_s"] = time.perf_counter() - started
            if code != 0:
                problems.append(f"{stage} exited {code}: {text.strip()[-300:]}")
                break
    times["pipeline_s"] = sum(times.values())
    times["output_bytes"] = tree_bytes(out) - bytes_before
    return times, problems


def summarize(values: list[float]) -> str:
    """Median and the highest percentile n samples support (under ten, the maximum)."""
    return (f"median={statistics.median(values):.6g} max={max(values):.6g} n={len(values)}"
            if values else "n=0")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_root: str,
                 log=print) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import_started = time.perf_counter()
    cli = import_program()
    import_s = time.perf_counter() - import_started

    log("machine: " + json.dumps(machine_record()))
    setup_times, setup_digests, setup_roots = [], [], []
    for i in range(SETUP_REPEATS):
        root = tempfile.mkdtemp(prefix=f"setup{i}-", dir=work_root)
        started = time.perf_counter()
        set_up(cli, workload, seed, root)
        setup_times.append(time.perf_counter() - started)
        setup_digests.append(setup_digest(root))
        setup_roots.append(root)
    for root in setup_roots[1:]:
        shutil.rmtree(root)
    setup_root = setup_roots[0]
    setup_ok = len(set(setup_digests)) == 1
    if not setup_ok:
        log("check: setup repeats produced different inputs")

    tracer = Tracer() if trace else None
    untraced, traced_ids, failed = [], [], 0
    reference = None
    measure_started = time.perf_counter()
    runs = 0
    while True:
        traced = trace and runs % 2 == 1
        out = tempfile.mkdtemp(prefix=f"run{runs}-", dir=work_root)
        if traced:
            tracer.run_id = f"{workload.name}-s{seed}-r{runs}"
        times, problems = run_pipeline(cli, workload, seed, setup_root, out,
                                       tracer if traced else None)
        if not problems:
            problems, digests = check_outputs(workload, out)
            if reference is None:
                reference = digests
            elif digests != reference:
                problems.append("artifact digests differ from the first run of this seed")
        shutil.rmtree(out)
        runs += 1
        log(f"run {runs}{' traced' if traced else ''}: " + " ".join(
            f"{name}={value:.4f}" for name, value in times.items() if name.endswith("_s")))
        if problems:
            failed += 1
            log(f"check: run {runs} failed: " + "; ".join(problems[:5]))
        # A failed run still counts in the metrics, so that the result line
        # always carries every metric; `correct` and `failed` report the failure.
        if traced:
            traced_ids.append((tracer.run_id, times["pipeline_s"]))
        else:
            untraced.append(times)
        elapsed = time.perf_counter() - measure_started
        if runs >= MIN_RUNS and elapsed + elapsed / runs > seconds:
            break

    log(f"workload {workload.name} seed {seed}: {runs} runs, {failed} failed, "
        f"error_rate={failed / runs:.6g} ratio")
    log(f"samples setup_s: {summarize(setup_times)} unit=s (import {import_s:.6g} s added)")
    for name in [f"{stage}_s" for stage in workload.stages] + ["pipeline_s"]:
        log(f"samples {name}: {summarize([t[name] for t in untraced])} unit=s")
    metrics = {}
    if not trace:
        units = END_TO_END
        if untraced:
            metrics = {
                "pipeline_s": statistics.median(t["pipeline_s"] for t in untraced),
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "output_mb": statistics.median(t["output_bytes"] for t in untraced) / 1e6,
            }
    else:
        units = per_layer_units()
        if traced_ids and untraced:
            per_run = [tracer.layer_metrics(run_id) for run_id, _ in traced_ids]
            metrics = {name: statistics.median(v[name] for v in per_run) for name in per_run[0]}
            metrics["trace.overhead_s"] = (statistics.median(p for _, p in traced_ids)
                                           - statistics.median(t["pipeline_s"] for t in untraced))
            spans_path = os.path.join(os.path.dirname(work_root),
                                      f"spans-{workload.name}-s{seed}.jsonl")
            tracer.dump(spans_path)
            log(f"trace: {len(tracer.spans)} spans written to {spans_path}")
    shutil.rmtree(setup_root)
    for name, value in metrics.items():
        log(f"metric {name}: {value:.6g} unit={units[name]}")
    return {
        "correct": setup_ok and failed == 0 and set(metrics) == set(units),
        "attempted": runs,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    os.makedirs(RUN_ROOT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="work-", dir=RUN_ROOT)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), os.path.abspath(work_root))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
