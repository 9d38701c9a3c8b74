"""The benchmark helpers under tools/ run as scripts and print the JSON keys they document."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from deepbrainnet.nnet import build_deepbrainnet_mini

ROOT = Path(__file__).resolve().parents[1]


def run_tool(name, *args) -> dict:
    """The one JSON object that `python tools/<name> args` prints, run from a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_step_split_reports_both_passes_of_every_layer_and_the_adam_step():
    report = run_tool("step_split.py", "--size", "32", "--batch", "8", "--steps", "1")
    layers = [name for name, _ in build_deepbrainnet_mini(32, 4).named_layers()]
    passes = {f"{name}.{kind}" for name in layers for kind in ("forward", "backward")}
    assert set(report) == {"size", "batch", "steps", "step_s", "adam_step"} | passes
    assert (report["size"], report["batch"], report["steps"]) == (32, 8, 1)
    assert report["step_s"] > 0.0 and report["adam_step"] > 0.0


def test_chunk_sweep_reports_each_chunk_size():
    report = run_tool("chunk_sweep.py", "--size", "32", "--chunks", "1,8", "--predict", "8",
                      "--batch", "8", "--rounds", "1")
    assert set(report) == {"size", "predict", "batch", "rounds", "1", "8"}
    for chunk in ("1", "8"):
        assert set(report[chunk]) == {"predict_s", "train_step_s", "predict_peak_mb"}
        assert all(value > 0.0 for value in report[chunk].values()), report[chunk]


def test_bench_pairs_verdicts_follow_the_gain_rule_and_the_bound():
    compare = runpy.run_path(str(ROOT / "tools" / "bench_pairs.py"))["compare"]
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    faster = [round(0.8 * value, 4) for value in parent]
    gain = compare(parent, faster, 0.25)
    assert (gain["verdict"], gain["change_lower_in"], gain["pair_ratios"]) == ("gain", "10/10", [0.8] * 10)
    assert gain["parent"]["runs"] == parent and gain["change"]["median"] == 0.8
    assert compare(parent[:9], faster[:9], 0.25)["verdict"] == "within bound"  # too few pairs to claim
    assert compare(parent, [1.3 * value for value in parent], 0.25)["verdict"] == "worse beyond bound"
    noisy = [1.0, 2.0] * 5  # quartile spread 1.0 on a median of 1.5: wider than the bound
    assert compare(noisy, noisy[::-1], 0.25)["verdict"] == "unresolved"
    assert compare(noisy, [0.4] * 10, 0.25)["verdict"] == "gain"
    stage = compare(parent, parent)  # stage seconds and faults carry no bound and no verdict
    assert "verdict" not in stage and stage["change_lower_in"] == "0/10"
