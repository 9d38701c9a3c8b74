"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py

It makes tiny untraced and traced runs and asserts that every metric named in
BENCHMARK.json appears with its unit, then corrupts or removes an artifact of
a finished pipeline run and asserts that the output check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

TINY = run.Workload(
    "tiny",
    {"image_size": 32, "synth_per_class": 3, "epochs": 1, "fcm_mask_enabled": "true",
     "early_stop_patience": 1000},
    ("preprocess", "fcm", "train", "evaluate"),
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def declared_units(spec: dict, key: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def check_metric_names(spec: dict, work_root: str) -> None:
    from tracing import per_layer_units

    expect(declared_units(spec, "end_to_end") == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(declared_units(spec, "per_layer") == per_layer_units(),
           "BENCHMARK.json per_layer differs from tracing.per_layer_units()")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(TINY, 5, 0, trace, work_root, log=lambda _line: None)
        expect(result["correct"] and result["failed"] == 0, f"tiny run (trace={trace}) failed")
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(reported == declared_units(spec, key),
               f"trace={trace} run does not report every {key} metric with its unit")


def check_corruption_detected(work_root: str) -> None:
    cli = run.import_program()
    setup_root = tempfile.mkdtemp(dir=work_root)
    run.set_up(cli, TINY, 5, setup_root)

    def finished_run() -> str:
        out = tempfile.mkdtemp(dir=work_root)
        _, problems = run.run_pipeline(cli, TINY, 5, setup_root, out)
        expect(not problems and not run.check_outputs(TINY, out)[0], "clean tiny run did not pass")
        return out

    out = finished_run()
    with open(os.path.join(out, "train", "checkpoint.bin"), "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0xFF]))
    expect(run.check_outputs(TINY, out)[0], "a corrupted checkpoint passed the check")

    out = finished_run()
    os.remove(os.path.join(out, "fcm", "summaries.csv"))
    expect(run.check_outputs(TINY, out)[0], "a missing artifact passed the check")

    out = finished_run()
    predictions = os.path.join(out, "eval", "predictions.csv")
    with open(predictions, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 0.5)
    lines[1] = ",".join(cells)
    with open(predictions, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    expect(run.check_predictions(TINY, predictions), "a prediction row off 1 passed the check")
    floor = run.Workload("floor", TINY.config, TINY.stages, accuracy_floor=1.01)
    expect(run.check_predictions(floor, predictions), "an accuracy floor above 1 passed")


def main() -> int:
    run.pin_blas_threads()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(run.RUN_ROOT, exist_ok=True)
    work_root = os.path.abspath(tempfile.mkdtemp(prefix="selftest-", dir=run.RUN_ROOT))
    try:
        check_metric_names(spec, work_root)
        check_corruption_detected(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
