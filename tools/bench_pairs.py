"""Paired benchmark runs of two revisions, written as a BENCH_<topic>.json file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --workload desk \\
        --pairs 10 --seed 101 --seconds 30 --out BENCH_heap.json

Exports both revisions with `git archive` into `.perfbench_run/pairs-*/parent`
and `.../change`, sibling directories of equal path length, so that the run
records (which hold absolute paths) weigh the same on both sides. Each pair
runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` once per
side, each in a fresh subprocess started in that side's tree, the parent first
in even pairs and the change first in odd ones.

Per run it keeps the four end-to-end metrics, the per-stage medians from the
`samples <stage>_s:` lines, and the subprocess's minor page faults
(`ru_minflt` of `RUSAGE_CHILDREN`, before and after). Per metric it writes
both sides' runs and quartiles, the change/parent ratio of each pair, the
count of pairs the change reads lower, and a verdict:

- `gain`: over ten pairs or more, the change is lower in nine tenths of them and its
  median lies below the parent's by more than the parent's quartile spread;
- `worse beyond bound`: the change's median exceeds the parent's by more than
  the metric's bound in the change's BENCHMARK.json;
- `unresolved`: the parent's quartile spread is wider than that bound and not
  every change run reads below every parent run;
- `within bound`: otherwise.

An existing `--out` file of the same two revisions keeps its other workloads,
so one file can hold several workloads. Exits 1 without writing when a run
cannot be read.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")  # equal lengths: both trees sit at paths of one length
END_TO_END = ("pipeline_s", "setup_s", "peak_rss_mb", "output_mb")
SAMPLES = re.compile(r"^samples (\w+_s): median=(\S+)")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, directory: str) -> None:
    """The committed files of `rev` under `directory`."""
    os.makedirs(directory)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` subprocess in `tree`: its result line, stage medians,
    machine record and minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        machine = json.loads(next(line for line in lines if line.startswith("machine: "))[9:])
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: perfbench/run.py in {tree} exited {done.returncode} "
                         f"without a result line: {(done.stdout + done.stderr).strip()[-500:]}")
    stages = {m.group(1): float(m.group(2)) for m in map(SAMPLES.match, lines)
              if m and m.group(1) not in END_TO_END}
    return {"result": result, "stages": stages, "minor_faults": faults, "machine": machine}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], bound: float | None = None) -> dict:
    """Both sides' runs and quartiles, per-pair ratios and, given a bound, the verdict."""
    sides = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4),
                       "runs": [round(value, 4) for value in runs]}
    lower = sum(c < p for p, c in zip(parent, change))
    (p_q1, p_median, p_q3), c_median = quartiles(parent), quartiles(change)[1]
    entry = {
        **sides,
        "pair_ratios": [round(c / p, 3) if p else None for p, c in zip(parent, change)],
        "change_lower_in": f"{lower}/{len(parent)}",
        "median_ratio": round(c_median / p_median, 3) if p_median else None,
    }
    if bound is not None:
        if len(parent) >= 10 and lower >= 0.9 * len(parent) and p_median - c_median > p_q3 - p_q1:
            verdict = "gain"
        elif c_median > p_median * (1.0 + bound):
            verdict = "worse beyond bound"
        elif p_q3 - p_q1 > bound * p_median and max(change) >= min(parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        entry.update(bound=bound, verdict=verdict)
    return entry


def summarize(runs: dict[str, list[dict]], bounds: dict[str, float], seed: int) -> dict:
    """The BENCH file's section for one workload, from each side's runs in pair order."""
    parent, change = runs["parent"], runs["change"]
    section = {
        "seed": seed,
        "pairs": len(parent),
        "run_order": "pair k runs the parent first when k is even, the change first when odd",
        "all_correct": all(run["result"]["correct"] for run in parent + change),
        "failed_runs": sum(run["result"]["failed"] for run in parent + change),
    }
    for metric in END_TO_END:
        values = [[run["result"]["metrics"][metric]["value"] for run in side] for side in (parent, change)]
        section[metric] = compare(*values, bounds[metric])
    section["stages"] = {
        stage: compare([run["stages"][stage] for run in parent], [run["stages"][stage] for run in change])
        for stage in parent[0]["stages"]
    }
    section["minor_faults"] = compare([run["minor_faults"] for run in parent],
                                      [run["minor_faults"] for run in change])
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the base")
    parser.add_argument("--change", required=True, help="revision measured against it")
    parser.add_argument("--workload", required=True, help="a perfbench/run.py workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the workload seed of every run")
    parser.add_argument("--seconds", type=float, default=30.0, help="run.py's --seconds")
    parser.add_argument("--out", required=True, help="BENCH_<topic>.json to write or extend")
    args = parser.parse_args(argv)
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.parent, args.change))}
    bench = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
        if (bench.get("parent_commit"), bench.get("change_commit")) != (commits["parent"], commits["change"]):
            raise SystemExit(f"bench_pairs: {args.out} compares other revisions")

    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    base = tempfile.mkdtemp(prefix="pairs-", dir=os.path.join(ROOT, ".perfbench_run"))
    try:
        for side in SIDES:
            export(commits[side], os.path.join(base, side))
        with open(os.path.join(base, "change", "BENCHMARK.json"), encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
        runs = {side: [] for side in SIDES}
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                run = run_side(os.path.join(base, side), args.workload, args.seed, args.seconds)
                runs[side].append(run)
                print(f"pair {k + 1}/{args.pairs} {side}: pipeline_s="
                      f"{run['result']['metrics']['pipeline_s']['value']:.4f} "
                      f"minor_faults={run['minor_faults']}", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    topic = os.path.basename(args.out).removeprefix("BENCH_").removesuffix(".json")
    bench.update(
        topic=topic,
        change=git("log", "-1", "--format=%s", commits["change"]),
        parent_commit=commits["parent"],
        change_commit=commits["change"],
        measured_src_tree=git("rev-parse", f"{commits['change']}:src"),
        machine=runs["change"][0]["machine"],
    )
    end_to_end = bench.setdefault("end_to_end", {})
    end_to_end["command"] = ("python3 tools/bench_pairs.py --parent <parent> --change <change> "
                             "--workload <name> --pairs <n> --seed <seed> --seconds <t>")
    section = summarize(runs, bounds, args.seed)
    end_to_end[args.workload] = {"seconds": args.seconds, **section}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
