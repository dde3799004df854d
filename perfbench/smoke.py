"""Smoke test of the benchmark itself; the repository's test suite does not
run it.

    python3 perfbench/smoke.py

One small case per workload, untraced and traced.  Checks that the metric
names and units printed are exactly those of BENCHMARK.json, that a case
with a deliberately wrong expected answer is counted as failed (and not
as a success), that the command prints its result as the last line, and
that it refuses to run without the eqsing sources.  Takes about a minute.
"""
import copy
import json
import shutil
import subprocess
import sys

import run

SMALL = {"weyl": "A2", "certify": "M4", "mu": "X9", "cli": "verdict-B3"}


def small_case(workload):
    return copy.deepcopy(
        next(c for c in run.WORKLOADS[workload] if c["name"] == SMALL[workload]))


def spoiled(case):
    """The same case with a deliberately wrong expected answer."""
    case = copy.deepcopy(case)
    case["name"] += "-wrong"
    expect = case["expect"]
    if case["run"] == "analysis":
        expect["verdicts"] = ["unknown"]
    elif case["run"] == "mu":
        expect["weights"] = ["1/3", "1/3"]  # quasihomogeneous mu 4, not 9
    else:
        expect["exit"] = 1 - expect["exit"]
    return case


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "workload names differ from BENCHMARK.json")
    for workload in run.WORKLOADS:
        case = small_case(workload)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            out = run.run_workload(workload, seed=1, seconds=0, trace=trace, cases=[case])
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            check(got == wanted, f"{workload} trace={trace}: metrics {sorted(got)}")
            check(out["correct"] and out["failed"] == 0,
                  f"{workload} trace={trace}: the small case failed")
            check(all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()),
                  f"{workload} trace={trace}: a metric is not a number")
        wrong = spoiled(case)
        out = run.run_workload(workload, seed=1, seconds=0, trace=0, cases=[case, wrong])
        check(out["failed"] == wrong["visits"] and not out["correct"],
              f"{workload}: a wrong answer was not counted as failed")
        check(out["metrics"]["wall_s"]["value"] >= wrong["budget_s"],
              f"{workload}: a wrong answer was timed as a success")
        check(out["metrics"]["ok_frac"]["value"] == 0.5,
              f"{workload}: ok_frac {out['metrics']['ok_frac']['value']} != 0.5")
        print(f"smoke: {workload} ok")

    cmd = [sys.executable, "perfbench/run.py", "--workload", "mu", "--seed", "7",
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(last)}")

    bare = run.ROOT / ".perfbench-tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py printed a result without the eqsing sources")
    print("smoke: command line ok")


if __name__ == "__main__":
    main()
