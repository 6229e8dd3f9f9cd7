"""Self-check of the traced benchmark runs.

    python3 perfbench/selfcheck.py [--seed 0] [--seconds 1]

Run from the repository root.  Every workload is run traced twice, each time
in a fresh process with the same seed, and the script checks that

* both runs, and every pass within a run, give identical counts: calls,
  steps, madds, nodes, retries and artifact bytes;
* the counts match the profile in ROADMAP.md: 17,100 steps per state and
  about 11.5 ``CoefficientField`` calls per step on comparison-1d, and a
  sweep share of at least 70% of the run on bellman-2d;
* no layer is reported absent, and ``BENCHMARK.json`` lists exactly the
  metrics and units the benchmark prints.

It prints every mismatch and exits 1 if there is one.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("comparison-1d", "bellman-2d", "large-time-1d")
STEPS_PER_STATE = 17_100        # comparison-1d, 20 pairs per spec
COEFF_CALLS_PER_STEP = (11.0, 12.0)
MIN_SWEEP_SHARE = 0.70          # bellman-2d


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = HERE / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def count_metrics(layers: dict, units: dict) -> dict:
    return {m: v for m, v in layers.items() if units[m] in ("count", "bytes")}


def check_benchmark_json(problems: list):
    sys.path.insert(0, str(HERE))
    from run import END_TO_END
    from tracing import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {m: unit for m, (unit, _) in PER_LAYER.items()}
    if listed != printed:
        problems.append(f"BENCHMARK.json per_layer differs from the benchmark: "
                        f"{sorted(set(listed.items()) ^ set(printed.items()))}")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if listed != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end differs from the benchmark: "
                        f"{sorted(set(listed.items()) ^ set(END_TO_END.items()))}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)

    problems = []
    check_benchmark_json(problems)
    for workload in WORKLOADS:
        runs = [traced_run(workload, args.seed, args.seconds) for _ in range(2)]
        units = {m: v["unit"] for m, v in runs[0]["metrics"].items()}
        counts = []
        for i, run in enumerate(runs):
            if run["failed"]:
                problems.append(f"{workload} run {i}: {run['failed']} failed "
                                "operations")
            if run["absent"]:
                problems.append(f"{workload} run {i}: absent {run['absent']}")
            per_pass = [count_metrics(p["layers"], units) for p in run["passes"]]
            if any(c != per_pass[0] for c in per_pass):
                problems.append(f"{workload} run {i}: counts differ between "
                                "passes")
            counts.append(per_pass[0])
        diff = {m: (counts[0][m], counts[1][m]) for m in counts[0]
                if counts[0][m] != counts[1][m]}
        if diff:
            problems.append(f"{workload}: counts differ between runs: {diff}")

        layers = runs[0]["metrics"]
        steps = layers["solver.step.calls"]["value"]
        if workload == "comparison-1d":
            per_state = steps / 2
            per_step = layers["hamiltonians.CoefficientField.calls"]["value"] / steps
            print(f"{workload}: {per_state:.0f} steps per state, "
                  f"{per_step:.2f} CoefficientField calls per step")
            if per_state != STEPS_PER_STATE:
                problems.append(f"{workload}: {per_state} steps per state, "
                                f"ROADMAP says {STEPS_PER_STATE}")
            lo, hi = COEFF_CALLS_PER_STEP
            if not lo <= per_step <= hi:
                problems.append(f"{workload}: {per_step:.2f} CoefficientField "
                                f"calls per step, ROADMAP says about 11.5")
        if workload == "bellman-2d":
            walls = sorted(p["wall"] for p in runs[0]["passes"])
            share = layers["operators.SweepPlan.apply.self_s"]["value"] \
                / walls[len(walls) // 2]
            print(f"{workload}: sweep share {share:.1%} of the run")
            if share < MIN_SWEEP_SHARE:
                problems.append(f"{workload}: sweep share {share:.1%}, "
                                f"ROADMAP profile says at least "
                                f"{MIN_SWEEP_SHARE:.0%}")
        print(f"{workload}: counts identical across runs and passes: "
              f"{not diff}")

    for line in problems:
        print(f"MISMATCH {line}")
    print("self-check passed" if not problems else "self-check FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
