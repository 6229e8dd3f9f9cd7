"""Benchmark for nlhj: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload comparison-1d --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``.  A run
repeats passes of the workload's operations (the same inputs each pass)
until ``--seconds`` is spent, with at least three passes.  End-to-end times
sum the fastest repeat of each piece of a pass (see :func:`fastest`);
per-layer values are medians over passes.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Full results, and for traced runs the per-layer table and the kept spans,
are written to ``perfbench/results/``.

``--write-reference`` runs one pass of each config workload at the
reference seed and stores its outputs in ``perfbench/reference.json``.
"""

import os

# Pin the numeric libraries' thread pools before numpy is imported.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_PASSES = 3
END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def import_nlhj():
    """Import nlhj from this checkout's ``src/``; exit 1 if it is missing."""
    pkg = ROOT / "src" / "nlhj"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"nlhj sources not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import nlhj
    if Path(nlhj.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported nlhj from {nlhj.__file__}, not {pkg}")


def environment() -> dict:
    return {
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _artifact_bytes(outdir: Path) -> int:
    """Bytes of the tables and snapshots a run wrote.  manifest.json is left
    out: it records the wall time, so its length varies from run to run."""
    return sum(f.stat().st_size for f in outdir.rglob("*")
               if f.is_file() and f.name != "manifest.json")


def run_pass(ops, probe, reference, tracer=None):
    """Run every operation once; time it, check it, clean its outputs.

    Returns the pass summary and, per operation, its timeline: the time to
    the first step, the intervals between steps and the time after the last.
    """
    from workloads import reference_problems

    p = {"wall": 0.0, "setup": 0.0, "steps": 0, "attempted": 0, "failed": 0,
         "problems": []}
    timelines = []
    t_pass = time.perf_counter()
    for op in ops:
        probe.reset()
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception:  # a raising operation is a failed operation
            out, error = None, traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        stamps = np.array(probe.stamps)
        if len(stamps):
            timelines.append((stamps[0] - t0, np.diff(stamps), t1 - stamps[-1]))
        else:
            timelines.append((t1 - t0, np.empty(0), 0.0))
        p["wall"] += t1 - t0
        p["setup"] += timelines[-1][0]
        p["steps"] += len(stamps)
        p["attempted"] += 1
        if error is None:
            problems, observed = op.check(out)
            problems += reference_problems(reference, observed)
        else:
            problems = [error]
        if problems:
            p["failed"] += 1
            p["problems"].append(f"{op.label}: " + "; ".join(problems))
        if op.outdir is not None and op.outdir.exists():
            if tracer is not None:
                tracer.counters["config.artifact_bytes"] += _artifact_bytes(op.outdir)
            shutil.rmtree(op.outdir)
    if tracer is not None:
        p["layers"] = tracer.metrics()
    p["elapsed"] = time.perf_counter() - t_pass
    return p, timelines


def fastest(timelines_by_pass) -> tuple:
    """Wall and set-up time of one pass, each piece taken from its fastest
    repeat.

    Passes repeat identical work, so the k-th interval between steps of an
    operation is the same computation in every pass.  Other tenants of a
    shared machine slow it down for seconds at a time; the minimum over
    passes of every piece removes those slow-downs where a median of whole
    passes cannot.  An operation whose step count differs between passes
    contributes its fastest whole repeat instead.
    """
    wall = setup = 0.0
    for pieces in zip(*timelines_by_pass):   # one operation, every pass
        first = min(s for s, _, _ in pieces)
        if len({len(iv) for _, iv, _ in pieces}) == 1:
            steps = np.min([iv for _, iv, _ in pieces], axis=0).sum()
            wall += first + steps + min(t for _, _, t in pieces)
        else:
            wall += min(s + iv.sum() + t for s, iv, t in pieces)
        setup += first
    return float(wall), float(setup)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    from workloads import REFERENCE_SEED, WORKLOADS, load_reference

    reference = load_reference().get(workload) \
        if seed == REFERENCE_SEED else None
    probe = tracing.StepProbe()
    probe.install()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.calibrate()
        tracer.install()
    passes, timelines = [], []
    RESULTS.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as work:
            ops = WORKLOADS[workload](seed, Path(work))
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or (
                    time.perf_counter() - start
                    + statistics.median(p["elapsed"] for p in passes) <= seconds):
                if tracer is not None:
                    tracer.reset()
                p, tl = run_pass(ops, probe, reference, tracer)
                passes.append(p)
                timelines.append(tl)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "passes": passes, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "reference_checked": bool(reference)}
    if trace:
        units = {m: unit for m, (unit, _) in tracing.PER_LAYER.items()}
        result["metrics"] = {
            m: {"value": statistics.median(p["layers"][m] for p in passes),
                "unit": unit} for m, unit in units.items()}
        result["absent"] = sorted(tracer.absent)
        result["span_cost_s"] = tracer.span_cost
        result["spans"] = tracer.spans()
    else:
        wall, setup = fastest(timelines)
        steps = statistics.median(p["steps"] for p in passes)
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "steps_per_s": steps / (wall - setup) if wall > setup else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {m: {"value": values[m], "unit": unit}
                             for m, unit in END_TO_END.items()}
    return result


def write_results(result: dict) -> Path:
    stem = f"{result['workload']}-seed{result['seed']}"
    if result["trace"]:
        spans = result.pop("spans")
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
        with open(RESULTS / f"{stem}-layers.tsv", "w") as fh:
            fh.write("metric\tunit\tvalue\tstatus\n")
            for m, v in result["metrics"].items():
                layer = m.rsplit(".", 1)[0]
                absent = m in result["absent"] or layer in result["absent"]
                fh.write(f"{m}\t{v['unit']}\t{v['value']!r}\t"
                         f"{'absent' if absent else 'present'}\n")
    path = RESULTS / f"{stem}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


def write_reference():
    from workloads import (REFERENCE_FILE, REFERENCE_SEED, WORKLOADS,
                           load_reference)

    stored = load_reference()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as work:
        for name in ("bellman-2d", "large-time-1d"):
            (op,) = WORKLOADS[name](REFERENCE_SEED, Path(work))
            problems, observed = op.check(op.run())
            if problems:
                raise SystemExit(f"{name}: not storing a failing output: "
                                 + "; ".join(problems))
            stored[name] = observed
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("comparison-1d", "bellman-2d",
                                           "large-time-1d"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    import_nlhj()
    sys.path.insert(0, str(HERE))
    if args.write_reference:
        write_reference()
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_results(result)
    env = " ".join(f"{k}={v}" for k, v in result["environment"].items())
    print(f"environment: {env}")
    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_frac {result['failed_frac']:.6g}); results in {path}")
    for p in result["passes"]:
        for line in p["problems"]:
            print(f"  FAILED {line.splitlines()[-1]}")
    for m, v in result["metrics"].items():
        print(f"  {m:50s} {v['value']!r:>24} {v['unit']}")
    if args.trace and result["absent"]:
        print(f"  absent layers: {', '.join(result['absent'])}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
