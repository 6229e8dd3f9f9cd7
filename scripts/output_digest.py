"""Digest every output file of a fixed set of configs, to show that a change
keeps the program's outputs byte for byte.

    python3 scripts/output_digest.py

runs each config of :data:`CASES` (the shipped configs plus variants that
reach every experiment and both families) through ``config.execute`` in a
temporary directory, and prints one ``sha256  case/file`` line per output
file, sorted.  Manifests are digested without the keys that differ between
two runs of the same code (``wall_time_s``, ``phase_s``) and without the
config text (``config``), so that a config edit that changes no output
digests the same.  The package is imported from this checkout's ``src``.
Compare the output of two checkouts with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nlhj import config  # noqa: E402

# manifest keys that differ between runs or name the config text
VOLATILE = ("wall_time_s", "phase_s", "config")

COERCIVE_1D = {
    "domain": {"dimension": "1", "lower": "-1", "upper": "1"},
    "kernel": {"type": "fractional_laplacian", "alpha": "0.5"},
    "hamiltonian": {"family": "coercive", "m": "1", "a1": "1",
                    "lam": "0.5", "f": "0.2*cos(3*x)"},
    "data": {"u0": "1 - x^2", "phi": "0"},
    "scheme": {"h": "0.03125", "theta": "0.9", "T": "0.5"},
    "experiment": {"name": "run"},
}

BELLMAN_1D = dict(COERCIVE_1D, hamiltonian={
    "family": "bellman", "controls": "2", "lam_1": "0.5", "b_1": "-x",
    "f_1": "0.1*sin(2*x)", "lam_2": "0.3", "b_2": "0.5*x", "f_2": "0"})

BELLMAN_2D = {
    "domain": {"dimension": "2", "lower": "-1 -1", "upper": "1 1"},
    "kernel": {"type": "fractional_laplacian", "alpha": "0.5"},
    "hamiltonian": {"family": "bellman", "controls": "2", "lam_1": "1",
                    "b_1": "-x; -y", "f_1": "0", "lam_2": "0.5",
                    "b_2": "0.5*x; 0.5*y", "f_2": "0"},
    "data": {"u0": "1 + 0.3*(1 - x^2)*(1 - y^2)*cos(x + 2*y)", "phi": "1"},
    "scheme": {"h": "0.0625", "theta": "0.9", "T": "1", "r_max": "4",
               "snapshot_dt": "0.25"},
    "experiment": {"name": "run"},
}

BOUNDARY = dict(BELLMAN_1D, hamiltonian={
    "family": "bellman", "controls": "1", "lam_1": "1", "b_1": "-x",
    "f_1": "0", "lipschitz": "1.0"}, data={"u0": "10", "phi": "10"},
    scheme={"h": "0.03125", "T": "1", "snapshot_dt": "0.5"},
    experiment={"name": "boundary_behavior"})


def _with(base: dict, **sections) -> dict:
    """``base`` with the keys of each given section replaced or added; a
    key mapped to None is dropped."""
    out = {name: dict(keys) for name, keys in base.items()}
    for name, keys in sections.items():
        out.setdefault(name, {}).update(keys)
        out[name] = {k: v for k, v in out[name].items() if v is not None}
    return out


# case name -> a shipped config's file name, or the sections of a config
CASES = {
    "comparison": "comparison.cfg",
    "rate_nonlocal": "rate_nonlocal.cfg",
    "boundary_loss": "boundary_loss.cfg",
    "run_1d": _with(COERCIVE_1D, scheme={"snapshot_dt": "0.25"}),
    "run_1d_steady": _with(COERCIVE_1D, scheme={"T": None,
                                                "steady": "true"}),
    "run_2d": BELLMAN_2D,
    "run_2d_steady": _with(BELLMAN_2D, scheme={"T": None, "snapshot_dt": None,
                                               "steady": "true"}),
    # every term of the coercive flux in 2-D: m != 1, a2 |p|^l and b.p
    "run_2d_coercive": _with(dict(BELLMAN_2D, hamiltonian={
        "family": "coercive", "m": "2", "a1": "1 + 0.2*x^2",
        "a2": "0.5 + 0.1*y", "l": "1.5", "b": "0.3*x; -0.2*y", "lam": "0.5",
        "f": "0.2*cos(x + 2*y)"}), scheme={"h": "0.125", "T": "0.5"}),
    # three controls, one drift changing sign with t: the upwind mask moves
    "run_2d_three_controls": _with(BELLMAN_2D, hamiltonian={
        "controls": "3", "lam_3": "0.3 + 0.2*x^2", "b_3": "cos(4*t)*y; -0.3",
        "f_3": "0.1*sin(x - y)"}),
    "run_bellman_moving_datum": _with(
        BELLMAN_1D, data={"u0": "0.3*sin(2*x)", "phi": "0.3*sin(2*x)*exp(-t)"},
        scheme={"snapshot_dt": "0.25"}),
    "comparison_pair_coercive": _with(
        COERCIVE_1D, experiment={"name": "comparison", "u0_b": "2 - x^2",
                                 "phi_b": "0.5"}),
    # a field that reads t: the pair's one bundle moves once per pair step
    "comparison_pair_moving": _with(
        COERCIVE_1D, hamiltonian={"f": "0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)"},
        experiment={"name": "comparison", "u0_b": "2 - x^2", "phi_b": "0.5"}),
    "comparison_pair_bellman": _with(
        BELLMAN_1D, experiment={"name": "comparison", "u0_b": "2 - x^2",
                                "phi_b": "0.5"}),
    "comparison_pair_2d": _with(
        BELLMAN_2D, scheme={"h": "0.125", "T": "0.5", "snapshot_dt": None},
        experiment={"name": "comparison",
                    "u0_b": "1.5 + 0.3*(1 - x^2)*(1 - y^2)*cos(x + 2*y)",
                    "phi_b": "1.5"}),
    # m = 2: the viscosity bound reads the gradients
    "comparison_pair_m2": _with(
        COERCIVE_1D, hamiltonian={"m": "2"},
        experiment={"name": "comparison", "u0_b": "2 - x^2",
                    "phi_b": "0.5"}),
    # a datum ramping up fast: the trace gradients outgrow the viscosity
    # the pair starts with
    "comparison_pair_ramp": _with(
        COERCIVE_1D, hamiltonian={"m": "2", "lam": "1", "f": "0"},
        data={"u0": "0", "phi": "20*t"},
        experiment={"name": "comparison", "u0_b": "0.1",
                    "phi_b": "20*t + 0.1"}),
    # a drift that reads t and changes sign: the pair's bundle moves
    "comparison_pair_moving_drift": _with(
        BELLMAN_1D, hamiltonian={"b_1": "cos(4*t)", "f_1": "0.2*x",
                                 "b_2": "0.5"},
        experiment={"name": "comparison", "u0_b": "2 - x^2",
                    "phi_b": "0.5"}),
    "comparison_seeds_coercive": _with(
        COERCIVE_1D, experiment={"name": "comparison", "seeds": "3"}),
    "comparison_seeds_bellman": _with(
        BELLMAN_1D, experiment={"name": "comparison", "seeds": "3"}),
    # pairs after the first on one spec: a bundle that reads t, at t = 0
    # again for each pair
    "comparison_seeds_moving": _with(
        COERCIVE_1D, hamiltonian={"f": "0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)"},
        experiment={"name": "comparison", "seeds": "3"}),
    "comparison_seeds_moving_drift": _with(
        BELLMAN_1D, hamiltonian={"b_1": "cos(4*t)", "f_1": "0.2*x",
                                 "b_2": "0.5"},
        experiment={"name": "comparison", "seeds": "3"}),
    # an initial viscosity that reads each pair's own gradients
    "comparison_seeds_m2": _with(
        COERCIVE_1D, hamiltonian={"m": "2"},
        experiment={"name": "comparison", "seeds": "3"}),
    "boundary_behavior": BOUNDARY,
    "boundary_refinement": _with(
        BOUNDARY, experiment={"h_list": "0.03125 0.015625"}),
    "coercive_loss": _with(
        COERCIVE_1D, hamiltonian={"m": "2", "f": "0"},
        data={"u0": "1", "phi": "1"}, scheme={"h": "0.0625", "T": None},
        experiment={"name": "coercive_loss"}),
    "large_time": _with(
        COERCIVE_1D, hamiltonian={"f": "0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)"},
        data={"u0": "0.5", "phi": "0.5*exp(-t)", "phi_limit": "0"},
        scheme={"T": None},
        experiment={"name": "large_time", "t_ladder": "1 2 4",
                    "f_limit": "0.2*cos(3*x)"}),
    "rate": _with(
        BELLMAN_1D, data={"phi": "0.5*exp(-t)", "u0": "0.5",
                          "phi_limit": "0"},
        hamiltonian={"lam_1": "0", "lam_2": "0"},
        scheme={"T": "2", "snapshot_dt": "0.1"},
        experiment={"name": "rate"}),
}


def _render(sections: dict, outdir: str) -> str:
    lines = []
    for name, keys in dict(sections, output={"directory": outdir}).items():
        lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()] + [""]
    return "\n".join(lines)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in VOLATILE:
            manifest.pop(key, None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_cases(tmp: Path) -> dict:
    """Run every case in its own directory under ``tmp``; returns case ->
    (exit status, output directory)."""
    runs = {}
    for case, source in CASES.items():
        work = tmp / case
        work.mkdir()
        path = work / "run.cfg"
        if isinstance(source, str):
            text = (ROOT / "configs" / source).read_text()
        else:
            text = _render(source, "out")
        path.write_text(text)
        cfg = config.parse_config(path)
        runs[case] = config.execute(cfg), cfg.outdir
    return runs


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="nlhj-digest-") as tmp:
        lines = []
        for case, (status, outdir) in run_cases(Path(tmp)).items():
            lines.append(f"exit {status}  {case}")
            lines += [f"{_digest(f)}  {case}/{f.name}"
                      for f in sorted(outdir.iterdir()) if f.is_file()]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
