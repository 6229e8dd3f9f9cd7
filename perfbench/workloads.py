"""The benchmark's workloads: inputs made from a seed, the operations of one
pass, and the check of each operation's output.

Every workload function takes ``(seed, workdir)`` and returns the list of
:class:`Operation` that one pass runs.  Generated configs and their output
directories live in ``workdir``; nothing is written elsewhere.

A check returns ``(problems, observed)``: the problems found (empty when the
output is correct) and the values compared against ``reference.json`` when
the run uses :data:`REFERENCE_SEED`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nlhj import config, harness
from nlhj.geometry import Domain
from nlhj.hamiltonians import BellmanSpec, CoerciveSpec, ControlLaw
from nlhj.kernels import fractional_laplacian_kernel
from nlhj.solver import SchemeConfig

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# Above the rounding drift of a reassociated sweep (~1e-16 per step), below
# the discretization error a wrong stencil causes (~1e-3 at these h).
REFERENCE_ATOL = 1e-9
COMPARISON_TOL = 1e-12   # acceptance criterion 3's gate
COMPARISON_PAIRS = 20


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    outdir: Path | None = None


def _num(v) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# comparison-1d: acceptance criterion 3 through harness.comparison_experiment
# ---------------------------------------------------------------------------

def comparison_1d(seed: int, workdir: Path) -> list:
    dom = Domain((-1.0,), (1.0,))
    kern = fractional_laplacian_kernel(0.5, 1)
    scheme = SchemeConfig(h=2.0 ** -7, theta=0.9)
    specs = {
        "coercive": CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)"),
        "bellman": BellmanSpec([ControlLaw(lam=0.5, b="-x", f="0.1*sin(2*x)"),
                                ControlLaw(lam=0.3, b="0.5*x", f=0.0)]),
    }
    pairs = [harness.random_ordered_pair(seed + i, dom)
             for i in range(COMPARISON_PAIRS)]
    ops = []
    for family, spec in specs.items():
        for i, (u0, v0, phi_u, phi_v) in enumerate(pairs):
            def run(spec=spec, data=((u0, v0), (phi_u, phi_v))):
                return harness.comparison_experiment(
                    spec, dom, kern, data[0], data[1], T=1.0, cfg=scheme,
                    r_max=4.0)
            ops.append(Operation(f"{family}-{seed + i}", run, _check_pair))
    return ops


def _check_pair(res):
    worst = res.metrics["max_violation"]
    if res.passed and worst <= COMPARISON_TOL:
        return [], None
    return [f"ordering violation {worst:.3e} above {COMPARISON_TOL}"], None


# ---------------------------------------------------------------------------
# config.execute workloads
# ---------------------------------------------------------------------------

BELLMAN_2D = """\
# bellman-2d benchmark input (seed {seed})
[domain]
dimension = 2
lower = -1 -1
upper = 1 1

[kernel]
type = fractional_laplacian
alpha = 0.5

[hamiltonian]
family = bellman
controls = 2
lam_1 = 1
b_1 = -x; -y
f_1 = 0
lam_2 = 0.5
b_2 = 0.5*x; 0.5*y
f_2 = 0

[data]
u0 = {u0}
phi = 1

[scheme]
h = 0.0625
theta = 0.9
T = 1
r_max = 4
snapshot_dt = 0.25

[experiment]
name = run

[output]
directory = out-bellman-2d
"""

LARGE_TIME_1D = """\
# large-time-1d benchmark input (seed {seed})
[domain]
dimension = 1
lower = -1
upper = 1

[kernel]
type = fractional_laplacian
alpha = 0.5

[hamiltonian]
family = coercive
m = 1
a1 = 1
lam = 0.5
f = 0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)

[data]
u0 = {u0}
phi = 0.5*exp(-t)
phi_limit = 0

[scheme]
h = 0.00390625
theta = 0.9
T = 8
r_max = 4

[experiment]
name = large_time
t_ladder = 2 4 8
f_limit = 0.2*cos(3*x)

[output]
directory = out-large-time-1d
"""


def _config_operation(name: str, text: str, workdir: Path, check) -> list:
    path = workdir / f"{name}.cfg"
    path.write_text(text)

    def run():
        cfg = config.parse_config(path)
        return config.execute(cfg), cfg.outdir

    return [Operation(name, run, check, outdir=workdir / f"out-{name}")]


def _verdict(status, outdir: Path) -> list:
    """Exit status, certificates and the experiment's verdict."""
    problems = [] if status == 0 else [f"exit status {status}"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    certs = manifest.get("certificates", {})
    problems += [f"certificate {k} failed" for k, c in certs.items()
                 if not c["passed"]]
    if not certs:
        problems.append("no certificates in manifest")
    if manifest.get("passed") is not True:
        problems.append(f"experiment verdict {manifest.get('passed')!r}")
    return problems


def bellman_2d(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    amp = 0.2 + 0.2 * rng.random()
    kx, ky = 1.0 + rng.random(2)
    shift = 2.0 * np.pi * rng.random()
    u0 = (f"1 + {_num(amp)}*(1 - x^2)*(1 - y^2)"
          f"*cos({_num(kx)}*x + {_num(ky)}*y + {_num(shift)})")
    # f = 0, lam > 0: the solution stays between min(u0, phi, 0) = 0 and
    # max(u0, phi, 0) = 1 + amp
    lo, hi = 0.0, 1.0 + amp

    def check(out):
        status, outdir = out
        problems = _verdict(status, outdir)
        snaps = sorted(outdir.glob("field_t*.tsv"))
        if not snaps:
            return problems + ["no field snapshot written"], None
        table = np.loadtxt(snaps[-1], comments="#", ndmin=2)
        values = table[:, -1]
        tol = 1e-12 * (1.0 + hi)
        if not np.all(np.isfinite(values)):
            problems.append("final state is not finite")
        elif values.min() < lo - tol or values.max() > hi + tol:
            problems.append(f"final state [{values.min()}, {values.max()}] "
                            f"outside the maximum-principle bound [{lo}, {hi}]")
        core = np.all(np.abs(table[:, :-1]) <= 1.0 + 1e-9, axis=1)
        return problems, {"final_core": values[core].tolist()}

    text = BELLMAN_2D.format(seed=seed, u0=u0)
    return _config_operation("bellman-2d", text, workdir, check)


def large_time_1d(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    amp = 0.2 + 0.2 * rng.random()
    k = 1.0 + 2.0 * rng.random()
    shift = 2.0 * np.pi * rng.random()
    u0 = f"0.5 + {_num(amp)}*(1 - x^2)*cos({_num(k)}*x + {_num(shift)})"
    # |f| <= 0.7 and lam = 0.5, phi in [0, 0.5], u0 in [0.5 - amp, 0.5 + amp]:
    # both u(T) and the steady state lie in [-1.4, 1.4]
    span = 2.0 * max(1.4, 0.5 + amp)

    def check(out):
        status, outdir = out
        problems = _verdict(status, outdir)
        # the experiment writes deviations |u(T) - u_inf|, not the state
        rows = np.loadtxt(outdir / "report.tsv", skiprows=1, ndmin=2)
        devs = rows[:, 1]
        if not np.all(np.isfinite(devs)):
            problems.append("deviations are not finite")
        elif devs.min() < 0.0 or devs.max() > span:
            problems.append(f"deviation outside [0, {span}] allowed by the "
                            f"maximum principle: {devs.tolist()}")
        return problems, {"deviations": devs.tolist()}

    text = LARGE_TIME_1D.format(seed=seed, u0=u0)
    return _config_operation("large-time-1d", text, workdir, check)


WORKLOADS = {
    "comparison-1d": comparison_1d,
    "bellman-2d": bellman_2d,
    "large-time-1d": large_time_1d,
}


# ---------------------------------------------------------------------------
# stored reference for the default seed
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def reference_problems(expected: dict | None, observed: dict | None) -> list:
    """Differences between observed values and the stored reference."""
    if not expected:
        return []
    if observed is None:
        return ["nothing observed to compare with the reference"]
    problems = []
    for key, ref in expected.items():
        got = np.asarray(observed.get(key, []), dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            problems.append(f"reference {key}: shape {got.shape} != {ref.shape}")
            continue
        err = float(np.abs(got - ref).max(initial=0.0))
        if not err <= REFERENCE_ATOL:
            problems.append(f"reference {key}: max |difference| {err:.3e} "
                            f"above {REFERENCE_ATOL}")
    return problems
