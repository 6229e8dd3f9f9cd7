"""Run configuration: INI-style sections parsed into solver objects.

Sections: [domain], [kernel], [hamiltonian], [data], [scheme], [experiment],
[output].  Coefficient values are numbers or expressions in the grammar of
``expressions`` (variables x, y, t).  Parsing is not fail-fast: every invalid
field is collected and reported in one ValidationError.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import check_sigma
from .errors import (BlowUp, CflViolation, NonConvergence, ParseError,
                     PreconditionError, ValidationError)
from .expressions import Expression
from .geometry import Domain
from .hamiltonians import (BellmanSpec, CoefficientField, ControlLaw,
                           CoerciveSpec, check_compatibility, check_H1,
                           check_H2, check_H2prime, check_superfractional,
                           check_UE)
from .kernels import (Kernel, custom_radial_kernel,
                      fractional_laplacian_kernel, indicator_kernel)
from .operators import envelope, row_prefixes, row_template, save_field
from .solver import (SchemeConfig, cfl_denominator, eval_initial, init_state,
                     run_to_steady, run_to_time)
from . import harness

EXPERIMENTS = ("run", "comparison", "boundary_behavior", "coercive_loss",
               "rate", "large_time")


@dataclass
class RunConfig:
    domain: Domain
    kernel: Kernel
    spec: object
    u0: object
    phi: CoefficientField
    phi_limit: object
    scheme: SchemeConfig
    steady: bool
    r_max: float
    experiment: str
    params: dict
    outdir: Path
    source: str = ""


def _finite(text, section, key, errors):
    """``text`` as a finite float, or None with the error recorded; raises
    ValueError when it is not a number at all."""
    v = float(text)
    if np.isfinite(v):
        return v
    errors.append(f"[{section}] {key}: not a finite number: {text!r}")
    return None


def _number_or_expression(text, section, key, dim, errors):
    """A finite number, or an expression in the variables of ``dim``; None
    with the error recorded otherwise."""
    try:
        return _finite(text, section, key, errors)
    except ValueError:
        pass
    try:
        expr = Expression(text)
    except ParseError as e:
        errors.append(f"[{section}] {key}: {e}")
        return None
    if dim == 1 and "y" in expr.variables:
        errors.append(f"[{section}] {key}: variable 'y' used in the 1-D "
                      f"expression {text!r}")
        return None
    return expr


def _parse_expr_field(cp, section, key, dim, errors, default=None,
                      required=False):
    if not cp.has_option(section, key):
        if required:
            errors.append(f"[{section}] missing required key '{key}'")
        return default
    v = _number_or_expression(cp.get(section, key).strip(), section, key, dim,
                              errors)
    return default if v is None else v


def _parse_float(cp, section, key, errors, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            errors.append(f"[{section}] missing required key '{key}'")
        return default
    try:
        v = _finite(cp.get(section, key).strip(), section, key, errors)
    except ValueError:
        errors.append(f"[{section}] {key}: not a number: {cp.get(section, key)!r}")
        return default
    return default if v is None else v


def _parse_count(cp, section, key, errors, default: int) -> int:
    """A whole number of at least 1, or ``default`` when the key is absent
    or its value is refused (with the error recorded)."""
    v = _parse_float(cp, section, key, errors, float(default))
    if v < 1 or v != int(v):
        errors.append(f"[{section}] {key}: not a whole number of at least 1: "
                      f"{cp.get(section, key)!r}")
        return default
    return int(v)


def _parse_drift(cp, section, key, dim, errors):
    if not cp.has_option(section, key):
        return None
    parts = [p.strip() for p in cp.get(section, key).split(";")]
    if len(parts) != dim:
        errors.append(f"[{section}] {key}: expected {dim} component(s) "
                      f"separated by ';', got {len(parts)}")
        return None
    out = [_number_or_expression(p, section, key, dim, errors) for p in parts]
    if any(v is None for v in out):
        return None
    return out if dim > 1 else out[0]


def parse_config(path) -> RunConfig:
    """Read and validate a run configuration; collects all errors."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text()
        cp.read_string(text, source=str(path))
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}")

    errors = []
    for sec in ("domain", "kernel", "hamiltonian", "data", "scheme",
                "experiment"):
        if not cp.has_section(sec):
            raise ParseError(f"{path}: missing [{sec}] section")

    # domain
    dim = _parse_count(cp, "domain", "dimension", errors, 1)
    dom = None
    try:
        lower, upper = (tuple(_finite(v, "domain", key, errors)
                              for v in cp.get("domain", key).split())
                        for key in ("lower", "upper"))
        if len(lower) != dim or len(upper) != dim:
            errors.append("[domain] lower/upper must match the dimension")
        elif None not in lower + upper:
            excl = _parse_float(cp, "domain", "corner_exclusion", errors, 0.0)
            dom = Domain(lower, upper, corner_exclusion=excl)
    except (configparser.NoOptionError, ValueError) as e:
        errors.append(f"[domain] {e}")

    # kernel
    alpha = _parse_float(cp, "kernel", "alpha", errors, required=True)
    ktype = cp.get("kernel", "type", fallback="fractional_laplacian").strip()
    kern = None
    if alpha is not None and not (0.0 < alpha < 2.0):
        errors.append(f"[kernel] alpha must lie in (0, 2), got {alpha}")
    elif alpha is not None:
        try:
            if ktype == "fractional_laplacian":
                kern = fractional_laplacian_kernel(alpha, dim)
            elif ktype == "indicator":
                rho = _parse_float(cp, "kernel", "rho", errors, required=True)
                if rho is not None:
                    kern = indicator_kernel(alpha, dim, rho)
            elif ktype == "custom_radial":
                prof = cp.get("kernel", "profile", fallback=None)
                if prof is None:
                    errors.append("[kernel] custom_radial needs a 'profile' file")
                else:
                    prof_path = (path.parent / prof) if not Path(prof).is_absolute() else Path(prof)
                    tab = np.loadtxt(prof_path, ndmin=2)
                    if tab.shape[0] < 2 or tab.shape[1] < 2:
                        errors.append(f"[kernel] profile {prof}: needs at "
                                      f"least 2 rows of 2 columns (r, K(r)), "
                                      f"got {tab.shape[0]} x {tab.shape[1]}")
                    else:
                        kern = custom_radial_kernel(alpha, dim, tab[:, 0],
                                                    tab[:, 1])
            else:
                errors.append(f"[kernel] unknown type {ktype!r}")
        except (OSError, ValueError) as e:
            errors.append(f"[kernel] {e}")

    # hamiltonian
    family = cp.get("hamiltonian", "family", fallback="coercive").strip()
    spec = None
    if family == "coercive":
        m = _parse_float(cp, "hamiltonian", "m", errors, required=True)
        l = _parse_float(cp, "hamiltonian", "l", errors, 0.0)
        a1 = _parse_expr_field(cp, "hamiltonian", "a1", dim, errors, 1.0)
        a2 = _parse_expr_field(cp, "hamiltonian", "a2", dim, errors, 0.0)
        lam = _parse_expr_field(cp, "hamiltonian", "lam", dim, errors, 0.0)
        fsrc = _parse_expr_field(cp, "hamiltonian", "f", dim, errors, 0.0)
        b = _parse_drift(cp, "hamiltonian", "b", dim, errors)
        if m is not None:
            try:
                spec = CoerciveSpec(m=m, l=l, a1=a1, a2=a2, lam=lam, f=fsrc,
                                    b=b, dim=dim)
            except ValueError as e:
                errors.append(f"[hamiltonian] {e}")
    elif family == "bellman":
        ncontrols = _parse_count(cp, "hamiltonian", "controls", errors, 1)
        controls = []
        for i in range(1, ncontrols + 1):
            lam = _parse_expr_field(cp, "hamiltonian", f"lam_{i}", dim, errors,
                                    0.0)
            fsrc = _parse_expr_field(cp, "hamiltonian", f"f_{i}", dim, errors,
                                     0.0)
            b = _parse_drift(cp, "hamiltonian", f"b_{i}", dim, errors)
            controls.append(ControlLaw(lam=lam, b=b, f=fsrc, dim=dim))
        lip = _parse_float(cp, "hamiltonian", "lipschitz", errors, None)
        try:
            spec = BellmanSpec(controls, lipschitz=lip, dim=dim)
        except ValueError as e:
            errors.append(f"[hamiltonian] {e}")
    else:
        errors.append(f"[hamiltonian] unknown family {family!r}")

    # data
    u0 = _parse_expr_field(cp, "data", "u0", dim, errors, required=True)
    phi_src = _parse_expr_field(cp, "data", "phi", dim, errors, required=True)
    phi_limit = _parse_expr_field(cp, "data", "phi_limit", dim, errors, None)
    phi = CoefficientField(phi_src, "phi") if phi_src is not None else None

    # scheme
    h = _parse_float(cp, "scheme", "h", errors, required=True)
    theta = _parse_float(cp, "scheme", "theta", errors, 0.9)
    dt = _parse_float(cp, "scheme", "dt", errors, None)
    T = _parse_float(cp, "scheme", "T", errors, None)
    try:
        steady = cp.getboolean("scheme", "steady", fallback=False)
    except ValueError:
        errors.append(f"[scheme] steady: not a boolean: "
                      f"{cp.get('scheme', 'steady')!r}")
        steady = False
    steady_tol = _parse_float(cp, "scheme", "steady_tol", errors, None)
    snapshot_dt = _parse_float(cp, "scheme", "snapshot_dt", errors, None)
    m_cap = _parse_float(cp, "scheme", "m_cap", errors, None)
    max_steps = _parse_count(cp, "scheme", "max_steps", errors, 2_000_000)
    r_max = _parse_float(cp, "scheme", "r_max", errors, None)
    if cp.has_option("scheme", "r_cut"):
        errors.append("[scheme] r_cut is not a setting: the near-field radius "
                      "follows from h and alpha")
    scheme = None
    if h is not None:
        try:
            scheme = SchemeConfig(h=h, theta=theta, dt=dt, T=T,
                                  steady_tol=steady_tol,
                                  snapshot_dt=snapshot_dt, m_cap=m_cap,
                                  max_steps=max_steps)
        except ValueError as e:
            errors.append(f"[scheme] {e}")
    if dom is not None and r_max is None:
        r_max = 4.0 * dom.diameter
    if h is not None and r_max is not None and r_max < 10 * h:
        errors.append(f"[scheme] r_max = {r_max} must be at least 10*h = {10 * h}")
    if dom is not None and h is not None:
        for s in dom.sides:
            if abs(round(s / h) * h - s) > 1e-9 * max(1.0, s):
                errors.append(f"[scheme] domain side {s} is not a multiple of h = {h}")

    # experiment
    exp = cp.get("experiment", "name", fallback="run").strip()
    if exp not in EXPERIMENTS:
        errors.append(f"[experiment] unknown name {exp!r} "
                      f"(choose from {', '.join(EXPERIMENTS)})")
    params = {}
    if cp.has_option("experiment", "seeds"):
        params["seeds"] = _parse_count(cp, "experiment", "seeds", errors, 20)
    for key in ("eps_rate", "eps_conv"):
        v = _parse_float(cp, "experiment", key, errors, None)
        if v is not None:
            params[key] = v
    for key in ("phi_scales", "t_ladder", "h_list"):
        if cp.has_option("experiment", key):
            try:
                params[key] = [_finite(v, "experiment", key, errors)
                               for v in cp.get("experiment", key).split()]
            except ValueError:
                errors.append(f"[experiment] {key}: expected numbers")
    for key in ("u0_b", "phi_b", "f_limit"):
        v = _parse_expr_field(cp, "experiment", key, dim, errors, None)
        if v is not None:
            params[key] = v
    if exp in ("run", "comparison", "boundary_behavior") and T is None and \
            not steady:
        errors.append("[scheme] a final time T (or steady = true) is required")

    # experiment-specific gates checkable without running
    if exp == "coercive_loss" and spec is not None and kern is not None:
        if spec.family != "coercive":
            errors.append("[experiment] coercive_loss requires the coercive family")
        elif spec.m <= kern.alpha:
            errors.append(
                f"[experiment] coercive_loss requires the superfractional "
                f"condition (A1): m = {spec.m} must exceed alpha = {kern.alpha}")
    if exp == "boundary_behavior" and spec is not None and spec.family != "bellman":
        errors.append("[experiment] boundary_behavior requires the bellman family")
    if exp in ("rate", "large_time") and phi_limit is None:
        errors.append("[data] phi_limit is required for rate/large_time experiments")

    outdir = Path(cp.get("output", "directory", fallback="out")) \
        if cp.has_section("output") else Path("out")
    if not outdir.is_absolute():
        outdir = path.parent / outdir

    if errors:
        raise ValidationError(errors)
    return RunConfig(domain=dom, kernel=kern, spec=spec, u0=u0, phi=phi,
                     phi_limit=phi_limit, scheme=scheme, steady=steady,
                     r_max=r_max, experiment=exp, params=params,
                     outdir=outdir, source=text)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _write_tsv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join([v if isinstance(v, str) else "%.17g" % v
                                 for v in row]) + "\n" for row in rows)


def _write_trace_gaps(path: Path, points: np.ndarray, series):
    """The trace gaps of each (t, gaps) in ``series`` as rows x.., t, gap,
    one per trace node in ``points``."""
    prefixes = row_prefixes(points)
    with open(path, "w") as fh:
        fh.write("\t".join(("x",) * points.shape[1] + ("t", "gap")) + "\n")
        for t, gaps in series:
            template = row_template(prefixes, "%.17g\t" % t)
            fh.write(template % tuple(np.asarray(gaps, dtype=float).tolist()))


def run_certificates(cfg: RunConfig) -> dict:
    """Certificates scheduled for the chosen experiment."""
    plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h, cfg.r_max)
    grid = plan.grid
    pts = grid.core_points
    certs = {}
    certs["H1"] = check_H1(cfg.spec, pts)
    # H0 fails on data that are not finite, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u0 = eval_initial(cfg.u0, pts)
        phi_trace = cfg.phi(grid.trace_points, 0.0)
    certs["H0"] = check_compatibility(grid, u0, phi_trace)
    certs["H2"] = check_H2(cfg.spec, plan)
    if cfg.experiment in ("rate", "large_time"):
        certs["H2prime"] = check_H2prime(cfg.spec, plan)
    if cfg.experiment == "boundary_behavior":
        certs["UE"] = check_UE(cfg.kernel)
        certs["Sigma"] = check_sigma(cfg.spec, cfg.domain,
                                     (0.0, cfg.scheme.T or 1.0))
        if cfg.spec.lipschitz is not None:
            certs["L"] = cfg.spec.check_lipschitz(cfg.domain)
    if cfg.experiment == "coercive_loss":
        certs["A1"] = check_superfractional(cfg.spec, cfg.kernel, pts)
    return certs


def execute(cfg: RunConfig) -> int:
    """Run certificates then the experiment; write artifacts; return the exit
    status (0 pass, 1 experiment failure, 2 precondition/certificate failure)."""
    t_wall = time.time()
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "numpy": np.__version__,
        "experiment": cfg.experiment,
        "config": cfg.source,
        "h": cfg.scheme.h,
        "r_max": cfg.r_max,
    }
    status = 0
    result = None
    try:
        # held until the run ends: the certificates and the experiment
        # share this discretization instead of building their own
        plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h,
                                  cfg.r_max)
        manifest["cfl"] = {"lambda": plan.qt.lam, "theta": cfg.scheme.theta,
                           "dt": cfg.scheme.dt}
        certs = run_certificates(cfg)
        manifest["certificates"] = {k: v.as_dict() for k, v in certs.items()}
        result = _dispatch(cfg, manifest)
        if result is not None:
            manifest["metrics"] = _plain(result.metrics)
            manifest["passed"] = bool(result.passed)
            if not result.passed:
                status = 1
            for name, (header, rows) in result.tables.items():
                _write_tsv(cfg.outdir / f"{name}.tsv", header, rows)
    except (PreconditionError, ValidationError) as e:
        manifest["error"] = f"{type(e).__name__}: {e}"
        status = 2
    except (BlowUp, CflViolation, NonConvergence) as e:
        manifest["error"] = f"{type(e).__name__}: {e}"
        status = 1
    manifest["exit_status"] = status
    manifest["wall_time_s"] = round(time.time() - t_wall, 3)
    with open(cfg.outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return status


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _dispatch(cfg: RunConfig, manifest: dict):
    dom, kern, spec, scheme = cfg.domain, cfg.kernel, cfg.spec, cfg.scheme
    if cfg.experiment == "run":
        plan = harness.discretize(dom, kern, scheme.h, cfg.r_max)
        grid = plan.grid
        st = init_state(plan, spec, cfg.phi, cfg.u0, scheme)
        if cfg.steady:
            st, rep = run_to_steady(st, scheme)
            rows = [(i, r) for i, r in enumerate(rep.residuals)]
            header = ("step", "residual")
        else:
            rep = run_to_time(st, scheme, scheme.T)
            rows = list(zip(rep.times, rep.sup_norms))
            header = ("t", "sup_norm")
        template = row_template(row_prefixes(grid.core_points))
        for i, (t, u) in enumerate(rep.snapshots):
            E = envelope(grid, u, st.phi(grid.trace_points, t))
            save_field(grid, E, t, cfg.outdir / f"field_t{i:04d}.tsv",
                       kern.alpha, template)
        _write_trace_gaps(cfg.outdir / "trace_gaps.tsv", grid.trace_points,
                          rep.trace_gap_series)
        _write_tsv(cfg.outdir / "report.tsv", header, rows)
        manifest["steps"] = st.steps
        manifest["final_sup_norm"] = st.sup_norm
        dts = np.diff(rep.times)
        manifest["telemetry"] = {
            "steps": st.steps,
            "dt_min": float(dts.min()) if len(dts) else None,
            "dt_max": float(dts.max()) if len(dts) else None,
            "cfl_denominator": cfl_denominator(st),
            "sigma_growth": st.sigma_growth}
        return harness.ExperimentResult("run", True,
                                        metrics={"steps": st.steps,
                                                 "sup_norm": st.sup_norm})
    if cfg.experiment == "comparison":
        seeds = cfg.params.get("seeds", 20)
        if "u0_b" in cfg.params or "phi_b" in cfg.params:
            u0b = cfg.params.get("u0_b", cfg.u0)
            phib = CoefficientField(cfg.params.get("phi_b", cfg.phi), "phi_b")
            res = harness.comparison_experiment(
                spec, dom, kern,
                (lambda p: eval_initial(cfg.u0, p), lambda p: eval_initial(u0b, p)),
                (cfg.phi, phib), scheme.T, scheme, r_max=cfg.r_max)
            return res
        worst = 0.0
        rows = []
        for s in range(seeds):
            u0a, v0a, pa, pb = harness.random_ordered_pair(s, dom)
            r = harness.comparison_experiment(spec, dom, kern, (u0a, v0a),
                                              (pa, pb), scheme.T, scheme,
                                              r_max=cfg.r_max)
            worst = max(worst, r.metrics["max_violation"])
            rows.append((s, r.metrics["max_violation"]))
        return harness.ExperimentResult(
            "comparison", worst <= 1e-12,
            metrics={"max_violation": worst, "seeds": seeds},
            tables={"report": (("seed", "max_violation"), rows)})
    if cfg.experiment == "boundary_behavior":
        h_list = cfg.params.get("h_list")
        if h_list:
            gaps, ratios = harness.boundary_refinement(
                spec, dom, kern, cfg.phi, cfg.u0, scheme.T, h_list, scheme,
                r_max=cfg.r_max)
            rows = [(f, *g) for f, g in gaps.items()]
            return harness.ExperimentResult(
                "boundary_behavior", True,
                metrics={"gaps": gaps, "ratios": ratios},
                tables={"report": (("face",) + tuple(f"h{i}" for i in
                                                     range(len(h_list))), rows)})
        return harness.boundary_behavior_experiment(
            spec, dom, kern, cfg.phi, cfg.u0, scheme.T, scheme, r_max=cfg.r_max)
    if cfg.experiment == "coercive_loss":
        scales = cfg.params.get("phi_scales", [1.0, 10.0, 100.0])
        return harness.coercive_loss_experiment(spec, dom, kern, scales,
                                                scheme, r_max=cfg.r_max)
    if cfg.experiment == "rate":
        return harness.rate_experiment(
            spec, dom, kern, cfg.phi, cfg.phi_limit, cfg.u0,
            scheme.T if scheme.T else 5.0, scheme,
            eps_rate=cfg.params.get("eps_rate", 0.05), r_max=cfg.r_max)
    if cfg.experiment == "large_time":
        ladder = cfg.params.get("t_ladder", [1.0, 2.0, 4.0])
        spec_limit = _limit_spec(cfg)
        return harness.large_time_experiment(
            spec, spec_limit, dom, kern, cfg.phi, cfg.phi_limit, ladder,
            scheme, eps_conv=cfg.params.get("eps_conv", 0.05), u0=cfg.u0,
            r_max=cfg.r_max)
    raise ValidationError([f"unknown experiment {cfg.experiment!r}"])


def _limit_spec(cfg: RunConfig):
    """Time-frozen Hamiltonian limit for the large-time experiment."""
    spec = cfg.spec
    f_limit = cfg.params.get("f_limit")
    if spec.family == "coercive" and (f_limit is not None or spec.time_dependent):
        spec = CoerciveSpec(m=spec.m, l=spec.l, a1=spec.a1, a2=spec.a2,
                            b=spec.b, lam=spec.lam,
                            f=f_limit if f_limit is not None else spec.f,
                            dim=spec.dim)
    if spec.time_dependent:
        raise ValidationError(["large_time with a time-dependent Hamiltonian "
                               "needs a time-independent limit (f_limit sets "
                               "the limit of the coercive f only)"])
    return spec
