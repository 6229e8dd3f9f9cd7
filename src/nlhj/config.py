"""Run configuration: INI-style sections parsed into solver objects.

Sections: [domain], [kernel], [hamiltonian], [data], [scheme], [experiment],
[output].  :data:`SECTIONS` holds the keys each section accepts, and
:data:`CHOICES` the sub-tables per kernel ``type``, Hamiltonian ``family``
and experiment ``name``; :data:`EXPERIMENTS` also names each experiment's
runner, what it requires and certifies, and which :data:`MARCH_KEYS` of
[scheme] it accepts.  :func:`execute` writes every table of the runner's
result.  Coefficient values are numbers or expressions in
the grammar of ``expressions`` (variables x, y, t).  Parsing is not
fail-fast: every invalid value, missing key, and section or key that the
tables do not accept is collected and reported in one ValidationError.
"""

from __future__ import annotations

import configparser
import json
import math
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .boundary import check_sigma
from .errors import (BlowUp, NonConvergence, ParseError, PreconditionError,
                     ValidationError)
from .expressions import Expression
from .geometry import Domain
from .hamiltonians import (BellmanSpec, CoefficientField, ControlLaw,
                           CoerciveSpec, check_compatibility, check_H1,
                           check_H2, check_H2prime, check_superfractional,
                           check_UE)
from .kernels import (Kernel, custom_radial_kernel,
                      fractional_laplacian_kernel, indicator_kernel)
from .solver import SchemeConfig, eval_initial
from . import harness

# Each key: the kind of value _parse reads, or (kind, default).  REQUIRED
# marks a key that must be given.  A key without a default is left out when
# absent, so the object built from its section applies its own default.
REQUIRED = "required"

SECTIONS = {
    "domain": {"dimension": ("count", 1), "lower": ("numbers", REQUIRED),
               "upper": ("numbers", REQUIRED)},
    "kernel": {"type": ("text", "fractional_laplacian"),
               "alpha": ("number", REQUIRED)},
    "hamiltonian": {"family": ("text", "coercive")},
    "data": {"u0": ("expression", REQUIRED), "phi": ("expression", REQUIRED),
             "phi_limit": "expression"},
    "scheme": {"h": ("number", REQUIRED), "theta": "number", "T": "number",
               "steady": ("boolean", False), "steady_tol": "number",
               "snapshot_dt": "number", "max_steps": "count",
               "r_max": "number"},
    "experiment": {"name": ("text", "run")},
    "output": {"directory": ("text", "out")},
}


# [scheme] keys that only some experiments read
MARCH_KEYS = ("steady", "steady_tol", "snapshot_dt")


# the runners: each calls its harness experiment with a RunConfig's fields
def _run(c):
    return harness.run_experiment(c.spec, c.domain, c.kernel, c.phi, c.u0,
                                  c.scheme, c.steady, c.outdir, r_max=c.r_max)


def _comparison(c):
    p, args = c.params, (c.spec, c.domain, c.kernel)
    if "u0_b" not in p and "phi_b" not in p:
        return harness.comparison_seeds(*args, p["seeds"], c.scheme.T,
                                        c.scheme, r_max=c.r_max)
    return harness.comparison_experiment(
        *args, (c.u0, p.get("u0_b", c.u0)), (c.phi, p.get("phi_b", c.phi)),
        c.scheme.T, c.scheme, r_max=c.r_max)


def _boundary_behavior(c):
    args = (c.spec, c.domain, c.kernel, c.phi, c.u0, c.scheme.T)
    if c.params.get("h_list"):
        return harness.boundary_refinement(*args, c.params["h_list"],
                                           c.scheme, r_max=c.r_max)
    return harness.boundary_behavior_experiment(*args, c.scheme,
                                                r_max=c.r_max)


def _coercive_loss(c):
    return harness.coercive_loss_experiment(
        c.spec, c.domain, c.kernel, c.params["phi_scales"], c.scheme,
        r_max=c.r_max)


def _rate(c):
    return harness.rate_experiment(
        c.spec, c.domain, c.kernel, c.phi, c.phi_limit, c.u0,
        c.scheme.T or EXPERIMENTS["rate"].T, c.scheme, r_max=c.r_max)


def _large_time(c):
    return harness.large_time_experiment(
        c.spec, _limit_spec(c.spec, c.params), c.domain, c.kernel, c.phi,
        c.phi_limit, c.params["t_ladder"], c.scheme, u0=c.u0, r_max=c.r_max)


class Experiment(NamedTuple):
    keys: dict                  # its [experiment] keys besides name
    run: object = None          # the function (RunConfig) -> ExperimentResult
    family: str | None = None   # the Hamiltonian family it needs
    T: object = None            # REQUIRED; a default; None: not read
    phi_limit: bool = False     # whether it needs [data] phi_limit
    certificates: tuple = ()    # checked besides (H0), (H1) and (H2)
    accepts: tuple = ()         # the MARCH_KEYS it accepts


EXPERIMENTS = {
    "run": Experiment({}, _run, T=REQUIRED, accepts=MARCH_KEYS),
    "comparison": Experiment({"seeds": ("count", 20), "u0_b": "expression",
                              "phi_b": "expression"}, _comparison,
                             T=REQUIRED),
    "boundary_behavior": Experiment({"h_list": "numbers"},
                                    _boundary_behavior, family="bellman",
                                    T=REQUIRED,
                                    certificates=("UE", "Sigma", "L"),
                                    accepts=("snapshot_dt",)),
    "coercive_loss": Experiment({"phi_scales": ("series", (1.0, 10.0, 100.0))},
                                _coercive_loss, family="coercive",
                                certificates=("A1",), accepts=("steady_tol",)),
    "rate": Experiment({}, _rate, T=5.0, phi_limit=True,
                       certificates=("H2prime",), accepts=("snapshot_dt",)),
    "large_time": Experiment({"t_ladder": ("series", (1.0, 2.0, 4.0)),
                              "f_limit": "expression"}, _large_time,
                             phi_limit=True, certificates=("H2prime",),
                             accepts=("steady_tol", "snapshot_dt")),
}

# the key that chooses a section's sub-table, and the sub-tables; lam_i,
# b_i and f_i stand for the keys of control i = 1 .. controls
CHOICES = {
    "kernel": ("type", {"fractional_laplacian": {},
                        "indicator": {"rho": ("number", REQUIRED)},
                        "custom_radial": {"profile": ("text", REQUIRED)}}),
    "hamiltonian": ("family", {
        "coercive": {"m": ("number", REQUIRED), "l": "number",
                     "a1": "expression", "a2": "expression",
                     "lam": "expression", "f": "expression", "b": "drift"},
        "bellman": {"controls": ("count", 1), "lipschitz": "number",
                    "lam_i": "expression", "b_i": "drift",
                    "f_i": "expression"}}),
    "experiment": ("name", {name: e.keys for name, e in EXPERIMENTS.items()}),
}
_CONTROL_INDEX = re.compile(r"_[1-9][0-9]*$")


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


def _parse(kind, text, where, dim, errors):
    """``text`` read as a value of ``kind``, or None with the error recorded:
    text, boolean, number, count (a whole number of at least 1), numbers (a
    list), series (a list of at least 2), expression (a number, or an
    expression in the variables of ``dim``) or drift (``dim`` expressions
    separated by ';').  A number must be finite."""
    if kind == "text":
        return text
    if kind == "boolean":
        value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
        if value is None:
            errors.append(f"{where}: not a boolean: {text!r}")
        return value
    if kind == "drift":
        parts = text.split(";")
        if len(parts) != dim:
            errors.append(f"{where}: expected {dim} component(s) separated "
                          f"by ';', got {len(parts)}")
            return None
        out = [_parse("expression", p.strip(), where, dim, errors)
               for p in parts]
        return None if None in out else out if dim > 1 else out[0]
    listed = kind in ("numbers", "series")
    try:
        values = [float(v) for v in (text.split() if listed else [text])]
    except ValueError:
        if kind != "expression":
            errors.append(f"{where}: not a number: {text!r}")
            return None
        try:
            expr = Expression(text)
        except ParseError as e:
            errors.append(f"{where}: {e}")
            return None
        if dim == 1 and "y" in expr.variables:
            errors.append(f"{where}: variable 'y' used in the 1-D expression "
                          f"{text!r}")
            return None
        return expr
    if not all(map(math.isfinite, values)):
        errors.append(f"{where}: not a finite number: {text!r}")
    elif kind == "series" and len(values) < 2:
        errors.append(f"{where}: needs at least 2 numbers: {text!r}")
    elif kind == "count" and (values[0] < 1 or values[0] != int(values[0])):
        errors.append(f"{where}: not a whole number of at least 1: {text!r}")
    else:
        return values if listed else int(values[0]) if kind == "count" \
            else values[0]
    return None


def _read(cp, section, dim, errors):
    """The values of ``section`` by key: each key the config gives, read by
    its parser, and the table's defaults for the keys it accepts but does
    not give.  A key the section accepts only for another type, family or
    name is read too, so that a bad value is reported with its refusal."""
    accepted = dict(SECTIONS[section])
    given = dict(cp.items(section)) if cp.has_section(section) else {}
    known = {}
    if section in CHOICES:
        selector, tables = CHOICES[section]
        choice = given.get(selector, accepted[selector][1])
        if choice not in tables:
            errors.append(f"[{section}] unknown {selector} {choice!r} "
                          f"(choose from {', '.join(tables)})")
        for name, table in tables.items():
            (accepted if name == choice else known).update(table)
    values = {}
    for name, text in given.items():
        pattern = _CONTROL_INDEX.sub("_i", name)
        key = accepted.get(pattern) or known.get(pattern)
        if key is None:
            errors.append(f"[{section}] unknown key {name!r} (known: "
                          f"{', '.join(accepted)})")
            continue
        kind = key if isinstance(key, str) else key[0]
        value = _parse(kind, text, f"[{section}] {name}", dim, errors)
        if pattern not in accepted:
            errors.append(f"[{section}] {name} is not a key of "
                          f"{selector} = {choice}")
        elif value is not None:
            values[name] = value
    for name, key in accepted.items():
        default = None if isinstance(key, str) else key[1]
        if default == REQUIRED and name not in given:
            errors.append(f"[{section}] missing required key '{name}'")
        elif default not in (None, REQUIRED):
            values.setdefault(name, default)
    return values


def _reads_t(value) -> bool:
    """Whether a number, an expression or a drift's expressions read t."""
    return any(getattr(v, "time_dependent", False)
               for v in (value if isinstance(value, list) else [value]))


def _spacing(h, dom, r_max, where, errors):
    """Record why the lattice spacing ``h`` does not fit ``dom`` and the halo
    reach ``r_max``: each domain side a multiple of h, and r_max >= 10*h."""
    if h <= 0:
        errors.append(f"{where} spacing h = {h} must be positive")
        return
    errors += [f"{where} domain side {s} is not a multiple of h = {h}"
               for s in dom.sides
               if abs(round(s / h) * h - s) > 1e-9 * max(1.0, s)]
    if r_max < 10 * h:
        errors.append(f"{where} r_max = {r_max} must be at least 10*h = "
                      f"{10 * h}")


def parse_config(path) -> RunConfig:
    """Read and validate a run configuration; collects all errors."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file not found: {path}")
    # no section is the default one: a [DEFAULT] section is refused like
    # any unknown section instead of having its keys copied into every one
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, default_section="")
    cp.optionxform = str    # key names are case-sensitive, as in the table
    try:
        text = path.read_text()
        cp.read_string(text, source=str(path))
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}")

    for sec in SECTIONS:
        if sec != "output" and not cp.has_section(sec):
            raise ParseError(f"{path}: missing [{sec}] section")
    errors = [f"[{sec}] is not a section (choose from {', '.join(SECTIONS)})"
              for sec in cp.sections() if sec not in SECTIONS]

    d = _read(cp, "domain", 1, errors)
    dim = d.pop("dimension")
    dom = None
    if "lower" in d and "upper" in d:
        try:
            if len(d["lower"]) != dim or len(d["upper"]) != dim:
                raise ValueError("lower/upper must match the dimension")
            dom = Domain(**d)
        except ValueError as e:
            errors.append(f"[domain] {e}")

    k = _read(cp, "kernel", dim, errors)
    alpha = k.get("alpha")
    kern = None
    if alpha is not None:
        try:
            if k["type"] == "fractional_laplacian":
                kern = fractional_laplacian_kernel(alpha, dim)
            elif k["type"] == "indicator" and "rho" in k:
                kern = indicator_kernel(alpha, dim, k["rho"])
            elif k["type"] == "custom_radial" and "profile" in k:
                prof = k["profile"]
                tab = np.loadtxt(path.parent / prof, ndmin=2)
                if tab.shape[0] < 2 or tab.shape[1] < 2:
                    raise ValueError(f"profile {prof}: needs at least 2 rows "
                                     f"of 2 columns (r, K(r)), got "
                                     f"{tab.shape[0]} x {tab.shape[1]}")
                kern = custom_radial_kernel(alpha, dim, tab[:, 0], tab[:, 1])
        except (OSError, ValueError) as e:
            errors.append(f"[kernel] {e}")

    ham = _read(cp, "hamiltonian", dim, errors)
    family = ham.pop("family")
    coefficients = dict(ham)  # before the controls' keys are popped
    spec = None
    try:
        if family == "coercive" and "m" in ham:
            spec = CoerciveSpec(**ham, dim=dim)
        elif family == "bellman":
            n = ham.pop("controls")
            laws = [{key: ham.pop(f"{key}_{i}") for key in ("lam", "b", "f")
                     if f"{key}_{i}" in ham} for i in range(1, n + 1)]
            lipschitz = ham.pop("lipschitz", None)
            errors += [f"[hamiltonian] {name} is not a key of controls = {n}"
                       for name in ham]
            spec = BellmanSpec([ControlLaw(**law, dim=dim) for law in laws],
                               lipschitz=lipschitz, dim=dim)
    except ValueError as e:
        errors.append(f"[hamiltonian] {e}")

    data = _read(cp, "data", dim, errors)
    phi = CoefficientField(data["phi"]) if "phi" in data else None

    s = _read(cp, "scheme", dim, errors)
    steady = s.pop("steady")
    r_max = s.pop("r_max", None)
    scheme = None
    if "h" in s:
        try:
            scheme = SchemeConfig(**s)
        except ValueError as e:
            errors.append(f"[scheme] {e}")
    if dom is not None:
        if r_max is None:
            r_max = harness.R_MAX_DIAMETERS * dom.diameter
        if "h" in s:
            _spacing(s["h"], dom, r_max, "[scheme]", errors)

    params = _read(cp, "experiment", dim, errors)
    exp = params.pop("name")
    # an unknown name, refused above, has no requirements
    entry = EXPERIMENTS.get(exp, Experiment({}))
    if entry.family and spec is not None and spec.family != entry.family:
        errors.append(f"[experiment] {exp} requires the {entry.family} family")
    elif "A1" in entry.certificates and spec is not None and \
            kern is not None and spec.m <= kern.alpha:
        errors.append(
            f"[experiment] {exp} requires the superfractional "
            f"condition (A1): m = {spec.m} must exceed alpha = {kern.alpha}")
    if exp == "boundary_behavior" and kern is not None and kern.alpha >= 1:
        errors.append(f"[experiment] {exp} requires alpha < 1, got alpha = "
                      f"{kern.alpha}")
    accepts, which = set(entry.accepts), ""
    if exp == "run":  # steady_tol with steady = true, snapshot_dt without
        accepts.discard("snapshot_dt" if steady else "steady_tol")
        which = f" {'with' if steady else 'without'} steady = true"
    errors += [f"[scheme] {key} is not a key of name = {exp}{which}"
               for key in MARCH_KEYS
               if key not in accepts and cp.has_option("scheme", key)]
    # steady = true stands in for T only where it is read: under run
    if entry.T == REQUIRED and s.get("T") is None and not (
            steady and exp == "run"):
        errors.append(f"[scheme] name = {exp} needs a final time T"
                      + (" (or steady = true)" if exp == "run" else ""))
    if entry.phi_limit and "phi_limit" not in data:
        errors.append(f"[data] phi_limit is required for name = {exp}")
    ladder = params.get("t_ladder", ())
    if any(t <= 0 for t in ladder):
        errors.append(f"[experiment] t_ladder: horizons must be positive: "
                      f"{ladder}")
    elif any(b <= a for a, b in zip(ladder, ladder[1:])):
        errors.append(f"[experiment] t_ladder: horizons must increase "
                      f"strictly: {ladder}")
    h_list = params.get("h_list", ())
    for h in h_list if dom is not None else ():
        _spacing(h, dom, r_max, "[experiment] h_list:", errors)
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        errors.append(f"[experiment] h_list: spacings must decrease "
                      f"strictly: {h_list}")
    # a steady solve freezes t, so neither the Hamiltonian it solves for
    # (large_time's limit) nor the [data] it reads, by experiment, may read t
    reads = {"run": ("phi",) if steady else None, "coercive_loss": (),
             "rate": ("phi_limit",), "large_time": ("phi_limit",)}.get(exp)
    if reads is not None:
        read = {f"[hamiltonian] {key}": v for key, v in coefficients.items()}
        if "f_limit" in params and family == "coercive":  # under large_time
            read.pop("[hamiltonian] f", None)
            read["[experiment] f_limit"] = params["f_limit"]
        read.update((f"[data] {key}", data.get(key)) for key in reads)
        hint = " (f_limit sets the limit of the coercive f only)"
        errors += [f"{where} depends on t, but name = {exp}{which} solves for "
                   f"a steady state{hint if exp == 'large_time' else ''}"
                   for where, value in read.items() if _reads_t(value)]

    outdir = path.parent / _read(cp, "output", dim, errors)["directory"]

    if errors:
        raise ValidationError(errors)
    return RunConfig(domain=dom, kernel=kern, spec=spec, u0=data.get("u0"),
                     phi=phi, phi_limit=data.get("phi_limit"), scheme=scheme,
                     steady=steady, r_max=r_max, experiment=exp,
                     params=params, outdir=outdir, source=text)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _write_tsv(path: Path, header, rows):
    """``rows`` under ``header``, each row in one format built from row 0:
    ``%s`` where it holds text, ``%.17g`` elsewhere."""
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        if rows:
            row = "\t".join(["%s" if isinstance(v, str) else "%.17g"
                             for v in rows[0]]) + "\n"
            fh.writelines([row % tuple(r) for r in rows])


def run_certificates(cfg: RunConfig) -> dict:
    """(H0), (H1) and (H2), plus the certificates the experiment's entry in
    :data:`EXPERIMENTS` names."""
    plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h, cfg.r_max)
    grid = plan.grid
    pts = grid.core_points
    certs = {"H1": check_H1(cfg.spec, pts)}
    # H0 fails on data that are not finite, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u0 = eval_initial(cfg.u0, pts)
        phi_trace = cfg.phi(grid.trace_points, 0.0)
    certs["H0"] = check_compatibility(grid, u0, phi_trace)
    certs["H2"] = check_H2(cfg.spec, plan)
    extra = {
        "H2prime": lambda: check_H2prime(cfg.spec, plan),
        "UE": lambda: check_UE(cfg.kernel),
        "Sigma": lambda: check_sigma(cfg.spec, cfg.domain,
                                     (0.0, cfg.scheme.T or 1.0)),
        "L": lambda: cfg.spec.check_lipschitz(cfg.domain),
        "A1": lambda: check_superfractional(cfg.spec, cfg.kernel, pts),
    }
    for name in EXPERIMENTS[cfg.experiment].certificates:
        # (L) certifies a Lipschitz constant only the config can give
        if name != "L" or cfg.spec.lipschitz is not None:
            certs[name] = extra[name]()
    return certs


def execute(cfg: RunConfig) -> int:
    """Run certificates then the experiment; write artifacts; return the exit
    status (see the ``cli`` module), which a failed certificate, recorded in
    the manifest, does not change.

    The manifest records the run's time, ``wall_time_s``, and in
    ``phase_s`` the time of each phase that finished, one after the other:
    discretize, certificates, experiment (a ``run`` writes its snapshots
    there) and tables.  Both come from ``time.perf_counter``, which never
    jumps, and neither enters a report table."""
    start = time.perf_counter()
    phase_s = {}

    def finished(phase: str, since: float) -> float:
        now = time.perf_counter()
        phase_s[phase] = now - since
        return now

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "numpy": np.__version__,
        "experiment": cfg.experiment,
        "config": cfg.source,
        "h": cfg.scheme.h,
        "r_max": cfg.r_max,
        "phase_s": phase_s,
    }
    try:
        t = time.perf_counter()
        plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h,
                                  cfg.r_max)
        t = finished("discretize", t)
        manifest["cfl"] = {"lambda": plan.qt.lam, "theta": cfg.scheme.theta}
        manifest["sweep_fft"] = list(plan.core_fft)
        certs = run_certificates(cfg)
        t = finished("certificates", t)
        manifest["certificates"] = {k: v.as_dict() for k, v in certs.items()}
        result = EXPERIMENTS[cfg.experiment].run(cfg)
        t = finished("experiment", t)
        manifest["metrics"] = result.metrics
        manifest["telemetry"] = result.telemetry
        manifest["passed"] = bool(result.passed)
        status = 0 if result.passed else 1
        for name, (header, rows) in result.tables.items():
            _write_tsv(cfg.outdir / f"{name}.tsv", header, rows)
        finished("tables", t)
    except (PreconditionError, ValidationError, BlowUp,
            NonConvergence) as e:
        manifest["error"] = f"{type(e).__name__}: {e}"
        status = 2 if isinstance(e, (PreconditionError, ValidationError)) else 1
    manifest["exit_status"] = status
    manifest["wall_time_s"] = time.perf_counter() - start
    with open(cfg.outdir / "manifest.json", "w") as fh:
        # numpy scalars are written as the floats they hold
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
    return status


def _limit_spec(spec, params: dict):
    """Time-frozen Hamiltonian limit for the large-time experiment: ``spec``
    with the coercive f replaced by ``f_limit`` when the params give it."""
    if spec.family == "coercive" and "f_limit" in params:
        spec = replace(spec, f=params["f_limit"])
    return spec
