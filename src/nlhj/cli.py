"""Command-line front end.

    nlhj run <config>      parse, run certificates and the experiment, write
                           manifest.json and report tables to the output dir
    nlhj check <config>    certificates only
    nlhj oracle <config>   print the independent oracle values (adaptive
                           quadrature, closed forms) for the configured data

Exit status: 0 pass, 1 experiment failure, 2 a refused configuration or a
failed gate of the experiment's own ((H2'), (UE), (A1), ordered or
converging data).  A certificate that ``nlhj run`` records never changes
its status; ``nlhj check`` exits 2 on any failed certificate.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import parse_config, execute, run_certificates
from .errors import ParseError, PreconditionError, ValidationError
from .geometry import signed_distance_many
from .solver import eval_initial


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    status = execute(cfg)
    print(f"{cfg.experiment}: exit {status} (artifacts in {cfg.outdir})")
    return status


def _cmd_check(args) -> int:
    certs = run_certificates(parse_config(args.config))
    worst = 0
    for name, c in sorted(certs.items()):
        print(f"{name}\t{'pass' if c.passed else 'FAIL'}\tvalue={c.value:.6g}")
        if not c.passed:
            worst = 2
    return worst


def _cmd_oracle(args) -> int:
    # imported here: scipy.integrate costs every other command its start-up
    from . import oracles

    cfg = parse_config(args.config)
    dom, kern = cfg.domain, cfg.kernel
    center = np.array([(a + b) / 2 for a, b in zip(dom.lower, dom.upper)])
    u0fn = lambda x: float(eval_initial(cfg.u0, np.atleast_2d(x))[0])
    print(f"# oracle values for {args.config}")
    if dom.dim == 1:
        phi0 = lambda x: float(cfg.phi(np.atleast_2d(x), 0.0)[0])

        def joined(x):
            x = np.array([x])
            return u0fn(x) if signed_distance_many(dom, x)[0] > 0 \
                else phi0(x)

        kinks = [dom.lower[0], dom.upper[0]]
        if kern.kmax > 0:
            val = oracles.operator_oracle_1d(joined, float(center[0]), kern,
                                             points=kinks)
            print(f"operator_quadrature_at_center\t{val:.12g}")
        if kern.const_value is not None and kern.kmax > 0:
            em = kern.const_value * oracles.exterior_mass_closed_form(
                kern.alpha, dom, float(center[0]))
            print(f"exterior_mass_closed_form_at_center\t{em:.12g}")
        print(f"tail_mass_closed_form_at_r_max\t"
              f"{oracles.tail_mass_closed_form(kern.alpha, cfg.r_max, kern.kmax):.12g}")
    else:
        print("# 2-D oracle support: radial operator at the center for "
              "radial data is exposed via the Python API")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlhj",
        description="Nonlocal Hamilton-Jacobi Dirichlet solver and harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("check", _cmd_check),
                     ("oracle", _cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a run configuration file")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as e:
        if isinstance(e, ValidationError):
            print("configuration invalid:", file=sys.stderr)
            for p in e.problems:
                print(f"  - {p}", file=sys.stderr)
        else:
            print(f"parse error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
