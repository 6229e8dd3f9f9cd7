"""Independent references used to verify the discrete operators and schemes.

Everything here bypasses the lattice quadrature: adaptive quadrature for the
nonlocal operator, closed forms for exterior and tail
masses and for the operator on the ball profile (``ball_kappa``), a
trapezoid evaluation of the rate bound, and a hand-rolled first-order
upwind advection stepper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .geometry import Domain
from .kernels import Kernel


def _kern_1d(k: Kernel, z: float) -> float:
    r = abs(z)
    return float(k.profile(np.array([r]))[0]) * r ** (-(1 + k.alpha))


def operator_oracle_1d(fn, x: float, k: Kernel, r_inf: float = 60.0,
                       points=(), grad: float | None = None) -> float:
    """Adaptive quadrature of the operator of order alpha at a point.

    ``fn`` is the globally-defined scalar function (interior values joined
    with the exterior datum); ``points`` marks its kinks.  The compensator
    uses the exact gradient when given, else a central difference.
    """
    f0 = fn(x)
    if k.alpha >= 1:
        if grad is None:
            eps = 1e-6
            grad = (fn(x + eps) - fn(x - eps)) / (2 * eps)
    else:
        grad = 0.0

    def integrand(z):
        comp = grad * z if (k.alpha >= 1 and abs(z) <= 1.0) else 0.0
        return (fn(x + z) - f0 - comp) * _kern_1d(k, z)

    brk = sorted(set(abs(p - x) for p in points) | {1.0})
    total = 0.0
    for sgn in (1.0, -1.0):
        edges = [1e-14] + [b for b in brk if 1e-14 < b < r_inf] + [r_inf]
        for a, b in zip(edges[:-1], edges[1:]):
            val, _ = quad(lambda s: integrand(sgn * s), a, b, limit=400)
            total += val
        # analytic continuation beyond r_inf assuming fn equals its limit
        f_far = fn(sgn * (r_inf + 1.0))
        total += (f_far - f0) * float(k.profile(np.array([r_inf]))[0]) \
            * r_inf ** (-k.alpha) / k.alpha
    return total


def operator_oracle_2d_radial(fn_radial, k: Kernel, r_inf: float = 60.0,
                              points=()) -> float:
    """Operator at the origin for radial data in 2-D (compensator cancels)."""
    f0 = fn_radial(0.0)

    def integrand(r):
        return (fn_radial(r) - f0) * float(k.profile(np.array([r]))[0]) \
            * r ** (-(2 + k.alpha)) * 2 * np.pi * r

    edges = [1e-12] + sorted(p for p in points if 1e-12 < p < r_inf) + [r_inf]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, limit=400)
        total += val
    f_far = fn_radial(r_inf + 1.0)
    total += (f_far - f0) * float(k.profile(np.array([r_inf]))[0]) \
        * 2 * np.pi * r_inf ** (-k.alpha) / k.alpha
    return total


def exterior_mass_closed_form(alpha: float, dom: Domain, x: float) -> float:
    """Exact kernel mass of Omega^c - x for K identically 1 in 1-D."""
    lo, hi = dom.lower[0], dom.upper[0]
    return ((hi - x) ** -alpha + (x - lo) ** -alpha) / alpha


def ball_kappa(alpha: float, dim: int = 1) -> float:
    """kappa = Gamma(1+alpha/2) pi^(n/2) |Gamma(-alpha/2)| / Gamma(n/2), so
    that w = (1 - |x|^2)_+^(alpha/2) has I(w) = -kappa in the unit ball for
    K identically 1 (Getoor's formula; pi / sin(pi alpha/2) in 1-D)."""
    return (math.gamma(1 + alpha / 2) * math.pi ** (dim / 2)
            * abs(math.gamma(-alpha / 2)) / math.gamma(dim / 2))


def tail_mass_closed_form(alpha: float, r: float, kval: float = 1.0,
                          dim: int = 1) -> float:
    surf = 2.0 if dim == 1 else 2.0 * np.pi
    return kval * surf * r ** -alpha / alpha


def upwind_advection_steps(values: np.ndarray, c: float, h: float, dt: float,
                           n_steps: int, core: np.ndarray) -> np.ndarray:
    """Hand-rolled first-order upwind advection u_t = c u_x (c > 0 reads the
    forward neighbor), exterior slots held fixed."""
    v = values.copy()
    for _ in range(n_steps):
        vn = v.copy()
        if c > 0:
            vn[core] = v[core] + dt * c * (v[core + 1] - v[core]) / h
        else:
            vn[core] = v[core] + dt * c * (v[core] - v[core - 1]) / h
        v = vn
    return v


def rate_bound_trapezoid(times: np.ndarray, g_samples: np.ndarray, mu0: float,
                         dev0: float) -> np.ndarray:
    """Independent trapezoid evaluation of the rate bound
    e^{-mu0 t} (dev0 + G(t)), with the pre-history clamp g(0) for t < 0."""
    times = np.asarray(times, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    g_clamp = g[0]
    bound = np.empty_like(times)
    for i, t in enumerate(times):
        mask = times <= t + 1e-15
        ts, gs = times[mask], g[mask]
        G = g_clamp * np.exp(mu0 * min(t, 0.0))
        if len(ts) > 1:
            G += mu0 * np.trapezoid(gs * np.exp(mu0 * ts), ts)
        bound[i] = np.exp(-mu0 * t) * (dev0 + G)
    return bound
