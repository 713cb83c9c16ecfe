"""Numerical integration backends with error reporting.

Low dimensions use nested adaptive Gauss-Kronrod (QUADPACK); dimensions five
through eight switch to scrambled Sobol sequences with a replicate-based
error estimate. Unbounded axes are mapped onto the unit cube first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import qmc


class DimensionTooHigh(Exception):
    pass


class DivergentIntegral(Exception):
    pass


ADAPTIVE_MAX_DIM = 4
QMC_MAX_DIM = 8
QMC_SAMPLES = 1 << 13
QMC_REPLICATES = 8


@dataclass(frozen=True)
class ConstantValue:
    value: float
    abs_error: float
    method: str


def integrate_cube(f, dim: int, tol: float = 1e-9, seed: int = 0) -> ConstantValue:
    """Integrate f over the open unit cube (0,1)^dim."""
    if dim == 0:
        return ConstantValue(value=float(f(())), abs_error=0.0, method="exact")
    if dim > QMC_MAX_DIM:
        raise DimensionTooHigh(f"integral dimension {dim} exceeds {QMC_MAX_DIM}")
    if dim <= ADAPTIVE_MAX_DIM:
        opts = {"epsabs": tol / 4, "epsrel": 1e-11, "limit": 200}
        val, err = integrate.nquad(lambda *x: f(x), [(0.0, 1.0)] * dim,
                                   opts=[opts] * dim)
        return ConstantValue(value=float(val), abs_error=float(2 * err + 1e-15),
                             method=f"gauss-kronrod-{dim}d")
    means = []
    for r in range(QMC_REPLICATES):
        sampler = qmc.Sobol(d=dim, scramble=True, seed=seed + r)
        pts = sampler.random(QMC_SAMPLES)
        vals = np.array([f(tuple(p)) for p in pts])
        means.append(float(np.mean(vals)))
    value = float(np.mean(means))
    spread = float(np.std(means, ddof=1) / np.sqrt(QMC_REPLICATES))
    return ConstantValue(value=value, abs_error=3 * spread, method=f"sobol-{dim}d")


def check_tail_convergence(f, dim: int, tail_ends, levels=(0.1, 0.01, 0.001)):
    """Crude geometric-decay test on an integrand already mapped to the cube.

    tail_ends maps axis index to the cube endpoint (0.0 or 1.0) where the
    original integration region escapes to infinity. Boxes grow toward that
    endpoint; the increments must shrink by at least a factor of two per
    level, otherwise the original integral is declared divergent.
    """
    if not tail_ends:
        return
    increments = []
    prev = None
    for margin in levels:
        bounds = []
        for i in range(dim):
            end = tail_ends.get(i)
            if end is None:
                bounds.append((0.0, 1.0))
            elif end >= 1.0:
                bounds.append((0.0, 1.0 - margin))
            else:
                bounds.append((margin, 1.0))
        opts = {"epsabs": 1e-6, "epsrel": 1e-6, "limit": 60}
        val, _ = integrate.nquad(lambda *x: f(x), bounds, opts=[opts] * dim)
        if prev is not None:
            increments.append(abs(val - prev))
        prev = val
    for a, b in zip(increments, increments[1:]):
        if not (b <= 0.5 * a + 1e-12):
            raise DivergentIntegral(
                f"tail increments {increments} do not shrink geometrically")
