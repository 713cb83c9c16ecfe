"""Numerical integration backends with error reporting.

`integrate_log_orthant` integrates (sum_e c_e x^e)^(-sigma0) over (0, oo)^k
by the trapezoid rule in s = log x, where the integrand decays exponentially
in every direction. Its error bar adds a certified bound on the mass cut off
outside the window [-R, R]^k to an estimate of the step error: the difference
between the last two step sizes, which overstates the error of the finer one
when the rule converges exponentially. Sargos face integrals over compact
faces of dimension one or two take this rule when `volumes.exact_face_integral`
has no closed form for them.

`integrate_cube` serves the rest on the unit cube, where unbounded axes are
mapped first: nested adaptive Gauss-Kronrod (QUADPACK) up to four dimensions,
then scrambled Sobol sequences with a replicate-based error estimate through
dimension eight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class DimensionTooHigh(Exception):
    pass


class DivergentIntegral(Exception):
    pass


ADAPTIVE_MAX_DIM = 4
QMC_MAX_DIM = 8
QMC_SAMPLES = 1 << 13
QMC_REPLICATES = 8
LOG_FIRST_STEP = 1.0      # grid step h of the coarsest log-trapezoid level
LOG_BLOCK = 8192          # grid points evaluated per numpy block
LOG_MAX_POINTS = 1 << 24  # no log-trapezoid level exceeds this many points


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
        from scipy import integrate
        opts = {"epsabs": tol / 4, "epsrel": 1e-11, "limit": 200}
        val, err = integrate.nquad(lambda *x: f(x), [(0.0, 1.0)] * dim,
                                   opts=[opts] * dim)
        return ConstantValue(value=float(val), abs_error=float(2 * err + 1e-15),
                             method=f"gauss-kronrod-{dim}d")
    from scipy.stats import qmc
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
    from scipy import integrate
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


def _log_window_tail(radius: float, rate: float, k: int, bound: float) -> float:
    """Mass of bound * exp(-rate |s|) outside the ball of the given radius in R^k."""
    sphere = 2 * math.pi ** (k / 2) / math.gamma(k / 2)
    radial = sum(math.factorial(k - 1) / math.factorial(i) * radius ** i / rate ** (k - i)
                 for i in range(k))
    return bound * sphere * math.exp(-rate * radius) * radial


# A positive double is m * 2^(e - 53) with frexp exponent e in [-1073, 1024]
# and an integer 53-bit significand m. Summing the halves of m per exponent
# stays exact in float64 for up to 2^26 values.
_EXPONENTS = 2098
_UNIT = 1 << 1126        # sums are integers in units of 2^-1126


def _exact_sum(blocks) -> int:
    """The exact sum of the positive doubles in `blocks`, in units of 2^-1126."""
    high = np.zeros(_EXPONENTS)
    low = np.zeros(_EXPONENTS)
    for values in blocks:
        frac, expo = np.frexp(values)
        mant = np.ldexp(frac, 53).astype(np.int64)
        high += np.bincount(expo + 1073, weights=mant >> 26, minlength=_EXPONENTS)
        low += np.bincount(expo + 1073, weights=mant & 0x3FFFFFF, minlength=_EXPONENTS)
    return sum(((int(a) << 26) + int(b)) << i
               for i, (a, b) in enumerate(zip(high, low)) if a or b)


def integrate_log_orthant(coeffs, exps, sigma0, rate: float,
                          tol: float = 1e-9) -> ConstantValue:
    """Integrate (sum_e c_e x^e)^(-sigma0) over the open orthant (0, oo)^k.

    In s = log x the integrand is exp(sum_j s_j - sigma0 * logsumexp(log c_e
    + <e, s>)). The caller vouches for the decay rate: f(s) <= c_min^(-sigma0)
    * exp(-rate |s|), which holds when rate / sigma0 is at most the distance
    from (1, ..., 1) / sigma0 to the boundary of conv(exps). The window
    [-R, R]^k is the smallest multiple of the first step whose outside mass
    is certified below tol / 4. The step halves until two successive sums
    differ by less than tol / 4; each halving evaluates only the new points,
    in blocks of at most LOG_BLOCK. The grid sums are exact and rounded once,
    so the result does not depend on the blocking.
    """
    if any(c <= 0 for c in coeffs):
        raise ValueError("face coefficients must be positive")
    k = len(exps[0])
    s0 = float(sigma0)
    terms = [(math.log(float(c)), [float(x) for x in e]) for c, e in zip(coeffs, exps)]
    bound = float(min(coeffs)) ** (-s0)
    target = tol / 4

    hi = 1.0
    while _log_window_tail(hi, rate, k, bound) > target:
        hi *= 2
    lo = 0.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if _log_window_tail(mid, rate, k, bound) > target:
            lo = mid
        else:
            hi = mid
    h = LOG_FIRST_STEP
    while (4 * math.ceil(hi / h) + 1) ** k > LOG_MAX_POINTS:
        h *= 2     # the first two levels must fit
    half = math.ceil(hi / h)    # the window is [-half * h, half * h]^k
    truncation = _log_window_tail(half * h, rate, k, bound)

    def blocks(products, h):
        # each product lists, per axis, the multiples of h it takes
        for axes in products:
            sizes = [max(1, LOG_BLOCK // math.prod(len(a) for a in axes[d + 1:]))
                     for d in range(k)]
            chunks = [[a[i:i + size] for i in range(0, len(a), size)]
                      for a, size in zip(axes, sizes)]
            for pick in itertools.product(*chunks):
                grid = np.ix_(*[idx * h for idx in pick])
                lin = [logc + sum(x * g for x, g in zip(e, grid)) for logc, e in terms]
                top = np.max(lin, axis=0)
                lse = top + np.log(sum(np.exp(v - top) for v in lin))
                f = np.exp(sum(grid) - s0 * lse).ravel()
                yield f[f > 0.0]

    total = _exact_sum(blocks([[np.arange(-half, half + 1)] * k], h))
    value = total / _UNIT * h ** k
    while True:
        h /= 2
        half *= 2
        if (2 * half + 1) ** k > LOG_MAX_POINTS:
            break
        full = np.arange(-half, half + 1)
        odd, even = full[1::2], full[0::2]
        # the new points, split by the first axis with an odd coordinate
        total += _exact_sum(blocks(
            [[even] * d + [odd] + [full] * (k - 1 - d) for d in range(k)], h))
        finer = total / _UNIT * h ** k
        step = abs(finer - value)
        value = finer
        if step < target:
            break
    return ConstantValue(value=value, abs_error=step + truncation,
                         method=f"log-trapezoid-{k}d")
