"""Euler products of uniform multiplicative weights at the normalized polar vector.

Per prime the local series sum_v g(v) p^(-<v,c>) is truncated with a
certified geometric-polynomial tail bound; the regularized factors
(1 - 1/p)^K * L_p tend to 1 like p^(-(1+eps)), and the product over primes
beyond the cutoff is corrected through the prime zeta function applied to
the exponent expansion of log[(1 - x)^K W(x)]. The product runs in one
thread, prime after prime, and every prime reads the one WeightProfile
built from the support walk of the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .generators import LatticePointSet
# NonPositivePolar is raised by the support walk and importable from here
from .model import NonPositivePolar, UniformMultiplicativeSpec, polar_scale  # noqa: F401
from .vectors import fracvec

DEFAULT_CUTOFF = 100_000
DEFAULT_PRECISION = 160
EXPANSION_DEPTH = Fraction(6)   # exponents kept in the log-factor expansion
MAX_LEVEL = 100_000             # required_level gives up beyond this |v|
# log partial sums are taken per block of primes, then added up: the block
# size fixes the rounding of every reported value
PRIME_BLOCK = 1024


def primes_up_to(n: int):
    """Plain sieve, ascending."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i, v in enumerate(sieve) if v]


@dataclass(frozen=True)
class LocalFactor:
    p: int
    value: object          # mpf
    tail_bound: float


@dataclass(frozen=True)
class EulerReport:
    value: object          # mpf
    cutoff: int
    K: int
    epsilon_gap: Fraction
    error_bound: float
    precision: int
    factors: Optional[tuple] = None

    def __float__(self):
        return float(self.value)


def _tail_bound(spec: UniformMultiplicativeSpec, min_c: float, p: int,
                level: int) -> float:
    """Upper bound for the weight series beyond |v| = level at prime p:
    C sum_(k>N) (1+k)^(M+n-1) p^(-k min c), summed as a geometric majorant."""
    x = float(p) ** (-min_c)
    d = spec.growth_m + spec.arity - 1
    r = x * math.exp(d / (level + 2))
    if r >= 1:
        return math.inf
    return spec.growth_c * (level + 2) ** d * x ** (level + 1) / (1 - r)


def _first_level(spec: UniformMultiplicativeSpec, min_c: float, p: int,
                 tol: float, limit: int) -> Optional[int]:
    """The first level in 1..limit whose tail bound at p is below tol."""
    return next((level for level in range(1, limit + 1)
                 if _tail_bound(spec, min_c, p, level) < tol), None)


class WeightProfile:
    """Support weight keyed by (|v| level, D<c,v>), D = polar_scale(c).

    The level drives the certified truncation: per prime only levels up to
    N(p) are summed and the remainder is bounded by
    C sum_(k>N) (1+k)^(M+n-1) p^(-k min c). Exponents stay integers in units
    of 1/D until they are evaluated.
    """

    def __init__(self, spec: UniformMultiplicativeSpec, c, max_level: int):
        self.spec = spec
        self.c = fracvec(c)
        self.scale = polar_scale(self.c)
        self.min_c = float(min(self.c))
        self.max_level = max_level
        entries: dict = {}
        for _, w, level, expo in spec.support(self.c, max_level=max_level):
            key = (level, expo)
            entries[key] = entries.get(key, 0) + w
        self.entries = sorted(entries.items())  # ((level, D * exponent), weight)

    def tail_bound(self, p: int, level: int) -> float:
        """Upper bound for the weight series beyond |v| = level at prime p."""
        return _tail_bound(self.spec, self.min_c, p, level)

    def level_for(self, p: int, tol: float) -> int:
        level = _first_level(self.spec, self.min_c, p, tol, self.max_level)
        return self.max_level if level is None else level

    def local_sum(self, p: int, level: int):
        """sum g(v) p^(-<v,c>) over |v| <= level, exact exponents, mpf value."""
        total = mp.mpf(0)
        pm = mp.mpf(p)
        for (lvl, expo), w in self.entries:
            if lvl > level:
                break  # entries are sorted by level
            total += w * mp.power(pm, mp.mpf(-expo) / self.scale) \
                if expo != 0 else mp.mpf(w)
        return total

    def exponent_weights(self, depth: Fraction) -> dict:
        """Total weight per polar exponent, up to the expansion depth."""
        out: dict = {}
        top = depth * self.scale
        for (lvl, expo), w in self.entries:
            if 0 < expo <= top:
                key = Fraction(expo, self.scale)
                out[key] = out.get(key, 0) + w
        return out


def required_level(spec: UniformMultiplicativeSpec, c, tol: float) -> int:
    """Smallest truncation level certified below tol at p = 2."""
    polar_scale(c)  # rejects a polar vector that is not strictly positive
    level = _first_level(spec, float(min(fracvec(c))), 2, tol, MAX_LEVEL)
    if level is None:
        raise ValueError("cannot certify truncation; polar vector too small")
    return level


def local_factor(spec: UniformMultiplicativeSpec, c, p: int, tol: float = 1e-12,
                 precision: int = DEFAULT_PRECISION,
                 profile: Optional[WeightProfile] = None) -> LocalFactor:
    """The local series at prime p with a certified truncation bound."""
    with mp.workprec(precision):
        if profile is None:
            profile = WeightProfile(spec, c, required_level(spec, c, tol))
        level = profile.level_for(p, tol)
        value = profile.local_sum(p, level)
        return LocalFactor(p=p, value=value, tail_bound=profile.tail_bound(p, level))


def epsilon_gap(generators: LatticePointSet, c) -> Fraction:
    """min(1, smallest excess <c,v> - 1 over off-face support points).

    Points with <c,v> >= 2 cannot realize a smaller excess than 1, so the
    walk is confined to D<c,v> <= 2D - 1; this catches non-minimal support
    points sitting closer to the face than any generator.
    """
    scale = polar_scale(c)
    walk = generators.spec.support(c, max_expo=2 * scale - 1)
    return Fraction(min((e - scale for _, _, _, e in walk if e > scale),
                        default=scale), scale)


def _log_factor_expansion(weights: dict, k_reg: int, depth: Fraction) -> dict:
    """Exponent expansion of log[(1 - x)^K (1 + sum w_e x^e)], exponents <= depth.

    Exact rational coefficients; the x^1 terms must cancel (the face weight
    equals K), otherwise the product has no finite regularized limit.
    """
    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                if e <= depth:
                    out[e] = out.get(e, Fraction(0)) + ca * cb
        return out

    u = {e: Fraction(w) for e, w in weights.items()}
    series: dict = {}
    power = dict(u)
    sign = 1
    k = 1
    while power and k <= depth:
        for e, coef in power.items():
            series[e] = series.get(e, Fraction(0)) + sign * coef / k
        power = mul(power, u)
        sign = -sign
        k += 1
    j = 1
    while j <= depth:
        series[Fraction(j)] = series.get(Fraction(j), Fraction(0)) - Fraction(k_reg, j)
        j += 1
    series = {e: c for e, c in series.items() if c != 0}
    bad = [e for e in series if e <= 1]
    if bad:
        raise ValueError(
            f"face weight inconsistent with K={k_reg}: surviving exponents {bad}")
    return series


def euler_constant(spec: UniformMultiplicativeSpec, c, k_reg: int,
                   cutoff: int = DEFAULT_CUTOFF, tol: float = 1e-10,
                   precision: int = DEFAULT_PRECISION,
                   generators: Optional[LatticePointSet] = None,
                   keep_factors: bool = False) -> EulerReport:
    """Regularized product over primes with a prime-zeta tail correction.

    The reported error combines the per-prime truncation budget, the
    correction remainder beyond the expansion depth, and a rounding envelope.
    With keep_factors, every regularized local factor is kept in the same
    pass over the primes.
    """
    plist = primes_up_to(cutoff)
    nprimes = len(plist)
    tol_pp = tol / (4 * max(nprimes, 1))

    with mp.workprec(precision):
        profile = WeightProfile(spec, c, required_level(spec, c, tol_pp))
        gap = epsilon_gap(generators, c) if generators is not None else Fraction(1)

        log_total = mp.mpf(0)
        tail_sum = 0.0
        factors = [] if keep_factors else None
        for start in range(0, nprimes, PRIME_BLOCK):
            block_log = mp.mpf(0)
            block_tails = 0.0
            for p in plist[start:start + PRIME_BLOCK]:
                level = profile.level_for(p, tol_pp)
                local = profile.local_sum(p, level)
                reg = (1 - mp.mpf(1) / p) ** k_reg * local
                block_log += mp.log(reg)
                bound = profile.tail_bound(p, level)
                block_tails += bound / float(local)
                if factors is not None:
                    factors.append(LocalFactor(p=p, value=reg, tail_bound=bound))
            log_total += block_log
            tail_sum += block_tails

        weights = profile.exponent_weights(EXPANSION_DEPTH)
        series = _log_factor_expansion(weights, k_reg, EXPANSION_DEPTH)
        correction = mp.mpf(0)
        for e, coef in sorted(series.items()):
            x = mp.mpf(e.numerator) / e.denominator
            tail_pz = mp.primezeta(x)
            for p in plist:
                tail_pz -= mp.power(p, -x)
            correction += (mp.mpf(coef.numerator) / coef.denominator) * tail_pz
        log_total += correction

        value = mp.exp(log_total)
        # everything past the expansion depth is bounded by a crude integral
        depth_f = float(EXPANSION_DEPTH)
        mass = 1.0 + float(sum(abs(w) for w in weights.values())) + k_reg
        remainder = (mass ** 2) * cutoff ** (1.0 - depth_f) / (depth_f - 1.0)
        rounding = nprimes * (k_reg + 4) * math.ldexp(1.0, -precision + 4)
        err = float(value) * (tail_sum + remainder + rounding) + remainder

        return EulerReport(value=value, cutoff=cutoff, K=k_reg, epsilon_gap=gap,
                           error_bound=err, precision=precision,
                           factors=tuple(factors) if factors is not None else None)
