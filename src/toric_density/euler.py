"""Euler products of uniform multiplicative weights at the normalized polar vector.

For matrix, hypersurface and free weights every local factor is exact. The
support is a union of coordinate faces of saturated affine monoids whose
Hilbert bases lie among the support generators, so by Hilbert--Serre
W(x) = sum_v g(v) x^(D<c,v>) = N(x)/Q(x) with Q = prod_h (1 - x^(D<c,h>))
over the generators h and deg N <= deg Q (Miller--Sturmfels, Combinatorial
Commutative Algebra, ch. 12). N comes from a short support walk times Q, and
the local factor at p is N(x_p)/Q(x_p) with x_p = p^(-1/D). Custom weights
keep a truncated walk with a certified geometric-polynomial tail bound.

The product of the regularized factors (1 - 1/p)^K W(x_p) reads the integer
Witt exponents c_j of (1 - x)^K W(x) = prod_j (1 - y^j)^(c_j), y = x^(1/D),
and zeta at s = j/D > 1 from one fixed-point helper (`_zeta_fixed`, P.
Borwein's series, exact integer roots at a non-integer s). With a_j the
coefficients of W in y, log[(1 - x)^K W(x)] = sum_j b_j y^j follows from
j b_j = j a_j - sum_(0<i<j) i b_i a_(j-i), which never reads a_0 = W(0) = 1,
less K/m at j = m D (`_log_terms`), and the c_j from
j b_j = -sum_(d|j) d c_d (`_witt_exponents`). Then one of two routes:

- finitely many c_j (`_zeta_exponents` finds and proves them): the product
  is exactly prod_j zeta(j/D)^(-c_j), Euler's product for zeta, with a
  proven rounding bound (`_zeta_product`), and no prime is read. Every full
  torus, two-variable hypersurface, (1,1,-2), (1,2,-3), the quadric
  (1,1,-1,-1) and the rows (1,-1,2,-2), (1,2,-1,-2) take it;
- every other weight, such as (1,1,1) or a custom weight: one pass over the
  primes p <= P (`_prime_pass`), in one thread and in fixed-point integers,
  evaluates every factor and prod_(p<=P) (1 - p^(-j/D)) for the j <=
  EXPANSION_DEPTH D. The primes past P give prod_j zeta_P(j/D)^(-c_j), with
  zeta_P(s) = zeta(s) prod_(p<=P) (1 - p^(-s)). `local_factor` and
  `keep_factors` read the same pass. The terms of an exact kind are read
  once, before the loop; a custom weight is truncated per prime.

The block products, the prime products and the zeta values are dyadic
integers; the correction -sum_j c_j ln zeta_P(j/D) and one exp are taken in
a local decimal context, about `precision` bits wide. So `LocalFactor.value`
is the exact Fraction of the fixed-point pass and `EulerReport.value` a
Decimal.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .generators import LatticePointSet, generators_with_check
# NonPositivePolar is raised by the support walk and importable from here
from .model import (InvariantError, NonPositivePolar,  # noqa: F401
                    UniformMultiplicativeSpec, polar_scale)
from .vectors import fracvec

DEFAULT_CUTOFF = 100_000
DEFAULT_PRECISION = 160
EXPANSION_DEPTH = 6             # Witt exponents j/D <= this correct the prime pass
MAX_LEVEL = 100_000             # required_level gives up beyond this |v|
# log partial sums are taken per block of primes, then added up: the block
# size fixes the rounding of every reported value
PRIME_BLOCK = 1024
# weights whose local series is N/Q in closed form; others are walked
EXACT_KINDS = ("toric", "hypersurface", "free")
# extra fixed-point bits beyond the precision and the cancellation in N
GUARD_BITS = 32
# extra decimal digits of the final exp beyond `precision` bits
GUARD_DIGITS = 8


def _odd_sieve(n: int) -> list:
    """The primes <= n, ascending, from a sieve of the odd numbers."""
    if n < 2:
        return []
    odd = bytearray([1]) * ((n + 1) // 2)     # odd[i] stands for 2i + 1
    odd[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes((len(odd) - 1 - start) // p + 1)
    return [2, *itertools.compress(range(1, n + 1, 2), odd)]


def primes_up_to(n: int) -> list:
    """The primes <= n, ascending. Other modules call `_odd_sieve`, so that
    a wrapper of this name times the Euler product's sieve alone."""
    return _odd_sieve(n)


@dataclass(frozen=True)
class LocalFactor:
    p: int
    value: Fraction        # the fixed-point factor m 2^-s, exactly
    tail_bound: float


@dataclass(frozen=True)
class EulerReport:
    value: decimal.Decimal
    cutoff: int
    K: int
    epsilon_gap: Fraction
    error_bound: float
    precision: int
    factors: Optional[tuple] = None
    method: str = "prime-pass"      # or "zeta-product"


@dataclass(frozen=True)
class RationalWeight:
    """W(x) = N(x) / prod_d (1 - x^d), exactly, in x = p^(-1/D), D = scale.

    numerator holds the nonzero (exponent, integer coefficient) terms of N,
    denominator one exponent d = D<c,h> per support generator h.
    """

    scale: int
    numerator: tuple
    denominator: tuple

    def series(self, top: int) -> list:
        """The power series coefficients of N/Q up to x^top."""
        out = [0] * (top + 1)
        for e, a in self.numerator:
            if e <= top:
                out[e] += a
        for d in self.denominator:
            for k in range(d, top + 1):
                out[k] += out[k - d]
        return out

    def truncation(self, p: int):
        """(numerator terms, denominator exponents, tail bound) at p: exact."""
        return self.numerator, self.denominator, 0.0


@functools.lru_cache(maxsize=32)
def _generator_points(spec: UniformMultiplicativeSpec) -> tuple:
    return generators_with_check(spec).points


def rational_weight(spec: UniformMultiplicativeSpec, c,
                    generators: Optional[LatticePointSet] = None) -> RationalWeight:
    """The exact N/Q of a matrix, hypersurface or free weight at polar vector c.

    Q comes from the unit vectors (free) or from the support generators,
    computed when none are given. N is the support walk to
    2 deg Q + D times Q; its coefficients past deg Q must vanish. A zero
    window of length L past deg Q makes W Q a polynomial of degree <= deg Q
    even if generators whose degrees add up to at most L were missing, so
    the closed form is then exact anyway; a nonzero one raises.
    """
    if spec.kind not in EXACT_KINDS:
        raise ValueError(f"no closed form for a {spec.kind} weight")
    scale = polar_scale(c)
    steps = [int(x * scale) for x in fracvec(c)]
    if spec.kind == "free":
        points = [tuple(int(i == j) for j in range(spec.arity)) for i in range(spec.arity)]
    elif generators is not None:
        points = generators.points
    else:
        points = _generator_points(spec)
    denominator = tuple(sorted(sum(s * x for s, x in zip(steps, h)) for h in points))
    deg_q = sum(denominator)
    top = 2 * deg_q + scale
    coeffs = [0] * (top + 1)
    for _, w, _, e in spec.support(c, max_expo=top):
        coeffs[e] += w
    for d in denominator:
        for k in range(top, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    extra = [k for k in range(deg_q + 1, top + 1) if coeffs[k]]
    if extra:
        raise InvariantError(
            f"W Q has a term x^{extra[0]} beyond deg Q = {deg_q}: the support "
            f"generators miss a factor of the denominator")
    return RationalWeight(scale=scale,
                          numerator=tuple((e, a) for e, a in enumerate(coeffs[:deg_q + 1]) if a),
                          denominator=denominator)


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

    The box walk of custom weights. The level drives the certified
    truncation: per prime only levels up to N(p) are summed and the
    remainder is bounded by C sum_(k>N) (1+k)^(M+n-1) p^(-k min c).
    Exponents stay integers in units of 1/D until they are evaluated.
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

    def truncation(self, p: int, tol: float):
        """(terms with |v| <= level, no denominator, tail bound) at p."""
        level = self.level_for(p, tol)
        terms = [(expo, w) for (lvl, expo), w in self.entries if lvl <= level]
        return terms, (), self.tail_bound(p, level)

    def series(self, top: int) -> list:
        """Total weight per D<c,v> up to top, over the whole profile."""
        out = [0] * (top + 1)
        for (_, expo), w in self.entries:
            if expo <= top:
                out[expo] += w
        return out


def required_level(spec: UniformMultiplicativeSpec, c, tol: float) -> int:
    """Smallest truncation level certified below tol at p = 2."""
    polar_scale(c)  # rejects a polar vector that is not strictly positive
    level = _first_level(spec, float(min(fracvec(c))), 2, tol, MAX_LEVEL)
    if level is None:
        raise ValueError("cannot certify truncation; polar vector too small")
    return level


def _series_source(spec: UniformMultiplicativeSpec, c, tol: float,
                   generators: Optional[LatticePointSet]):
    """The local series of spec at c and its per-prime truncation(p)."""
    if spec.kind in EXACT_KINDS:
        form = rational_weight(spec, c, generators)
        return form, form.truncation
    profile = WeightProfile(spec, c, required_level(spec, c, tol))
    return profile, lambda p: profile.truncation(p, tol)


def _layout(scale: int, truncation, precision: int, witt_powers=()):
    """(bits, top, step, ops) of the fixed-point evaluation at any prime.

    They are read from the terms at p = 2, the most any prime keeps, and
    from the Witt exponents witt_powers whose prime products the pass
    keeps: the top exponent, the gcd of D and every exponent, and the
    operations per factor. bits adds the guard and the worst cancellation
    in N, at p = 2, where N(x) >= Q(x) because W(x) >= W(0) = 1.
    """
    terms, den, _ = truncation(2)
    exps = [e for e, _ in terms] + list(den)
    top = max(exps + [1])
    mass = sum(abs(a) for _, a in terms) * 2 * (top + 1)
    inv_q = -sum(math.log2(1 - 2.0 ** (-d / scale)) for d in den)
    bits = precision + GUARD_BITS + math.ceil(math.log2(mass) + inv_q)
    return (bits, max([top, *witt_powers]), math.gcd(scale, *exps, *witt_powers),
            len(terms) + len(den) + 4)


def _x_fixed(p: int, scale: int, bits: int) -> int:
    """floor(2^bits p^(-1/scale)), exactly, by integer Newton steps from above."""
    if scale == 1:
        return (1 << bits) // p
    target = (1 << (bits * scale)) // p
    head = int(math.ldexp(p ** (-1.0 / scale), 60))
    x = (head + (head >> 30) + 1) << max(bits - 60, 0) >> max(60 - bits, 0)
    while True:
        y = ((scale - 1) * x + target // x ** (scale - 1)) // scale
        if y >= x:
            return x
        x = y


def _dyadic(m: int, shift: int) -> Fraction:
    """m 2^-shift, exactly."""
    return Fraction(m, 1 << shift) if shift >= 0 else Fraction(m << -shift)


def _to_decimal(x: Fraction, ctx: decimal.Context) -> decimal.Decimal:
    """x rounded once to the digits of ctx."""
    return ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))


def _prime_pass(source, truncation, plist, k_reg: int, layout,
                witt_powers=(), keep_factors: bool = False):
    """Every regularized factor (1 - 1/p)^k_reg N(x_p)/Q(x_p) over plist.

    One pass in fixed-point integers, with layout = _layout(...). Per prime,
    x_p^step = p^(-step/D) is one exact root, every further power one
    truncated product, and the factor a ratio m 2^-s with m of about `bits`
    bits. The terms of an exact kind are read once, as indices into those
    powers; only a custom weight calls truncation(p) per prime. Returns
    (blocks, partial, tail_sum, factors):
    - blocks: one (m, s) per PRIME_BLOCK primes, their product m 2^-s,
      truncated to `bits` bits after every factor;
    - partial: j -> prod_p (1 - x_p^j) 2^bits for every j in witt_powers,
      rounded to `bits` bits after every factor;
    - tail_sum: sum_p tail(p) / N(x_p), 0.0 for exact kinds;
    - factors: a LocalFactor per prime with keep_factors, else None.
    """
    bits, top, step, _ = layout
    root = source.scale // step
    one = 1 << bits
    count = top // step
    exact = isinstance(source, RationalWeight)

    def indexed(p):
        terms, den, tail = truncation(p)
        # equal factors of Q as one power: the integer product is the same
        return ([(e // step, a) for e, a in terms],
                [(d // step, den.count(d)) for d in sorted(set(den))],
                bits * len(den), tail)

    if exact:
        terms, den, den_shift, tail = indexed(2)
    # prods[i] = prod_p (1 - x_p^(i step)) 2^bits for the powers i in span
    span = sorted({j // step for j in witt_powers})
    prods = [one] * (count + 1)
    blocks = []
    factors = [] if keep_factors else None
    tail_sum = 0.0
    for start in range(0, len(plist), PRIME_BLOCK):
        block, block_shift = 1, 0      # the block product is block 2^-block_shift
        for p in plist[start:start + PRIME_BLOCK]:
            y = one // p if root == 1 else _x_fixed(p, root, bits)
            powers = [one]
            power = one
            for _ in range(count):
                power = power * y >> bits
                powers.append(power)
            for i in span:
                prods[i] -= prods[i] * powers[i] >> bits
            if not exact:
                terms, den, den_shift, tail = indexed(p)
            num = 0
            for e, a in terms:
                num += a * powers[e]
            q = 1
            for d, k in den:
                q *= (one - powers[d]) ** k
            upper = num * (p - 1) ** k_reg << den_shift
            lower = q * p ** k_reg << bits
            shift = bits + lower.bit_length() - upper.bit_length()
            m = (upper << shift) // lower if shift >= 0 else upper // (lower << -shift)
            if tail:
                tail_sum += tail / (num / one)
            if factors is not None:
                factors.append(LocalFactor(p=p, value=_dyadic(m, shift), tail_bound=tail))
            block *= m
            block_shift += shift
            excess = block.bit_length() - bits
            if excess > 0:
                block >>= excess
                block_shift -= excess
        blocks.append((block, block_shift))
    partial = {j: prods[j // step] for j in witt_powers}
    return blocks, partial, tail_sum, factors


def local_factor(spec: UniformMultiplicativeSpec, c, p: int, tol: float = 1e-12,
                 precision: int = DEFAULT_PRECISION,
                 generators: Optional[LatticePointSet] = None) -> LocalFactor:
    """The local series sum_v g(v) p^(-<v,c>) at prime p.

    Exact for matrix, hypersurface and free weights (tail_bound 0.0); a
    custom weight is walked to the level certified below tol.
    """
    source, truncation = _series_source(spec, c, tol, generators)
    layout = _layout(source.scale, truncation, precision)
    [factor] = _prime_pass(source, truncation, [p], 0, layout, keep_factors=True)[3]
    return factor


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


def _log_terms(coeffs: list, k_reg: int, scale: int):
    """Yield (j, j b_j) in integers, j = D+1..top, one at a time, with
    log[(1 - x)^K W(x)] = sum_j b_j x^(j/D), D = scale.

    coeffs holds a_0..a_top of W in y = x^(1/D). The log of W comes from the
    power-series recurrence j b_j = j a_j - sum_(0<i<j) i b_i a_(j-i), in
    integers i b_i and over the nonzero a only; a_0 = W(0) = 1 is not read.
    Then log (1 - x)^K takes K/m off b_j at j = m D. The b_j with j <= D must
    vanish (the face weight equals K), otherwise the product has no finite
    regularized limit: that raises before the first yield.
    """
    terms = [(k, a) for k, a in enumerate(coeffs) if k and a]
    jb = [0] * len(coeffs)          # jb[j] = j b_j of log W, an integer
    bad = []
    for j in range(1, len(coeffs)):
        jb[j] = j * coeffs[j] - sum(jb[j - k] * a for k, a in terms if k < j)
        x = jb[j] - (0 if j % scale else k_reg * scale)
        if j > scale:
            yield j, x
        elif x:
            bad.append(Fraction(j, scale))
        if bad and j == min(scale, len(coeffs) - 1):
            raise ValueError(
                f"face weight inconsistent with K={k_reg}: surviving exponents {bad}")


def _witt_exponents(coeffs: list, k_reg: int, scale: int, limit=math.inf) -> Optional[dict]:
    """{j: c_j} over j <= top with (1 - y^D)^K W = prod_j (1 - y^j)^(c_j) to y^top.

    coeffs holds a_0..a_top of W in y = x^(1/D). The c_j follow from the
    log series (`_log_terms`) by j b_j = -sum_(d|j) d c_d, a Moebius
    inversion in integers, one j at a time. With a limit, None as soon as
    sum_j j |c_j| passes it.
    """
    jc = [0] * len(coeffs)    # -j b_j less sum_(d|j, d<j) d c_d: j c_j once reached
    weight = 0
    for j, x in _log_terms(coeffs, k_reg, scale):
        jc[j] -= x
        if jc[j]:
            weight += abs(jc[j])
            if weight > limit:
                return None
            for m in range(2 * j, len(jc), j):
                jc[m] -= jc[j]
    return {j: x // j for j, x in enumerate(jc) if x}


def _witt_candidates(form: RationalWeight, k_reg: int) -> Optional[dict]:
    """{j: c_j} over j <= L with (1 - y^D)^K N/Q = prod_j (1 - y^j)^(c_j), or None.

    y = x^(1/D) and L = deg (1 - y^D)^K N Q. A finite product within that
    degree has sum_j j |c_j| <= L, so the series gives up (None) once the
    sum passes L. The window only decides whether the zeta product is
    tried; `_witt_identity` is the proof.
    """
    top = k_reg * form.scale + form.numerator[-1][0] + sum(form.denominator)
    return _witt_exponents(form.series(top), k_reg, form.scale, limit=top)


def _witt_identity(form: RationalWeight, k_reg: int, exponents: dict) -> bool:
    """Whether (1 - y^D)^K N prod_(c_j<0) (1 - y^j)^(-c_j) equals
    Q prod_(c_j>0) (1 - y^j)^(c_j) as integer polynomials."""
    def times(poly, factors):       # poly times prod (1 - y^j) over factors
        for j in factors:
            poly = poly + [0] * j
            for i in range(len(poly) - 1, j - 1, -1):
                poly[i] -= poly[i - j]
        return poly

    coeffs = [0] * (form.numerator[-1][0] + 1)
    for e, a in form.numerator:
        coeffs[e] = a
    lower = [form.scale] * k_reg + [j for j, x in exponents.items() for _ in range(-x)]
    upper = list(form.denominator) + [j for j, x in exponents.items() for _ in range(x)]
    return times(coeffs, lower) == times([1], upper)


def _zeta_exponents(form: RationalWeight, k_reg: int) -> Optional[dict]:
    """{s: c_j} over s = j/D with E = prod zeta(s)^(-c_j) exactly, or None
    when the candidates fail the identity."""
    exponents = _witt_candidates(form, k_reg)
    if exponents is None or not _witt_identity(form, k_reg, exponents):
        return None
    return {Fraction(j, form.scale): x for j, x in exponents.items()}


@functools.lru_cache(maxsize=8)
def _borwein_weights(n: int) -> tuple:
    """d_0..d_n of P. Borwein's zeta series, d_i = n sum_(j<=i) (n+j-1)! 4^j /
    ((n-j)! (2j)!), in exact integers."""
    d, total, term = [], 0, 1
    for j in range(n + 1):
        total += term
        d.append(total)
        # exact: term_(j+1) (2j+1)(j+1) = term_j 2(n+j)(n-j)
        term = term * 2 * (n + j) * (n - j) // ((2 * j + 1) * (j + 1))
    return tuple(d)


# zeta at several s of one denominator reads the same roots
_root_fixed = functools.lru_cache(maxsize=4096)(_x_fixed)


def _power_fixed(m: int, s: Fraction, bits: int) -> int:
    """floor(2^bits m^(-s)) at a rational s >= 0, exactly: the root of
    m^(s - q) (`_x_fixed`), then one floored division by m^q, q = floor(s)."""
    q, r = divmod(s.numerator, s.denominator)
    return _root_fixed(m ** r, s.denominator, bits) // m ** q


def _zeta_units(s) -> int:
    """The units of 2^-bits within which `_zeta_fixed` reads zeta(s):
    1 + max(2, ceil(1 / (1 - 2^(1-s)))), so 3 at every s >= 2, growing
    like 1/(s - 1) towards s = 1."""
    return 1 + max(2, math.ceil(1 / (1 - 2.0 ** (1 - s))))


def _zeta_fixed(s, bits: int) -> int:
    """An integer within _zeta_units(s) of 2^bits zeta(s), at a rational s > 1.

    P. Borwein's alternating series (An efficient algorithm for the Riemann
    zeta function, 2000): zeta(s) (1 - 2^(1-s)) d_n = sum_(i<n)
    (-1)^i (d_n - d_i) / (i+1)^s (`_borwein_weights`), up to
    3 (3 + sqrt 8)^(-n) r in zeta(s), r = 1 / (1 - 2^(1-s)): 3 r / 8 units
    once 2^(2.54 n) >= 2^(bits+3). At an integer s the n floored terms
    cost under n r / d_n < 1 unit after the division, and its floor one
    more. At any other s, (i+1)^(-s) and 2^(1-s) are floored exactly
    (`_power_fixed`) at `guard` more bits, with 2^guard > 4 (n + b) for
    s = a/b; as zeta(s) < 1 + b, these floors cost under r / 3 units, so
    the whole stays within 1 + 3 r / 8 + r / 3 < 1 + r.
    """
    s = Fraction(s)
    n = -(-(bits + 3) * 50 // 127)
    d = _borwein_weights(n)
    if s.denominator == 1:
        k = s.numerator
        series = 0
        for i in range(n):
            term = ((d[n] - d[i]) << bits) // (i + 1) ** k
            series += -term if i & 1 else term
        return (series << (k - 1)) // (d[n] * ((1 << (k - 1)) - 1))
    wide = bits + (n + s.denominator).bit_length() + 2
    series = 0
    for i in range(n):
        term = (d[n] - d[i]) * _power_fixed(i + 1, s, wide)
        series += -term if i & 1 else term
    return (series << bits) // (d[n] * ((1 << wide) - _power_fixed(2, s - 1, wide)))


def _zeta_product(zetas: dict, precision: int):
    """(E, error bound) of E = prod_s zeta(s)^(-c_s) over zetas = {s: c_s}.

    Each zeta(s) >= 1 is read to bits = precision + GUARD_BITS, within a
    relative u_s 2^-bits with u_s = `_zeta_units`(s), so the factors are
    within 2 m 2^-bits of E relatively, m = sum u_s |c_s| (as long as
    m 2^-bits <= 1/2). Rounding to the decimal context adds below
    10^(1-digits) / 2 relatively; the bound takes 10^(1-digits), whose
    other half covers the cross terms and the float evaluation of the
    bound. Past about 1000 bits that bound underflows, and the smallest
    positive float stands for it.
    """
    bits = precision + GUARD_BITS
    num = den = 1
    for s, x in zetas.items():
        if x > 0:
            den *= _zeta_fixed(s, bits) ** x
        else:
            num *= _zeta_fixed(s, bits) ** -x
    ctx = _context(precision)
    value = _to_decimal(Fraction(num, den) * _dyadic(1, -bits * sum(zetas.values())), ctx)
    units = sum(_zeta_units(s) * abs(x) for s, x in zetas.items())
    rel = math.ldexp(2 * units, -bits) + 10.0 ** (1 - ctx.prec)
    return value, max(float(value) * rel, math.ulp(0.0))


def _context(precision: int) -> decimal.Context:
    """The decimal context of a reported value: `precision` bits and GUARD_DIGITS."""
    return decimal.Context(prec=math.ceil(precision * math.log10(2)) + GUARD_DIGITS)


def euler_constant(spec: UniformMultiplicativeSpec, c, k_reg: int,
                   cutoff: int = DEFAULT_CUTOFF, tol: float = 1e-10,
                   precision: int = DEFAULT_PRECISION,
                   generators: Optional[LatticePointSet] = None,
                   keep_factors: bool = False) -> EulerReport:
    """The regularized product over primes, from zeta values or a prime pass.

    A matrix, hypersurface or free weight with a finite zeta product
    (`_zeta_exponents`) reports it (method "zeta-product"), and the cutoff
    only limits the factors listed with keep_factors. Every other weight
    takes the prime pass, whose primes past the cutoff are corrected by
    zeta_P at the Witt exponents up to the expansion depth (method
    "prime-pass"). Its reported error combines the correction remainder
    beyond the expansion depth, a rounding envelope scaled to the
    operations per factor, and, for custom weights only, the per-prime
    truncation budget tol/(4 #primes). With keep_factors, every regularized
    local factor is kept in the same pass over the primes.
    """
    gap = epsilon_gap(generators, c) if generators is not None else Fraction(1)
    form = rational_weight(spec, c, generators) if spec.kind in EXACT_KINDS else None
    zetas = _zeta_exponents(form, k_reg) if form is not None else None
    if zetas is not None:
        value, err = _zeta_product(zetas, precision)
        factors = None
        if keep_factors:
            layout = _layout(form.scale, form.truncation, precision)
            factors = tuple(_prime_pass(form, form.truncation, primes_up_to(cutoff),
                                        k_reg, layout, keep_factors=True)[3])
        return EulerReport(value=value, cutoff=cutoff, K=k_reg, epsilon_gap=gap,
                           error_bound=err, precision=precision, factors=factors,
                           method="zeta-product")

    plist = primes_up_to(cutoff)
    nprimes = len(plist)
    tol_pp = tol / (4 * max(nprimes, 1))
    source, truncation = ((form, form.truncation) if form is not None
                          else _series_source(spec, c, tol_pp, generators))
    scale = source.scale
    coeffs = source.series(EXPANSION_DEPTH * scale)
    # the primes past the cutoff give prod_j zeta_P(j/D)^(-c_j), with
    # zeta_P(s) = zeta(s) prod_(p <= cutoff) (1 - p^(-s)) and the pass
    # keeping those products
    witt = _witt_exponents(coeffs, k_reg, scale)
    layout = _layout(scale, truncation, precision, witt)
    bits, ops = layout[0], layout[3]
    blocks, partial, tail_sum, factors = _prime_pass(
        source, truncation, plist, k_reg, layout, witt, keep_factors)
    product = _dyadic(math.prod(m for m, _ in blocks), sum(s for _, s in blocks))
    ctx = _context(precision)
    correction = decimal.Decimal(0)
    for j, x in witt.items():
        zeta_p = _dyadic(_zeta_fixed(Fraction(j, scale), bits) * partial[j], 2 * bits)
        correction = ctx.subtract(correction, ctx.multiply(x, ctx.ln(_to_decimal(zeta_p, ctx))))
    value = ctx.multiply(_to_decimal(product, ctx), ctx.exp(correction))
    # everything past the expansion depth is bounded by a crude integral
    depth_f = float(EXPANSION_DEPTH)
    mass = 1.0 + float(sum(abs(a) for a in coeffs[1:])) + k_reg
    remainder = (mass ** 2) * cutoff ** (1.0 - depth_f) / (depth_f - 1.0)
    rounding = nprimes * ops * math.ldexp(1.0, -precision + 4)
    err = float(value) * (tail_sum + remainder + rounding) + remainder

    return EulerReport(value=value, cutoff=cutoff, K=k_reg, epsilon_gap=gap,
                       error_bound=err, precision=precision,
                       factors=tuple(factors) if factors is not None else None,
                       method="prime-pass")


def zeta_float(k: int) -> float:
    """The Riemann zeta value zeta(k) at an integer k >= 2, rounded to a float once.

    `_zeta_fixed` at DEFAULT_PRECISION bits, within 3 of them, then one
    correctly rounded integer division.
    """
    if k < 2:
        raise ValueError("zeta_float needs an integer k >= 2")
    return _zeta_fixed(k, DEFAULT_PRECISION) / (1 << DEFAULT_PRECISION)
