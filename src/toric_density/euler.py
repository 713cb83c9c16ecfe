"""Euler products of uniform multiplicative weights at the normalized polar vector.

For matrix, hypersurface and free weights every local factor is exact. The
support is a union of coordinate faces of saturated affine monoids whose
Hilbert bases lie among the support generators, so by Hilbert--Serre
W(x) = sum_v g(v) x^(D<c,v>) = N(x)/Q(x) with Q = prod_h (1 - x^(D<c,h>))
over the generators h and deg N <= deg Q (Miller--Sturmfels, Combinatorial
Commutative Algebra, ch. 12). N comes from a short support walk times Q, and
the local factor at p is N(x_p)/Q(x_p) with x_p = p^(-1/D). Custom weights
keep a truncated walk with a certified geometric-polynomial tail bound.

The product of the regularized factors (1 - 1/p)^K W(x_p) takes one of two
routes. Write (1 - x)^K W(x) = prod_j (1 - y^j)^(c_j), y = x^(1/D), with
the integer Witt exponents c_j. When finitely many are nonzero, all at
j = k D, the product is exactly prod_k zeta(k)^(-c_(kD)) (Euler's product
for zeta): `_zeta_exponents` finds and proves them, and `_zeta_product`
evaluates it with a proven rounding bound. No prime is read. Every full
torus, two-variable hypersurface, (1,1,-2), (1,2,-3) and the quadric
(1,1,-1,-1) take this route.

Every other weight (infinitely many c_j, as for (1,1,1), an exponent at a
non-integer j/D, or a custom weight) takes the prime pass. The regularized
factors tend to 1 like p^(-(1+eps)), and the product over primes beyond
the cutoff is corrected through the prime zeta function applied to
log[(1 - x)^K W(x)] = sum_j b_j x^(j/D), over the integer exponents
j <= EXPANSION_DEPTH D. With a_j the coefficients of W in x^(1/D), the b_j
follow from the power-series recurrence j b_j = j a_j -
sum_(0<i<j) i b_i a_(j-i), which never reads a_0 = W(0) = 1, less K/m at
j = m D (`_log_factor_expansion`). One pass over the primes (`_prime_pass`),
in one thread and in fixed-point integers, evaluates every factor and the
partial prime sums that correction needs; `local_factor` and `keep_factors`
read the same pass. The terms of an exact kind are read once, before the
loop; a custom weight is truncated per prime.

The assembly stays exact as far as it can: the block products and the
partial sums are dyadic integers, the correction sum_j b_j (P(j/D) -
partial_j) is a Fraction, and one exp in a local decimal context, about
`precision` bits wide, gives the value. So `LocalFactor.value` is the exact
Fraction of the fixed-point pass and `EulerReport.value` a Decimal. The
prime zeta values P(n) at integer n = 2..6 come from a table kept to
PRIME_ZETA_BITS bits; mpmath is imported only for mp.primezeta at other
exponents or at a higher working precision.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
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
EXPANSION_DEPTH = 6             # exponents kept in the log-factor expansion
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
# P(n) = sum_p p^(-n) at the integer exponents 2 <= n <= EXPANSION_DEPTH,
# the only ones the log expansion of every problem tried so far reads:
# mp.primezeta at 700 bits, kept to 200 digits, so good to PRIME_ZETA_BITS
# bits. At 160 bits one mp.primezeta call takes about as long as the
# prime loop to 5000, and importing mpmath longer than that.
PRIME_ZETA_BITS = 640
PRIME_ZETA = {
    2: "0.4522474200410654985065433648322479341732313432398924"
       "217364189303511650273639108744489575443549068582228062"
       "276669206310191740295043337534894547974809304821625666"
       "8255972413163286426729409931685353298559",
    3: "0.1747626392994435364231133146657067009754121219261492"
       "898886720167016315895281295876356342005369725605467910"
       "672277642496666845112160320244516618039306388941122020"
       "2367732485350131983568781749342391781432",
    4: "0.0769931397642468449426192959331578701620410597148431"
       "902649380088592165704875642065103331067853962895420291"
       "064188287288728654003973024769057459215026566097256010"
       "64140610588432841102303452007363610270301",
    5: "0.0357550174839242571328182425388557111316972767266513"
       "316900926748239758342747279313660728064703767950896396"
       "090984573170347370451201706643571300385368811906689046"
       "18957015358122913191518817450057794467753",
    6: "0.0170700868506365129541336732660593992095859418745442"
       "447331633688369697367471724366718603500781806230288231"
       "363175320366099991709744747411966349053193115515587652"
       "58657749456216747408148948421877123388346",
}


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


def _layout(scale: int, truncation, precision: int, zeta_powers=()):
    """(bits, top, step, ops) of the fixed-point evaluation at any prime.

    They are read from the terms at p = 2, the most any prime keeps, and
    from the powers zeta_powers of the prime zeta sums: the top exponent,
    the gcd of D and every exponent, and the operations per factor. bits
    adds the guard and the worst cancellation in N, at p = 2, where
    N(x) >= Q(x) because W(x) >= W(0) = 1.
    """
    terms, den, _ = truncation(2)
    exps = [e for e, _ in terms] + list(den)
    top = max(exps + [1])
    mass = sum(abs(a) for _, a in terms) * 2 * (top + 1)
    inv_q = -sum(math.log2(1 - 2.0 ** (-d / scale)) for d in den)
    bits = precision + GUARD_BITS + math.ceil(math.log2(mass) + inv_q)
    return (bits, max([top, *zeta_powers]), math.gcd(scale, *exps, *zeta_powers),
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
                zeta_powers=(), keep_factors: bool = False):
    """Every regularized factor (1 - 1/p)^k_reg N(x_p)/Q(x_p) over plist.

    One pass in fixed-point integers, with layout = _layout(...). Per prime,
    x_p^step = p^(-step/D) is one exact root, every further power one
    truncated product, and the factor a ratio m 2^-s with m of about `bits`
    bits. The terms of an exact kind are read once, as indices into those
    powers; only a custom weight calls truncation(p) per prime. Returns
    (blocks, partial, tail_sum, factors):
    - blocks: one (m, s) per PRIME_BLOCK primes, their product m 2^-s,
      truncated to `bits` bits after every factor;
    - partial: j -> sum_p x_p^j 2^bits for every j in zeta_powers;
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
    # sum_p x_p^(i step) 2^bits, up to the last power a zeta sum reads
    sums = [0] * (max(zeta_powers, default=0) // step + 1)
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
            sums = list(map(operator.add, sums, powers))
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
    partial = {j: sums[j // step] for j in zeta_powers}
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


def _round_bits(x: Fraction, bits: int) -> Fraction:
    """x > 0 rounded to `bits` significant bits, ties to even, as mpmath rounds."""
    n, d = x.numerator, x.denominator
    shift = bits - n.bit_length() + d.bit_length()
    while True:
        num, den = (n << shift, d) if shift >= 0 else (n, d << -shift)
        m, r = divmod(num, den)
        if m.bit_length() <= bits:
            break
        shift -= 1
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    return _dyadic(m, shift)


def _prime_zeta(e: Fraction, precision: int) -> Fraction:
    """P(e) = sum_p p^(-e) rounded to `precision` bits.

    The stored value where there is one, else mp.primezeta: the one place
    the package imports mpmath.
    """
    if e.denominator == 1 and e.numerator in PRIME_ZETA and precision <= PRIME_ZETA_BITS:
        return _round_bits(Fraction(PRIME_ZETA[e.numerator]), precision)
    import mpmath as mp
    with mp.workprec(precision):
        man, exp = mp.primezeta(mp.mpf(e.numerator) / e.denominator).man_exp
    return _dyadic(man, -exp)


def _log_factor_expansion(coeffs: list, k_reg: int, scale: int) -> dict:
    """{j: b_j} with log[(1 - x)^K W(x)] = sum_j b_j x^(j/D), D = scale.

    coeffs holds a_0..a_top of W in y = x^(1/D), and j runs over the
    integers 1..top. The log of W comes from the power-series recurrence
    j b_j = j a_j - sum_(0<i<j) i b_i a_(j-i), in integers i b_i and over
    the nonzero a only; a_0 = W(0) = 1 is not read. Then log (1 - x)^K
    takes K/m off b_j at j = m D. Only nonzero b_j are kept. The b_j with j <= D must vanish
    (the face weight equals K), otherwise the product has no finite
    regularized limit.
    """
    terms = [(k, a) for k, a in enumerate(coeffs) if k and a]
    jb = [0] * len(coeffs)          # jb[j] = j b_j of log W, an integer
    out = {}
    for j in range(1, len(coeffs)):
        jb[j] = j * coeffs[j] - sum(jb[j - k] * a for k, a in terms if k < j)
        b = Fraction(jb[j] - (0 if j % scale else k_reg * scale), j)
        if b:
            out[j] = b
    bad = [Fraction(j, scale) for j in out if j <= scale]
    if bad:
        raise ValueError(
            f"face weight inconsistent with K={k_reg}: surviving exponents {bad}")
    return out


def _witt_candidates(form: RationalWeight, k_reg: int) -> Optional[dict]:
    """{j: c_j} over j <= L with (1 - y^D)^K N/Q = prod_j (1 - y^j)^(c_j), or None.

    y = x^(1/D) and L = deg (1 - y^D)^K N Q. The c_j follow from the log
    series (`_log_factor_expansion`) by j b_j = -sum_(d|j) d c_d. The sum of
    j |c_j| over the exponents found so far only grows, so the walk gives
    up (None) once it passes L. The window only decides whether the zeta
    product is tried; `_witt_identity` is the proof.
    """
    scale = form.scale
    top = k_reg * scale + form.numerator[-1][0] + sum(form.denominator)
    jc = [0] * (top + 1)      # -j b_j less sum_(d|j, d<j) d c_d: j c_j once reached
    for j, b in _log_factor_expansion(form.series(top), k_reg, scale).items():
        jc[j] = -int(j * b)
    total = 0
    for j in range(1, top + 1):
        if jc[j]:
            for m in range(2 * j, top + 1, j):
                jc[m] -= jc[j]
            total += abs(jc[j])
            if total > top:
                return None
    return {j: x // j for j, x in enumerate(jc) if x}


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
    """{k: c_(kD)} with E = prod_k zeta(k)^(-c_(kD)) exactly, or None when
    the candidates fail or one sits at a non-integer j/D."""
    exponents = _witt_candidates(form, k_reg)
    scale = form.scale
    if (exponents is None or not _witt_identity(form, k_reg, exponents)
            or any(j % scale for j in exponents)):
        return None
    return {j // scale: x for j, x in exponents.items()}


def _zeta_fixed(k: int, bits: int) -> int:
    """An integer within 3 of 2^bits zeta(k), at an integer k >= 2.

    P. Borwein's alternating series (An efficient algorithm for the Riemann
    zeta function, 2000): zeta(k) (1 - 2^(1-k)) d_n = sum_(i<n)
    (-1)^i (d_n - d_i) / (i+1)^k with d_i = n sum_(j<=i) (n+j-1)! 4^j /
    ((n-j)! (2j)!), up to 3 (3 + sqrt 8)^(-n) / (1 - 2^(1-k)) in zeta(k):
    one unit once 2^(2.54 n) >= 2^(bits+3). The n floored terms cost under
    2n / d_n < 1 unit after the division, and its floor one more.
    """
    n = -(-(bits + 3) * 50 // 127)
    d, total, term = [], 0, 1
    for j in range(n + 1):
        total += term
        d.append(total)
        # exact: term_(j+1) (2j+1)(j+1) = term_j 2(n+j)(n-j)
        term = term * 2 * (n + j) * (n - j) // ((2 * j + 1) * (j + 1))
    series = 0
    for i in range(n):
        term = ((d[n] - d[i]) << bits) // (i + 1) ** k
        series += -term if i & 1 else term
    return (series << (k - 1)) // (d[n] * ((1 << (k - 1)) - 1))


def _zeta_product(zetas: dict, precision: int):
    """(E, error bound) of E = prod_k zeta(k)^(-c_k) over zetas = {k: c_k}.

    Each zeta(k) >= 1 is read to bits = precision + GUARD_BITS, within a
    relative 3 2^-bits, so the m = sum |c_k| factors are within 6 m 2^-bits
    of E relatively (as long as 3 m 2^-bits <= 1/2). Rounding to the
    decimal context adds below 10^(1-digits) / 2 relatively; the bound takes
    10^(1-digits), whose other half covers the cross terms and the float
    evaluation of the bound. Past about 1000 bits that bound underflows,
    and the smallest positive float stands for it.
    """
    bits = precision + GUARD_BITS
    num = den = 1
    for k, x in zetas.items():
        if x > 0:
            den *= _zeta_fixed(k, bits) ** x
        else:
            num *= _zeta_fixed(k, bits) ** -x
    ctx = _context(precision)
    value = _to_decimal(Fraction(num, den) * _dyadic(1, -bits * sum(zetas.values())), ctx)
    rel = math.ldexp(6 * sum(map(abs, zetas.values())), -bits) + 10.0 ** (1 - ctx.prec)
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
    takes the prime pass with a prime-zeta tail correction (method
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
    series = _log_factor_expansion(coeffs, k_reg, scale)
    # the prime zeta correction reads sum_(p <= cutoff) x_p^j
    zeta_powers = sorted(series)
    layout = _layout(scale, truncation, precision, zeta_powers)
    bits, ops = layout[0], layout[3]
    blocks, partial, tail_sum, factors = _prime_pass(
        source, truncation, plist, k_reg, layout, zeta_powers, keep_factors)
    product = _dyadic(math.prod(m for m, _ in blocks), sum(s for _, s in blocks))
    correction = sum((coef * (_prime_zeta(Fraction(j, scale), precision)
                              - _dyadic(partial[j], bits))
                      for j, coef in sorted(series.items())), Fraction(0))
    ctx = _context(precision)
    value = ctx.multiply(_to_decimal(product, ctx), ctx.exp(_to_decimal(correction, ctx)))
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
