"""The benchmark's workloads: CLI commands with a reference for every output.

Every workload is a list of `Command`s from two command sets (`group`).
Each command runs in a fresh interpreter exactly as a user would type it
after `toric-density`; its `check` takes the parsed JSON report and
returns None or a reason it is wrong. References are computed here, before any timing starts, from closed
forms or exact integer formulas that share no code with the package. Where
no independent value exists, the reference is the program's own output,
recorded at the commit that added this benchmark.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

SQUARES3 = "X1^2+X2^2+X3^2"
SQUARES4 = "X1^2+X2^2+X3^2+X4^2"

# 1/zeta(3); 1/zeta(2) is 6/pi^2
INV_ZETA3 = 0.83190737258070746868312627
# (1,1,1) at c = (1/3,1/3,1/3): prod_p (1-1/p)^7 (1+7/p+1/p^2), mpmath at
# 200 bits (Heath-Brown--Moroz / de la Breteche factor for x1x2x3 = x4^3)
EULER_111 = 0.00131764115485317810981735
# (1,1,1) volume constant of X1^2+..+X4^2 by log-substituted tanh-sinh,
# stable to about six digits
VOLUME_111 = 0.00170909
VOLUME_111_UNCERTAINTY = 5e-9
# recorded output of count --hypersurface 1,1,1 --sup-norm --t 600
COUNT_111_SUP_600 = 47404
ZETA_TABLE = os.path.join(HERE, "zeta_reference.json")

JITTER_T = 0.02            # counts: t moves by up to 2%
JITTER_S_STEPS = range(-3, 4)  # zeta: s moves in steps of 1%, up to 3%


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable[[dict], Optional[str]]
    # the command set it belongs to; GROUP_LAYER names the layer it exercises
    group: str


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[int], list]


# ---- independent references -------------------------------------------

def mobius_upto(n: int) -> list:
    mu = [1] * (n + 1)
    composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for k in range(2 * p, n + 1, p):
            composite[k] = True
        for k in range(p, n + 1, p):
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return mu


def projective_sup_count(n: int, t: int) -> int:
    """Points of the torus of P^n with sup height <= t: 2^n sum mu(d) [t/d]^(n+1)."""
    mu = mobius_upto(t)
    return 2 ** n * sum(mu[d] * (t // d) ** (n + 1) for d in range(1, t + 1))


def conic_sup_count(t: int) -> int:
    """x1 x2 = x3^2: primitive points are (w1^2, w2^2, w1 w2) with coprime w,
    two sign classes; sup height <= t means w1, w2 <= sqrt(t)."""
    m = math.isqrt(t)
    mu = mobius_upto(m)
    return 2 * sum(mu[d] * (m // d) ** 2 for d in range(1, m + 1))


def conic_squares_count(t: int) -> int:
    """The same points under sqrt(x1^2+x2^2+x3^2) <= t."""
    m = math.isqrt(t)
    return 2 * sum(1 for a in range(1, m + 1) for b in range(1, m + 1)
                   if math.gcd(a, b) == 1 and a ** 4 + b ** 4 + a * a * b * b <= t * t)


def criterion6_oracle() -> float:
    """(1,1) with X1^2+X2^2+X3^2: 6/pi^2 times the angular integral of
    (cos^4 + sin^4 + cos^2 sin^2)^(-1/2), by composite Simpson."""
    def f(th):
        c, s = math.cos(th), math.sin(th)
        return (c ** 4 + s ** 4 + c * c * s * s) ** -0.5
    n = 4000
    h = (math.pi / 2) / n
    total = f(0.0) + f(math.pi / 2)
    total += sum((4 if k % 2 else 2) * f(k * h) for k in range(1, n))
    return 6 / math.pi ** 2 * total * h / 3


# ---- checks -------------------------------------------------------------

def euler_check(reference: float):
    def check(out):
        e = out["euler"]
        err = abs(float(e["value_str"]) - reference)
        if err > e["error_bound"]:
            return f"euler {e['value_str']} misses {reference} by {err:.3g} > bound {e['error_bound']:.3g}"
        return None
    return check


def constant_check(oracle: float):
    def check(out):
        lead = out["leading_constant"]
        err = abs(lead - oracle)
        budget = lead * out["rel_error"] + 1e-9
        if err > budget or err >= 1e-5:
            return f"constant {lead} misses oracle {oracle} by {err:.3g}"
        return None
    return check


def volume_check(out):
    vol = out["volume_constant"]
    err = abs(vol["value"] - VOLUME_111)
    if err > vol["abs_error"] + VOLUME_111_UNCERTAINTY:
        return f"volume {vol['value']} misses {VOLUME_111} by {err:.3g}"
    return None


def verify_check(expected: dict):
    """expected: {t as int: count}; the report must also pass its own checks."""
    def check(out):
        if not out.get("ok"):
            return "verify reported a failed check"
        got = {math.floor(Fraction(str(row["t"]))): row["count"]
               for row in out["table"]}
        if got != expected:
            return f"verify counts {got} != {expected}"
        return None
    return check


def count_check(expected: int):
    def check(out):
        got = [r["count"] for r in out["results"]]
        if got != [expected]:
            return f"count {got} != [{expected}]"
        return None
    return check


def zeta_check(expected: list, rel: float = 1e-9):
    """expected: the recorded samples, compared field by field."""
    def check(out):
        got = out["samples"]
        if len(got) != len(expected):
            return f"{len(got)} zeta samples, expected {len(expected)}"
        for g, e in zip(got, expected):
            for key in ("s", "partial", "tail_estimate", "value", "probe"):
                if not math.isclose(g[key], e[key], rel_tol=rel, abs_tol=1e-300):
                    return f"zeta {key} at s={e['s']}: {g[key]} != {e[key]}"
        return None
    return check


# ---- workloads ------------------------------------------------------------

def _jitter_t(rng, t: int) -> int:
    return rng.randint(round(t * (1 - JITTER_T)), round(t * (1 + JITTER_T)))


def _jitter_s(rng, s_values) -> list:
    return [f"{s * (1 + rng.choice(JITTER_S_STEPS) / 100):.4f}" for s in s_values]


def arith(seed: int) -> list:
    # `constants --euler` refuses to run without --polynomial, although the
    # Euler product never uses it; the commands pass one to get past that.
    euler = ("constants", "--euler", "--prime-cutoff", "5000")
    return [
        Command(euler + ("--hypersurface", "1,1,1", "--polynomial", SQUARES4,
                         "--euler-tol", "1e-8"),
                euler_check(EULER_111), "arith"),
        Command(euler + ("--matrix", "1,1,-2", "--polynomial", SQUARES3),
                euler_check(6 / math.pi ** 2), "arith"),
        Command(euler + ("--projective-torus", "2", "--polynomial", SQUARES3),
                euler_check(INV_ZETA3), "arith"),
        Command(("constants", "--hypersurface", "1,1", "--polynomial", SQUARES3),
                constant_check(criterion6_oracle()), "arith"),
    ]


def counts(seed: int) -> list:
    rng = random.Random(seed)
    threads = ("--threads", "2")
    t1, t2 = _jitter_t(rng, 7000), _jitter_t(rng, 320)
    t3, t5 = _jitter_t(rng, 950), _jitter_t(rng, 520)

    def ladder(n, t):
        # verify counts at t/16, t/4 and t
        return {t // k: projective_sup_count(n, t // k) for k in (16, 4, 1)}

    return [
        Command(("verify", "--projective-torus", "1", "--sup-norm", "--t", str(t1)) + threads,
                verify_check(ladder(1, t1)), "counts"),
        Command(("verify", "--projective-torus", "2", "--sup-norm", "--t", str(t2)) + threads,
                verify_check(ladder(2, t2)), "counts"),
        Command(("count", "--matrix", "1,1,-2", "--sup-norm", "--t", str(t3)) + threads,
                count_check(conic_sup_count(t3)), "counts"),
        Command(("count", "--hypersurface", "1,1,1", "--sup-norm", "--t", "600") + threads,
                count_check(COUNT_111_SUP_600), "counts"),
        Command(("count", "--matrix", "1,1,-2", "--polynomial", SQUARES3, "--t", str(t5)) + threads,
                count_check(conic_squares_count(t5)), "counts"),
    ]


# Each zeta command with its base s values. Every one passes --budget:
# without it, zeta takes counting.DEFAULT_BUDGET = 10^10 terms, a 10^5 x 10^5
# grid, and the README's own zeta example runs for more than five minutes.
# zeta_reference.json holds, keyed by the command's words joined with spaces,
# the recorded sample at every jittered s: the command was run once with all
# of them in --s, which gives the same per-s values because each s is summed
# on its own.
ZETA_COMMANDS = (
    (("zeta", "--hypersurface", "1,1", "--polynomial", SQUARES3,
      "--budget", "100000000", "--threads", "2"), (1.5, 1.3, 1.2, 1.1)),
    (("zeta", "--projective-torus", "1", "--polynomial", "X1^2+X2^2",
      "--budget", "100000000", "--threads", "2"), (2.5, 2.2)),
    (("zeta", "--matrix", "1,1,-2", "--polynomial", SQUARES3,
      "--budget", "1000000", "--threads", "2"), (1.5, 1.2)),
)


def zeta(seed: int) -> list:
    rng = random.Random(seed)
    with open(ZETA_TABLE) as fh:
        table = json.load(fh)
    out = []
    for head, s_values in ZETA_COMMANDS:
        chosen = _jitter_s(rng, s_values)
        samples = table[" ".join(head)]
        out.append(Command(head + ("--s", ",".join(chosen)),
                           zeta_check([samples[s] for s in chosen]), "zeta"))
    return out


def volume(seed: int) -> list:
    # small Euler settings keep the run on the volume constant
    return [Command(("constants", "--hypersurface", "1,1,1", "--polynomial", SQUARES4,
                     "--quad-tol", "1e-4", "--prime-cutoff", "100",
                     "--euler-tol", "1e-3"), volume_check, "volume")]


# Each command set and the layer it exists to exercise: it must be the
# set's largest layer in a traced run (selftest.py checks it).
#   arith   constants --euler on three problems plus one full constant: the
#           Euler product's WeightProfile does most of the work, counting none
#   volume  (1,1,1) volume constant of a 4-variable quadric: a 2-d nquad at
#           its subdivision limit, the only set led by quadrature
#   counts  exact sup and polynomial counts, each hitting a different integer
#           enumerator in counting; euler and quadrature idle
#   zeta    height zeta partial sums: counting's float grid sums, the layer
#           counts uses, exercised another way
GROUP_LAYER = {"arith": "euler", "volume": "quadrature", "counts": "counting",
               "zeta": "counting"}

# Two workloads of two sets each, so that a run measures long enough for the
# host's speed to average out; the commands of a workload run in turn.
WORKLOADS = {
    "constants": Workload(
        "leading constants (arith + volume sets): Euler products, led by "
        "WeightProfile, and a 2-d nquad volume at its subdivision limit; "
        "counting idle",
        lambda seed: arith(seed) + volume(seed)),
    "counts": Workload(
        "exact counts and zeta sums with --threads 2 (counts + zeta sets): "
        "counting's integer enumerators and float grid sums; euler and "
        "quadrature idle",
        lambda seed: counts(seed) + zeta(seed)),
}
