"""Command-line orchestration: problem ingestion, pipeline runs, JSON/CSV reports.

Subcommands: generators, analyze, constants, count, zeta, verify. Every
command reads one problem (`_resolve_problem`): a `ToricProblem`, whose
presentation (relation matrix or hypersurface) picks its weight, plus an
optional height polynomial. Each command analyzes it at most once:
`generators` reads the support generators alone, the other commands get
generators, Newton polyhedron and diagonal face from `_analysis`, or, for
full constants and the polynomial verify, from `manin_constant` alone.
Reports are deterministic: fixed reduction orders everywhere, timing
excluded from serialized output, rationals rendered as 'p/q' strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import counting, euler as eulermod, generators as genmod
from .hull import DimensionOverflow, check_dimension
from .model import (GeneralizedPolynomial, InvariantError, hypersurface_problem,
                    problem_weight, validate_toric_matrix)
from .polyhedron import build_polyhedron, diagonal_face, iota_lp
from .polyparse import PolynomialSyntaxError, format_polynomial, parse_polynomial
from .vectors import format_digits, format_frac, frac
from .volumes import sargos_constant

SCHEMA = 1
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_FLAGGED = 3


class InputError(ValueError):
    pass


def _json_default(x):
    if isinstance(x, Fraction):
        return format_frac(x)
    if isinstance(x, frozenset):
        return sorted(x)
    raise TypeError(f"not serializable: {type(x)}")


def emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _field(data, key: str, convert, shape: str):
    """convert(data[key]), or an InputError that names the key."""
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"problem file: missing '{key}'")
    try:
        return convert(data[key])
    except (TypeError, ValueError) as exc:
        raise InputError(f"problem file: '{key}' must be {shape}") from exc


def _list(x) -> list:
    if not isinstance(x, list):
        raise TypeError("not a list")
    return x


def _ints(x) -> tuple:
    ints = tuple(int(y) for y in _list(x))
    if ints != tuple(x) or any(isinstance(y, bool) for y in x):
        raise ValueError("not integers")
    return ints


def load_problem_file(path: str):
    """(problem, polynomial or None) from a problem JSON: a matrix, with a
    width that is needed when it has no rows, or a hypersurface, plus an
    optional polynomial."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError("problem file: expected a JSON object")
    if data.get("hypersurface") is not None:
        problem = hypersurface_problem(
            _field(data, "hypersurface", _ints, "a list of integers"))
    elif data.get("matrix") is not None:
        rows = _field(data, "matrix", lambda m: [_ints(r) for r in _list(m)],
                      "a list of integer rows")
        width = None if data.get("width") is None else \
            _field(data, "width", lambda w: _ints([w])[0], "an integer")
        problem = validate_toric_matrix(rows, width)
    else:
        raise InputError("problem file needs 'matrix' or 'hypersurface'")
    poly = None
    if data.get("polynomial") is not None:
        monos = _field(data["polynomial"], "monomials", _list, "a list")
        poly = GeneralizedPolynomial.from_terms([
            (_field(m, "coefficient", frac, "a rational"),
             _field(m, "exponents", lambda e: tuple(map(frac, _list(e))), "a list of rationals"))
            for m in monos])
    return problem, poly


def _resolve_problem(args):
    """(problem, polynomial or None). Every given flag is checked; a
    hypersurface, from --hypersurface first or else from the problem file,
    wins over a --matrix or --projective-torus given with it."""
    problem = poly = surface = None
    if args.problem:
        problem, poly = load_problem_file(args.problem)
        if problem.exponents is not None:
            surface = problem
    if args.hypersurface:
        surface = hypersurface_problem([int(x) for x in args.hypersurface.split(",")])
    if args.matrix:
        rows = [[int(x) for x in row.split(",")] for row in args.matrix.split(";")]
        problem = validate_toric_matrix(rows)
    if args.projective_torus is not None:
        problem = validate_toric_matrix([], width=args.projective_torus + 1)
    if args.polynomial:
        poly = parse_polynomial(args.polynomial)
    if surface is not None:
        problem = surface
    if problem is None:
        raise InputError("no problem given: use --problem, --hypersurface, "
                         "--matrix or --projective-torus")
    return problem, poly


def _analysis(problem):
    """(weight, support generators, Newton polyhedron, diagonal face) of
    the problem's presentation. A weight of more coordinates than the hull
    takes is refused before its generators are walked."""
    spec = problem_weight(problem)
    check_dimension(spec.arity)
    gens = genmod.generators_with_check(spec)
    e = build_polyhedron(gens.points)
    return spec, gens, e, diagonal_face(e, spec)


def cmd_generators(args) -> int:
    problem, _ = _resolve_problem(args)
    gens = genmod.generators_with_check(problem_weight(problem))
    emit({"schema": SCHEMA, "command": "generators",
          "points": [list(p) for p in gens.points],
          "cap": gens.cap, "stabilized": gens.stabilized}, args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    problem, _ = _resolve_problem(args)
    _, gens, e, df = _analysis(problem)
    iota_min, c_min = iota_lp(e)
    report = {
        "schema": SCHEMA, "command": "analyze",
        "t0": df.t0, "iota": df.iota, "c": list(df.c), "rho": df.rho,
        "dim_face": df.face.dim, "compact": df.compact,
        "face_points": df.face_point_count,
        "lp_minimizer": list(c_min), "lp_value": iota_min,
        "facets": [{"normal": list(w), "offset": m} for w, m in e.facets],
        "vertices": [list(v) for v in e.vertices],
        "stabilized": gens.stabilized,
    }
    emit(report, args.out)
    if not df.compact and not args.allow_flags:
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_constants(args) -> int:
    problem, poly = _resolve_problem(args)
    report: dict = {"schema": SCHEMA, "command": "constants"}
    if poly is not None:
        report["polynomial"] = format_polynomial(poly)
    elif args.sargos_only:
        raise InputError("constants --sargos-only needs --polynomial")
    elif not args.euler_only:
        raise InputError("constants needs --polynomial unless --euler")
    if args.sargos_only:
        from .volumes import newton_at_infinity
        data = newton_at_infinity(poly)
        cv = sargos_constant(poly, tol=args.quad_tol, seed=args.seed)
        report["sargos"] = {"value": cv.value, "abs_error": cv.abs_error,
                            "method": cv.method}
        report["geometry"] = {
            "sigma0": data.sigma0, "rho0": data.rho0, "m": data.m,
            "permutation": [i + 1 for i in data.permutation],
            "polar_vectors": [list(lam) for lam in data.lambdas],
            "lambda_volume": data.lambda_volume,
            "compact_face": data.compact_face,
            "face_monomials": [{"coefficient": c, "exponents": list(e)}
                               for c, e in data.face_support]}
        emit(report, args.out)
        return _swamped("the Sargos abs_error", cv.abs_error, abs(cv.value))
    if args.euler_only:
        spec, gens, _, df = _analysis(problem)
        rep = eulermod.euler_constant(
            spec, df.c, df.face_point_count, cutoff=args.prime_cutoff,
            precision=args.precision, generators=gens, keep_factors=args.full_factors)
        payload = {**_euler_json(rep), "precision": rep.precision, "c": list(df.c)}
        if rep.factors is not None:
            # every factor is exact; the key stays for the report's shape
            payload["factors"] = [{"p": f.p, "value": format_digits(f.value),
                                   "tail_bound": 0.0}
                                  for f in rep.factors]
        report["euler"] = payload
        emit(report, args.out)
        return _swamped("the Euler error_bound", payload["error_bound"],
                        abs(payload["value"]))
    rep = counting.manin_constant(
        problem, poly, cutoff=args.prime_cutoff, quad_tol=args.quad_tol,
        precision=args.precision, seed=args.seed)
    report.update(_manin_json(rep))
    emit(report, args.out)
    if not (rep.compact and rep.dimension_ok) and not args.allow_flags:
        return EXIT_FLAGGED
    return _swamped("rel_error", rep.rel_error, 1.0)


def _swamped(label: str, error: float, limit: float) -> int:
    """EXIT_OK, or EXIT_CHECK_FAILED with a line on stderr when error is not
    below limit (a NaN included): a bar at least as wide as its value says
    nothing of the value."""
    if error < limit:
        return EXIT_OK
    print(f"check failed: {label} {error:.3g} is not below {limit:.3g}",
          file=sys.stderr)
    return EXIT_CHECK_FAILED


def _euler_json(rep: eulermod.EulerReport) -> dict:
    """The Euler payload. Its error_bound is the bar of value_str: a zeta
    product's bound plus the rounding to 30 digits, rounded up to a float;
    a prime pass's bound is kept as it is, far wider than that rounding."""
    text = format_digits(rep.value)
    bound = rep.error_bound
    if rep.method == "zeta-product":
        exact = Fraction(bound) + abs(Fraction(text) - Fraction(rep.value))
        bound = float(exact)
        if bound < exact:
            bound = math.nextafter(bound, math.inf)
    return {"value": float(rep.value), "value_str": text,
            "cutoff": rep.cutoff, "K": rep.K, "epsilon_gap": rep.epsilon_gap,
            "error_bound": bound, "method": rep.method}


def _manin_json(rep: counting.ManinReport) -> dict:
    return {
        "iota": rep.iota, "rho": rep.rho, "c": list(rep.c),
        "sign_factor": rep.sign_factor, "degree": rep.degree,
        "volume_constant": {"value": rep.volume.value,
                            "abs_error": rep.volume.abs_error,
                            "method": rep.volume.method},
        "euler": _euler_json(rep.euler),
        "leading_constant": rep.leading_constant,
        "zeta_constant": rep.zeta_constant,
        "rel_error": rep.rel_error,
        "flags": {"compact": rep.compact, "dimension_ok": rep.dimension_ok,
                  "stabilized": rep.stabilized},
    }


def cmd_count(args) -> int:
    problem, poly = _resolve_problem(args)
    mode = "sup" if args.sup_norm else "polynomial"
    if mode == "polynomial" and poly is None:
        raise InputError("count needs --polynomial unless --sup-norm")
    ts = [frac(x) for x in args.t.split(",")]
    results = [counting.count_points(problem, poly, t, mode, budget=args.budget,
                                     threads=args.threads) for t in ts]
    if args.csv:
        _write_counts_csv(args.csv, results, None)
    emit({"schema": SCHEMA, "command": "count", "mode": mode,
          "results": [{"t": r.t, "count": r.count, "box": list(r.box)}
                      for r in results]}, args.out)
    return EXIT_OK


def _write_counts_csv(path, results, predictions):
    lines = ["t,N,predicted,ratio"]
    for i, r in enumerate(results):
        if predictions:
            pred = predictions[i]
            lines.append(f"{float(r.t)},{r.count},{pred},{r.count / pred}")
        else:
            lines.append(f"{float(r.t)},{r.count},,")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_zeta(args) -> int:
    problem, poly = _resolve_problem(args)
    if poly is None:
        raise InputError("zeta needs --polynomial")
    try:
        s_values = [float(x) for x in args.s.split(",")]
        if not all(map(math.isfinite, s_values)):
            raise ValueError
    except ValueError:
        raise InputError(f"--s must be comma-separated finite numbers, got {args.s!r}") from None
    _, _, _, df = _analysis(problem)
    samples = counting.zeta_partial(problem, poly, s_values, df.iota, df.rho,
                                    term_budget=args.budget,
                                    threads=args.threads)
    emit({"schema": SCHEMA, "command": "zeta", "iota": df.iota, "rho": df.rho,
          "samples": [{"s": x.s, "partial": x.partial,
                       "tail_estimate": x.tail_estimate,
                       "value": x.value,
                       "probe": x.probe(float(df.iota), df.rho)}
                      for x in samples]}, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, poly = _resolve_problem(args)
    mode = "sup" if args.sup_norm else "polynomial"
    if mode == "polynomial" and poly is None:
        raise InputError("verify needs --polynomial unless --sup-norm")
    t = frac(args.t)
    if t < 16:
        raise InputError(f"verify needs --t at least 16, got {args.t}: it counts "
                         f"at t/16, t/4 and t, and each must be at least 1")
    if mode == "polynomial":
        # the constant's own analysis supplies the hypothesis flags
        rep = counting.manin_constant(
            problem, poly, cutoff=args.prime_cutoff, quad_tol=args.quad_tol,
            precision=args.precision, seed=args.seed)
        flags = [rep.stabilized, rep.compact, rep.dimension_ok]
        constant, iota, rho = rep.leading_constant, rep.iota, rep.rho
        extra = _manin_json(rep)
    else:
        _, gens, _, df = _analysis(problem)
        flags = [gens.stabilized, df.compact]
        constant, iota, rho = counting.sup_norm_prediction(problem)
        extra = {"iota": iota, "rho": rho, "leading_constant": constant}
    checks = [{"name": name, "ok": ok} for name, ok in zip(
        ("generators-stabilized", "diagonal-face-compact", "dimension-hypothesis"), flags)]
    flagged = not all(flags)

    results = [counting.count_points(problem, poly, tv, mode, budget=args.budget,
                                     threads=args.threads)
               for tv in (t / 16, t / 4, t)]
    density = counting.asymptotic_report(results, constant, iota, rho)
    within = density.final_deviation <= args.band
    checks.append({"name": f"density-ratio-within-{args.band}",
                   "ok": within,
                   "deviation": density.final_deviation})
    # trend across samples is a diagnostic: small counts fluctuate, so it
    # never gates the exit code
    diagnostics = [{"name": "ratio-approach-not-worsening",
                    "ok": density.monotone_approach}]

    report = {"schema": SCHEMA, "command": "verify", "mode": mode,
              "prediction": extra,
              "table": [{"t": r.t, "count": r.count,
                         "predicted": row.predicted, "ratio": row.ratio}
                        for r, row in zip(results, density.rows)],
              "checks": checks,
              "diagnostics": diagnostics,
              "ok": all(c["ok"] for c in checks)}
    emit(report, args.out)
    if args.csv:
        _write_counts_csv(args.csv, results,
                          [row.predicted for row in density.rows])
    if flagged and not args.allow_flags:
        return EXIT_FLAGGED
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _common(p):
    p.add_argument("--problem", help="problem JSON file")
    p.add_argument("--hypersurface", help="comma-separated exponents a1,..,an")
    p.add_argument("--matrix", help="relation rows 'a,b,c;d,e,f'")
    p.add_argument("--projective-torus", type=int, metavar="N",
                   help="full torus of P^N")
    p.add_argument("--polynomial", help="height polynomial, e.g. 'X1^2+X2^2'")
    p.add_argument("--quad-tol", type=float, default=1e-9,
                   help="absolute tolerance of the quadrature fallback; a "
                        "volume face integral with a closed form ignores it")
    p.add_argument("--euler-tol", type=float, default=1e-10,
                   help="accepted for compatibility and ignored: every "
                        "Euler factor is exact")
    p.add_argument("--prime-cutoff", type=int, default=100_000,
                   help="largest prime P of the Euler product's prime pass "
                        "(default 100000); the primes past P enter through "
                        "zeta_P(s) = zeta(s) prod_(p<=P) (1 - p^-s) at the "
                        "Witt exponents. A weight whose product is a finite "
                        "product of zeta values ignores it, except to list "
                        "--full-factors")
    p.add_argument("--precision", type=int, default=160,
                   help="working precision in bits")
    p.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for counting and zeta sums, "
                        "at most one per CPU (default 1); no output byte "
                        "depends on it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-flags", action="store_true",
                   help="exit 0 despite hypothesis-failure flags")
    p.add_argument("--out", help="write the JSON report here")


def _constants_args(p):
    p.add_argument("--sargos-only", action="store_true",
                   help="only the archimedean constant of --polynomial")
    p.add_argument("--euler-only", "--euler", dest="euler_only",
                   action="store_true", help="only the regularized prime product")
    p.add_argument("--full-factors", action="store_true",
                   help="include every regularized local factor in the report")


def _count_args(p):
    p.add_argument("--t", required=True, help="height bound(s), comma separated")
    p.add_argument("--sup-norm", action="store_true")
    p.add_argument("--csv", help="write a t,N,predicted,ratio series here")


def _zeta_args(p):
    p.add_argument("--s", required=True, help="evaluation points, comma separated")
    p.set_defaults(budget=counting.ZETA_BUDGET)


def _verify_args(p):
    p.add_argument("--t", required=True, help="largest height bound")
    p.add_argument("--sup-norm", action="store_true")
    p.add_argument("--band", type=float, default=0.05,
                   help="allowed final |ratio - 1|")
    p.add_argument("--csv", help="write the density table here")


# name: (help, handler, arguments beyond the common ones)
SUBCOMMANDS = {
    "generators": ("minimal weight-support generators", cmd_generators, None),
    "analyze": ("diagonal face, index and log power", cmd_analyze, None),
    "constants": ("volume and arithmetic constants", cmd_constants, _constants_args),
    "count": ("exact point counts", cmd_count, _count_args),
    "zeta": ("height zeta partial sums", cmd_zeta, _zeta_args),
    "verify": ("full pipeline with density validation", cmd_verify, _verify_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with command, of that one alone.

    A subcommand parses and prints its help the same either way; building
    one instead of six saves a few milliseconds of every CLI start.
    """
    ap = argparse.ArgumentParser(
        prog="toric-density",
        description="Rational point density on projective toric varieties "
                    "under polynomial heights")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, extra) in SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        _common(p)
        if extra is not None:
            extra(p)
        p.set_defaults(func=func)
    return ap


def _validate_config(args):
    if getattr(args, "budget", 10 ** 9) < 10 ** 6:
        raise InputError("operation budget must be at least 10^6")
    for name in ("quad_tol", "euler_tol"):
        tol = getattr(args, name, 1.0)
        if not (tol > 0 and math.isfinite(tol)):
            raise InputError(f"--{name.replace('_', '-')} must be a positive finite number")
    if not getattr(args, "band", 0.0) >= 0:  # NaN fails this too
        raise InputError("--band must be a number >= 0")
    if getattr(args, "precision", 64) < 32:
        raise InputError("--precision below 32 bits is not supported")
    if getattr(args, "prime_cutoff", 100) < 10:
        raise InputError("--prime-cutoff too small")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a missing or unknown command, or top-level help, needs the full parser
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _validate_config(args)
        return args.func(args)
    except counting.NonCompactFace as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    except (counting.BoxTooLarge, DimensionOverflow) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (InputError, PolynomialSyntaxError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
