"""Command-line orchestration: problem ingestion, pipeline runs, JSON/CSV reports.

Subcommands: generators, analyze, constants, count, zeta, verify. Reports are
deterministic: fixed reduction orders everywhere, timing excluded from
serialized output, rationals rendered as 'p/q' strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import counting, euler as eulermod, generators as genmod
from .model import (GeneralizedPolynomial, InvariantError, hypersurface_problem,
                    hypersurface_weight, toric_weight, validate_toric_matrix)
from .polyhedron import build_polyhedron, diagonal_face, iota_lp
from .polyparse import PolynomialSyntaxError, format_polynomial, parse_polynomial
from .vectors import format_frac, frac
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
    try:
        import mpmath
        if isinstance(x, mpmath.mpf):
            return mpmath.nstr(x, 30)
    except ImportError:
        pass
    raise TypeError(f"not serializable: {type(x)}")


def emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def load_problem_file(path: str):
    """Problem JSON: matrix or hypersurface, plus an optional polynomial."""
    with open(path) as fh:
        data = json.load(fh)
    problem = None
    hyper = None
    if data.get("hypersurface") is not None:
        hyper = tuple(int(x) for x in data["hypersurface"])
    elif data.get("matrix") is not None:
        width = data.get("width")
        problem = validate_toric_matrix(data["matrix"], width)
    else:
        raise InputError("problem file needs 'matrix' or 'hypersurface'")
    poly = None
    if data.get("polynomial") is not None:
        monos = data["polynomial"]["monomials"]
        terms = [(frac(m["coefficient"]), tuple(frac(x) for x in m["exponents"]))
                 for m in monos]
        poly = GeneralizedPolynomial.from_terms(terms)
    return problem, hyper, poly


def dump_problem(problem, hyper, poly) -> dict:
    data: dict = {}
    if hyper is not None:
        data["hypersurface"] = list(hyper)
    elif problem is not None:
        data["matrix"] = [list(r) for r in problem.rows]
        data["width"] = problem.width
    if poly is not None:
        data["polynomial"] = {"monomials": [
            {"coefficient": format_frac(c),
             "exponents": [format_frac(x) for x in e]}
            for c, e in poly.monomials]}
    return data


def _resolve_problem(args):
    """(problem, hyper, poly); hyper is set for the dedicated fast path."""
    problem = hyper = poly = None
    if getattr(args, "problem", None):
        problem, hyper, poly = load_problem_file(args.problem)
    if getattr(args, "hypersurface", None):
        hyper = tuple(int(x) for x in args.hypersurface.split(","))
    if getattr(args, "matrix", None):
        rows = [[int(x) for x in row.split(",")] for row in args.matrix.split(";")]
        problem = validate_toric_matrix(rows)
    if getattr(args, "projective_torus", None) is not None:
        problem = validate_toric_matrix([], width=args.projective_torus + 1)
    if getattr(args, "polynomial", None):
        poly = parse_polynomial(args.polynomial)
    if hyper is not None:
        problem = hypersurface_problem(hyper)
    if problem is None:
        raise InputError("no problem given: use --problem, --hypersurface, "
                         "--matrix or --projective-torus")
    return problem, hyper, poly


def _spec_for(problem, hyper):
    return hypersurface_weight(hyper) if hyper is not None else toric_weight(problem)


def cmd_generators(args) -> int:
    problem, hyper, _ = _resolve_problem(args)
    spec = _spec_for(problem, hyper)
    gens = genmod.generators_with_check(spec)
    emit({"schema": SCHEMA, "command": "generators",
          "points": [list(p) for p in gens.points],
          "cap": gens.cap, "stabilized": gens.stabilized}, args.out)
    if not gens.stabilized and not args.allow_flags:
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_analyze(args) -> int:
    problem, hyper, _ = _resolve_problem(args)
    spec = _spec_for(problem, hyper)
    gens = genmod.generators_with_check(spec)
    e = build_polyhedron(gens.points)
    df = diagonal_face(e, spec)
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
    if (not gens.stabilized or not df.compact) and not args.allow_flags:
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_constants(args) -> int:
    problem, hyper, poly = _resolve_problem(args)
    report: dict = {"schema": SCHEMA, "command": "constants"}
    if poly is not None:
        report["polynomial"] = format_polynomial(poly)
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
        return EXIT_OK
    if args.euler_only:
        spec = _spec_for(problem, hyper)
        gens = genmod.generators_with_check(spec)
        df = diagonal_face(build_polyhedron(gens.points), spec)
        rep = eulermod.euler_constant(
            spec, df.c, df.face_point_count, cutoff=args.prime_cutoff,
            tol=args.euler_tol, precision=args.precision, generators=gens,
            keep_factors=args.full_factors)
        payload = {"value": float(rep.value), "value_str": _mpf_str(rep.value),
                   "cutoff": rep.cutoff, "K": rep.K,
                   "epsilon_gap": rep.epsilon_gap,
                   "error_bound": rep.error_bound, "precision": rep.precision,
                   "c": list(df.c)}
        if rep.factors is not None:
            payload["factors"] = [{"p": f.p, "value": _mpf_str(f.value),
                                   "tail_bound": f.tail_bound}
                                  for f in rep.factors]
        report["euler"] = payload
        emit(report, args.out)
        return EXIT_FLAGGED if not gens.stabilized and not args.allow_flags else EXIT_OK
    target = tuple(hyper) if hyper is not None else problem
    rep = counting.manin_constant(
        target, poly, cutoff=args.prime_cutoff,
        quad_tol=args.quad_tol, euler_tol=args.euler_tol,
        precision=args.precision, seed=args.seed)
    report.update(_manin_json(rep))
    emit(report, args.out)
    flagged = not (rep.stabilized and rep.compact and rep.dimension_ok)
    return EXIT_FLAGGED if flagged and not args.allow_flags else EXIT_OK


def _manin_json(rep: counting.ManinReport) -> dict:
    return {
        "iota": rep.iota, "rho": rep.rho, "c": list(rep.c),
        "sign_factor": rep.sign_factor, "degree": rep.degree,
        "volume_constant": {"value": rep.volume.value,
                            "abs_error": rep.volume.abs_error,
                            "method": rep.volume.method},
        "euler": {"value": float(rep.euler.value),
                  "value_str": _mpf_str(rep.euler.value),
                  "cutoff": rep.euler.cutoff, "K": rep.euler.K,
                  "epsilon_gap": rep.euler.epsilon_gap,
                  "error_bound": rep.euler.error_bound},
        "leading_constant": rep.leading_constant,
        "zeta_constant": rep.zeta_constant,
        "rel_error": rep.rel_error,
        "flags": {"compact": rep.compact, "dimension_ok": rep.dimension_ok,
                  "stabilized": rep.stabilized},
    }


def _mpf_str(x) -> str:
    import mpmath
    return mpmath.nstr(x, 30)


def cmd_count(args) -> int:
    problem, _, poly = _resolve_problem(args)
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
    problem, hyper, poly = _resolve_problem(args)
    if poly is None:
        raise InputError("zeta needs --polynomial")
    target = tuple(hyper) if hyper is not None else problem
    spec = _spec_for(problem, hyper)
    gens = genmod.generators_with_check(spec)
    df = diagonal_face(build_polyhedron(gens.points), spec)
    s_values = [float(x) for x in args.s.split(",")]
    samples = counting.zeta_partial(target, poly, s_values, df.iota, df.rho,
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
    problem, hyper, poly = _resolve_problem(args)
    mode = "sup" if args.sup_norm else "polynomial"
    if mode == "polynomial" and poly is None:
        raise InputError("verify needs --polynomial unless --sup-norm")
    checks = []
    flagged = False

    spec = _spec_for(problem, hyper)
    gens = genmod.generators_with_check(spec)
    checks.append({"name": "generators-stabilized", "ok": gens.stabilized})
    e = build_polyhedron(gens.points)
    df = diagonal_face(e, spec)
    checks.append({"name": "diagonal-face-compact", "ok": df.compact})
    flagged = not (gens.stabilized and df.compact)

    if mode == "polynomial":
        target = tuple(hyper) if hyper is not None else problem
        rep = counting.manin_constant(
            target, poly, cutoff=args.prime_cutoff,
            quad_tol=args.quad_tol, euler_tol=args.euler_tol,
            precision=args.precision, seed=args.seed)
        checks.append({"name": "dimension-hypothesis", "ok": rep.dimension_ok})
        constant, iota, rho = rep.leading_constant, rep.iota, rep.rho
        extra = _manin_json(rep)
        flagged = flagged or not rep.dimension_ok
    else:
        target = tuple(hyper) if hyper is not None else problem
        constant, iota, rho = counting.sup_norm_prediction(target)
        extra = {"iota": iota, "rho": rho, "leading_constant": constant}

    t = frac(args.t)
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
    if not report["ok"]:
        if flagged and not args.allow_flags:
            return EXIT_FLAGGED
        return EXIT_CHECK_FAILED
    if flagged and not args.allow_flags:
        return EXIT_FLAGGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toric-density",
        description="Rational point density on projective toric varieties "
                    "under polynomial heights")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", help="problem JSON file")
        p.add_argument("--hypersurface", help="comma-separated exponents a1,..,an")
        p.add_argument("--matrix", help="relation rows 'a,b,c;d,e,f'")
        p.add_argument("--projective-torus", type=int, metavar="N",
                       help="full torus of P^N")
        p.add_argument("--polynomial", help="height polynomial, e.g. 'X1^2+X2^2'")
        p.add_argument("--quad-tol", type=float, default=1e-9)
        p.add_argument("--euler-tol", type=float, default=1e-10,
                       help="accepted for compatibility: matrix and "
                            "hypersurface Euler factors are exact; only custom "
                            "weights of the library API truncate to it")
        p.add_argument("--prime-cutoff", type=int, default=100_000)
        p.add_argument("--precision", type=int, default=160,
                       help="working precision in bits")
        p.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for counting and zeta sums, "
                            "at most one per CPU; overrides MANIN_TORIC_THREADS; "
                            "no output byte depends on it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--allow-flags", action="store_true",
                       help="exit 0 despite hypothesis-failure flags")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("generators", help="minimal weight-support generators")
    common(p)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("analyze", help="diagonal face, index and log power")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("constants", help="volume and arithmetic constants")
    common(p)
    p.add_argument("--sargos-only", action="store_true",
                   help="only the archimedean constant of --polynomial")
    p.add_argument("--euler-only", "--euler", dest="euler_only",
                   action="store_true", help="only the regularized prime product")
    p.add_argument("--full-factors", action="store_true",
                   help="include every regularized local factor in the report")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("count", help="exact point counts")
    common(p)
    p.add_argument("--t", required=True, help="height bound(s), comma separated")
    p.add_argument("--sup-norm", action="store_true")
    p.add_argument("--csv", help="write a t,N,predicted,ratio series here")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zeta", help="height zeta partial sums")
    common(p)
    p.add_argument("--s", required=True, help="evaluation points, comma separated")
    p.set_defaults(func=cmd_zeta, budget=counting.ZETA_BUDGET)

    p = sub.add_parser("verify", help="full pipeline with density validation")
    common(p)
    p.add_argument("--t", required=True, help="largest height bound")
    p.add_argument("--sup-norm", action="store_true")
    p.add_argument("--band", type=float, default=0.05,
                   help="allowed final |ratio - 1|")
    p.add_argument("--csv", help="write the density table here")
    p.set_defaults(func=cmd_verify)
    return ap


def _validate_config(args):
    if getattr(args, "budget", 10 ** 9) < 10 ** 6:
        raise InputError("operation budget must be at least 10^6")
    for name in ("quad_tol", "euler_tol"):
        if getattr(args, name, 1.0) <= 0:
            raise InputError(f"--{name.replace('_', '-')} must be positive")
    if getattr(args, "precision", 64) < 32:
        raise InputError("--precision below 32 bits is not supported")
    if getattr(args, "prime_cutoff", 100) < 10:
        raise InputError("--prime-cutoff too small")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_config(args)
        return args.func(args)
    except counting.NonCompactFace as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    except counting.BoxTooLarge as exc:
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
