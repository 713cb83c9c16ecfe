"""One CLI command in a fresh interpreter, timed from outside the program.

Usage: python3 child.py <src-dir> <trace 0|1> [cli args...]

Prints one JSON line: import time, time in cli.main, exit code, the CLI's
stdout, peak RSS and, with trace 1, the spans recorded by wrappers around
the public functions of every toric_density module. Without cli args it
only times the import.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import resource
import sys
import threading
import time
import warnings

perf = time.perf_counter

# (module, public functions wrapped as spans). Spans are named
# "<module>.<function>"; the module is the layer.
LAYERS = {
    "counting": ("count_points", "count_points_hypersurface", "zeta_partial",
                 "manin_constant", "sup_norm_prediction", "asymptotic_report"),
    "euler": ("euler_constant", "epsilon_gap", "local_factor",
              "required_level", "primes_up_to"),
    "volumes": ("sargos_constant", "mixed_volume_constant", "volume_constant",
                "newton_at_infinity", "mahler_constant",
                "build_repetition_polynomial", "mixed_type_pushforward"),
    "quadrature": ("integrate_cube", "check_tail_convergence"),
    "model": ("ellipticity_witness", "sign_count", "restrict_to_hypersurface",
              "toric_weight", "hypersurface_weight", "validate_toric_matrix",
              "hypersurface_problem"),
    "generators": ("generators_with_check", "minimal_generators",
                   "stabilization_check"),
    "polyhedron": ("build_polyhedron", "diagonal_face", "iota_lp",
                   "face_points", "support_face", "polar_vectors",
                   "diagonal_hit", "lemma1_check"),
    "hull": ("upward_hull", "dual_rays", "polytope_facets", "polytope_volume"),
    "lp": ("solve_lp",),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self.other_thread_spans = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        if threading.get_ident() != self.main_thread:
            self.other_thread_spans += 1
        idx = len(self.spans)
        record = [name, perf(), 0.0, stack[-1] if stack else -1, None]
        self.spans.append(record)
        stack.append(idx)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = perf()

    def wrap(self, fn, name, counters=None, arg_hook=None):
        """Span around fn; counters(result) -> dict of work counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if arg_hook is not None:
                    args, kwargs, extra = arg_hook(args, kwargs)
                result = fn(*args, **kwargs)
                found = counters(result) if counters else {}
                if arg_hook is not None:
                    found.update(extra)
                record[4] = found or None
            return result
        return traced


def _count_result(result):
    return {"points": abs(result.count), "candidates": math.prod(result.box)}


def _zeta_result(result):
    first = result if not isinstance(result, list) else result[0]
    return {"terms": abs(first.covered_count)}


def _eval_counter(args, kwargs):
    """Replace the integrand f by a wrapper that counts its calls."""
    calls = {"evals": 0}
    f = args[0]

    def counted(x):
        calls["evals"] += 1
        return f(x)
    return (counted,) + tuple(args[1:]), kwargs, calls


def _profile_init(tracer, init):
    @functools.wraps(init)
    def traced(self, spec, c, max_level):
        with tracer.span("euler.WeightProfile") as record:
            init(self, spec, c, max_level)
            n = spec.arity
            record[4] = {"profile_points": math.comb(max_level + n, n),
                         "entries": len(self.entries)}
    return traced


COUNTERS = {
    "counting.count_points": (_count_result, None),
    "counting.count_points_hypersurface": (_count_result, None),
    "counting.zeta_partial": (_zeta_result, None),
    "euler.primes_up_to": (lambda r: {"primes": len(r)}, None),
    "generators.generators_with_check": (lambda r: {"points": len(r.points)}, None),
    "quadrature.integrate_cube": (None, _eval_counter),
    "quadrature.check_tail_convergence": (None, _eval_counter),
}


def install(tracer, modules):
    """Patch each public function in every namespace that bound it.

    Rebinding only the home module would miss callers that took the name
    with `from module import name`, such as counting.euler_constant or
    cli.sargos_constant, so every toric_density module is searched.
    """
    for layer, names in LAYERS.items():
        home = modules[f"toric_density.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            counters, arg_hook = COUNTERS.get(f"{layer}.{fname}", (None, None))
            traced = tracer.wrap(original, f"{layer}.{fname}", counters, arg_hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
    profile = modules["toric_density.euler"].WeightProfile
    profile.__init__ = _profile_init(tracer, profile.__init__)


def main(argv) -> int:
    src, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, src)
    started = perf()
    import toric_density.cli as cli
    import_s = perf() - started
    if not cli_args:
        # set-up probe: the import alone
        sys.stdout.write(json.dumps({"module": cli.__file__, "import_s": import_s}) + "\n")
        return 0

    tracer = None
    warned = {"count": 0}
    if trace:
        tracer = Tracer()
        install(tracer, {name: mod for name, mod in sys.modules.items()
                         if name == "toric_density"
                         or name.startswith("toric_density.")})
        warn = warnings.warn

        def counting_warn(message, category=None, stacklevel=1, **kw):
            # counts every warning issued, shown or filtered out
            if getattr(category, "__name__", "") == "IntegrationWarning":
                warned["count"] += 1
            return warn(message, category, stacklevel + 1, **kw)
        warnings.warn = counting_warn

    out = io.StringIO()
    error = None
    started = perf()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is not None:
                with tracer.span("cli.main"):
                    code = cli.main(cli_args)
            else:
                code = cli.main(cli_args)
    except Exception as exc:  # report, do not crash the benchmark
        code, error = -1, f"{type(exc).__name__}: {exc}"
    main_s = perf() - started

    record = {
        "module": cli.__file__,
        "import_s": import_s,
        "main_s": main_s,
        "exit": code,
        "error": error,
        "output": out.getvalue(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["other_thread_spans"] = tracer.other_thread_spans
        record["warnings"] = warned["count"]
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
