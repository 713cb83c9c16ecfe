"""toric-density benchmark: real CLI commands, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/toric_density. Each
command runs in its own fresh interpreter (perfbench/child.py), the way a
user calls `toric-density`; the child times `import toric_density.cli` and
`cli.main(argv)` apart. The load is a closed loop with one client: the next
command starts only after the previous one has exited. The commands run
in turn, each at least once, and then while one of them is expected to
end within S seconds; a command's median over the run is its figure. On
a shared host with two vCPUs, run-to-run spread comes mostly from the
host's speed, which drifts over seconds to minutes, so a run measures as
long as it can and each workload holds two command sets.

Every output is checked against the reference in workloads.py, which is
computed before timing starts. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `failed / attempted` is the
failure fraction. The lines before it give each figure's median, maximum
and sample count.

--trace 0, end-to-end metrics:
  wall_s       sum over the workload's commands of the median time in cli.main
  setup_s      median time of a fresh-interpreter `import toric_density.cli`,
               over the run's commands and import-only interpreters: one
               before the first command, and more after the last if the
               samples fall short of SETUP_SAMPLES
  peak_rss_mb  largest peak RSS of any command process

--trace 1 runs one untraced pass and then one traced pass, in which
child.py wraps the public functions of every module. Per-layer metrics
come from the traced pass. `<layer>.s` is the layer's self time: its spans'
time minus the time their child spans cover. The spans are written to
.perfbench/spans-<workload>-<seed>.jsonl when the run ends. A traced run
fails unless each command's output is byte-identical to the untraced one
and the self times of all layers add up to the traced time in cli.main.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# a child still running this many seconds into a run is killed, so the run
# ends within 180 s
RUN_LIMIT = 170
# commands set their thread count with --threads; the rest run on one
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "MANIN_TORIC_THREADS"}
SPAN_DIR = ".perfbench"
# import-only interpreters top the run's import samples up to this many,
# so set-up has a median even when a workload runs one command once
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "euler.s": "s", "euler.profile_s": "s", "euler.profile_points": "count",
    "euler.profile_hit_ratio": "ratio", "euler.primes": "count",
    "counting.s": "s", "counting.count_s": "s", "counting.count_calls": "count",
    "counting.points": "count", "counting.hit_ratio": "ratio",
    "counting.zeta_s": "s", "counting.zeta_terms": "count",
    "quadrature.s": "s", "quadrature.evals": "count",
    "quadrature.warnings": "count", "volumes.s": "s",
    "model.s": "s", "model.witness_s": "s", "model.witness_calls": "count",
    "generators.s": "s", "generators.points": "count", "polyhedron.s": "s",
    "hull.s": "s", "hull.calls": "count", "lp.s": "s", "lp.calls": "count",
    "cli.self_s": "s", "trace.overhead_s": "s", "report.err_bar_rel": "ratio",
}


def child(src: str, args: list, deadline: float) -> subprocess.CompletedProcess:
    """Run child.py; killed and waited for if it outlives the deadline."""
    return subprocess.run([sys.executable, CHILD, src] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, env=CHILD_ENV,
                          timeout=max(deadline - time.monotonic(), 0.1))


# per-layer metrics that are self times; together they cover cli.main
SELF_TIMES = [k for k in PER_LAYER if k.endswith(".s") or k == "cli.self_s"]


def run_command(src: str, cmd, seed: int, trace: bool, deadline: float) -> dict:
    """One command in a fresh interpreter; 'failure' is None or a reason."""
    argv = list(cmd.argv) + ["--seed", str(seed)]
    try:
        proc = child(src, ["1" if trace else "0"] + argv, deadline)
    except subprocess.TimeoutExpired:
        return {"argv": argv, "failure": f"not done within the run's {RUN_LIMIT} s"}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"argv": argv, "failure": f"child exited {proc.returncode} without a record"}
    rec["argv"] = argv
    rec["failure"] = None
    if not rec["module"].startswith(src + os.sep):
        rec["failure"] = f"imported {rec['module']}, not the checkout's source"
    elif rec["exit"] != 0:
        rec["failure"] = f"exit {rec['exit']} {rec['error'] or ''}".strip()
    else:
        try:
            rec["report"] = json.loads(rec["output"])
        except json.JSONDecodeError:
            rec["failure"] = "output is not JSON"
        else:
            try:
                rec["failure"] = cmd.check(rec["report"])
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                rec["failure"] = f"report lacks an expected field: {exc!r}"
    return rec


def setup_probes(src, count: int, deadline: float) -> list:
    """Import times of interpreters that only import the CLI."""
    return [json.loads(child(src, ["0"], deadline).stdout)["import_s"]
            for _ in range(count)]


def run_pass(src, commands, seed, trace, deadline) -> list:
    return [run_command(src, cmd, seed, trace, deadline) for cmd in commands]


def round_robin(src, commands, seed, seconds, deadline):
    """Run the commands in turn, each at least once; after the first pass a
    command that is expected to end past `seconds`, with the set-up probes
    still owed, is skipped, and the run ends when none is left.

    One import-only probe runs first, as warm-up and a set-up sample.
    Returns the records, each command's times in cli.main and the import
    times of commands and probes, at least SETUP_SAMPLES of them.
    """
    started = time.perf_counter()
    imports = setup_probes(src, 1, deadline)
    probe_s = time.perf_counter() - started
    records, per_command = [], [[] for _ in commands]
    took = [0.0] * len(commands)
    k = 0
    while True:
        if len(records) >= len(commands):
            owed = max(SETUP_SAMPLES - len(imports) - 1, 0) * probe_s
            left = seconds - (time.perf_counter() - started) - owed
            n = len(commands)
            k = next((i % n for i in range(k, k + n) if took[i % n] <= left), None)
            if k is None:
                break
        t0 = time.perf_counter()
        rec = run_command(src, commands[k], seed, False, deadline)
        took[k] = time.perf_counter() - t0
        records.append(rec)
        if "main_s" not in rec:
            return records, per_command, imports
        per_command[k].append(rec["main_s"])
        imports.append(rec["import_s"])
        k = (k + 1) % len(commands)
    imports += setup_probes(src, SETUP_SAMPLES - len(imports), deadline)
    return records, per_command, imports


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    covered = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    return [(s[2] - s[1]) - _union(covered[i]) for i, s in enumerate(spans)]


def err_bar_rel(report: dict) -> float:
    """rel_error of a full constant, or error_bound / value of --euler."""
    if "rel_error" in report:
        return report["rel_error"]
    euler = report.get("euler")
    if euler and euler.get("value"):
        return euler["error_bound"] / abs(euler["value"])
    return 0.0


def layer_metrics(records) -> dict:
    m = defaultdict(float)
    entries = candidates = 0
    for rec in records:
        spans = rec["spans"]
        for (name, start, end, _, counters), own in zip(spans, self_times(spans)):
            layer, func = name.split(".", 1)
            counters = counters or {}
            m["cli.self_s" if layer == "cli" else f"{layer}.s"] += own
            if name == "euler.WeightProfile":
                m["euler.profile_s"] += end - start
                m["euler.profile_points"] += counters["profile_points"]
                entries += counters["entries"]
            elif name == "euler.primes_up_to":
                m["euler.primes"] += counters["primes"]
            elif func in ("count_points", "count_points_hypersurface"):
                m["counting.count_s"] += own
                m["counting.count_calls"] += 1
                m["counting.points"] += counters["points"]
                candidates += counters["candidates"]
            elif name == "counting.zeta_partial":
                m["counting.zeta_s"] += own
                m["counting.zeta_terms"] += counters["terms"]
            elif layer == "quadrature":
                m["quadrature.evals"] += counters["evals"]
            elif name == "model.ellipticity_witness":
                m["model.witness_s"] += end - start
                m["model.witness_calls"] += 1
            elif name == "generators.generators_with_check":
                m["generators.points"] += counters["points"]
            if layer in ("hull", "lp"):
                m[f"{layer}.calls"] += 1
        m["quadrature.warnings"] += rec["warnings"]
        m["report.err_bar_rel"] = max(m["report.err_bar_rel"],
                                      err_bar_rel(rec.get("report", {})))
    if m["euler.profile_points"]:
        m["euler.profile_hit_ratio"] = entries / m["euler.profile_points"]
    if candidates:
        m["counting.hit_ratio"] = m["counting.points"] / candidates
    return {name: m.get(name, 0.0) for name in PER_LAYER}


def accounting_errors(untraced, traced) -> list:
    """(traced record, reason) where the layer self times do not add up to
    the traced cli.main time within that command's tracing overhead (at
    least 1 ms), or where spans ran outside the main thread."""
    bad = []
    for plain, rec in zip(untraced, traced):
        total = sum(self_times(rec["spans"]))
        slack = max(abs(rec["main_s"] - plain["main_s"]), 1e-3)
        if abs(total - rec["main_s"]) > slack or rec["other_thread_spans"]:
            bad.append((rec, f"self times {total:.4f} s vs main {rec['main_s']:.4f} s, "
                             f"{rec['other_thread_spans']} spans outside the main thread"))
    return bad


def describe(name, values, unit):
    values = sorted(values)
    print(f"  {name:14s} median {statistics.median(values):.4f} {unit}  "
          f"max {values[-1]:.4f} {unit}  n={len(values)}")


def write_spans(workload, seed, records):
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as fh:
        for cid, rec in enumerate(records):
            for name, start, end, parent, counters in rec["spans"]:
                fh.write(json.dumps({"command": cid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "counters": counters}) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    """Run one workload: its records and, when every command ran, its metrics."""
    commands = workloads.WORKLOADS[name].build(seed)
    deadline = time.monotonic() + RUN_LIMIT
    if trace:
        plain = run_pass(src, commands, seed, False, deadline)
        traced = run_pass(src, commands, seed, True, deadline)
        records = plain + traced
    else:
        records, per_command, imports = round_robin(src, commands, seed, seconds, deadline)
    result = {"records": records}
    if any("main_s" not in r for r in records):
        return result

    if not trace:
        result["metrics"] = {
            "wall_s": sum(statistics.median(v) for v in per_command),
            "setup_s": statistics.median(imports),
            "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        }
        print(f"{name}, seed {seed}: {len(records)} runs of {len(commands)} commands")
        for cmd, times in zip(commands, per_command):
            describe(cmd.argv[0], times, "s")
            print(f"    {' '.join(cmd.argv)}")
        describe("setup_s", imports, "s")
        describe("peak_rss_mb", [r["rss_kb"] / 1024 for r in records], "MB")
        print(f"  err_bar_rel    "
              f"{max(err_bar_rel(r.get('report', {})) for r in records):.4g}")
        print(f"  fail_frac      {sum(bool(r['failure']) for r in records)}/{len(records)}")
        return result

    wall = sum(rec["main_s"] for rec in plain)
    for a, b in zip(plain, traced):
        if a["output"] != b["output"] and not b["failure"]:
            b["failure"] = "traced output differs from the untraced output"
    for rec, reason in accounting_errors(plain, traced):
        rec["failure"] = rec["failure"] or reason
    metrics = layer_metrics(traced)
    metrics["trace.overhead_s"] = sum(r["main_s"] for r in traced) - wall
    result["metrics"] = metrics
    print(f"{name}, seed {seed}: traced, wall_s {wall:.3f} s untraced, "
          f"{wall + metrics['trace.overhead_s']:.3f} s traced")
    for key in sorted(metrics, key=lambda k: -metrics[k]):
        if key in SELF_TIMES:
            print(f"  {key:12s} {metrics[key]:8.3f} s")
    print(f"  spans written to {write_spans(name, seed, traced)}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "toric_density", "cli.py")):
        print(f"error: no src/toric_density in {os.getcwd()}; run from a checkout root",
              file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), src)
    failed = [r for r in result["records"] if r["failure"]]
    for rec in failed:
        print(f"FAILED {' '.join(rec['argv'])}: {rec['failure']}")
    units = PER_LAYER if args.trace else END_TO_END
    metrics = result.get("metrics", {})
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(result["records"]),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
