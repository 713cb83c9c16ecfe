"""The benchmark's own tests; run from a checkout root:

    python3 perfbench/selftest.py

It checks that the independent references reproduce known values, that
every seed's zeta jitter has a reference, and that a traced run of each
workload passes its accounting (layer self times add up to the time in
cli.main, outputs byte-identical to the untraced run) and that each of its
command sets spends the most time in the layer the set was chosen for
(workloads.GROUP_LAYER). Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def group_self_times(commands, records) -> dict:
    """{command set: {layer: self time}} over traced records, cli left out."""
    groups = defaultdict(lambda: defaultdict(float))
    for cmd, rec in zip(commands, records):
        for span, own in zip(rec["spans"], run.self_times(rec["spans"])):
            layer = span[0].split(".", 1)[0]
            if layer != "cli":
                groups[cmd.group][layer] += own
    return groups


def main() -> int:
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    expect(workloads.projective_sup_count(1, 10_000) == 121_589_942, "P^1 sup count at t=10^4")
    expect(workloads.projective_sup_count(2, 800) == 1_704_345_244, "P^2 sup count at t=800")
    expect(workloads.conic_sup_count(1500) == 1798, "(1,1,-2) sup count at t=1500")
    expect(workloads.conic_squares_count(800) == 814, "(1,1,-2) squares count at t=800")
    expect(abs(workloads.criterion6_oracle() - 1.0248133276506186) < 1e-12,
           "criterion-6 oracle")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect({w["name"]: w["why"] for w in bench["workloads"]}
           == {k: w.why for k, w in workloads.WORKLOADS.items()},
           "BENCHMARK.json workloads and whys match workloads.py")
    expect([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
           and [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json metrics match run.py")
    for seed in range(200):
        try:
            workloads.zeta(seed)
        except KeyError as exc:
            expect(False, f"zeta reference lacks s={exc} at seed {seed}")
            break
    else:
        expect(True, "zeta references cover seeds 0-199")

    src = os.path.join(os.getcwd(), "src")
    for name, workload in workloads.WORKLOADS.items():
        commands = workload.build(0)
        result = run.run_workload(name, 0, 1, True, src)
        failed = [f"{' '.join(r['argv'])}: {r['failure']}"
                  for r in result["records"] if r["failure"]]
        expect(not failed, f"{name}: traced run passes its checks and accounting"
                           + "".join(f"\n     {line}" for line in failed))
        missing = set(run.PER_LAYER) - set(result.get("metrics", {}))
        expect(not missing, f"{name}: every per-layer metric reported"
                            + (f", missing {sorted(missing)}" if missing else ""))
        if "metrics" not in result:
            continue
        traced = result["records"][len(commands):]
        for group, layers in group_self_times(commands, traced).items():
            top = max(layers, key=layers.get)
            layer = workloads.GROUP_LAYER[group]
            expect(top == layer, f"{name}/{group}: largest layer is {top}, expected {layer}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
