"""The library names the benchmark's tracer wraps must keep resolving.

perfbench/child.py patches spans around functions by name; a rename or a
changed signature would break `perfbench/run.py --trace 1` without failing
anything else. These tests read its name table and check each name, and
run one command through the traced harness.
"""

import ast
import importlib
import inspect
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

from toric_density.euler import WeightProfile
from toric_density.model import hypersurface_weight

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def wrapped_layers() -> dict:
    """The LAYERS table of perfbench/child.py, read without running it."""
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no LAYERS table")


def test_every_wrapped_function_resolves():
    layers = wrapped_layers()
    assert layers
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"toric_density.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def test_weight_profile_keeps_the_traced_signature():
    # child.py wraps WeightProfile.__init__(self, spec, c, max_level) and
    # reads .entries from the built profile
    params = list(inspect.signature(WeightProfile.__init__).parameters)
    assert params == ["self", "spec", "c", "max_level"]
    profile = WeightProfile(hypersurface_weight((1, 1)), (Fraction(1, 2),) * 2, 4)
    assert profile.entries


def test_traced_run_prints_the_untraced_bytes():
    # a wrapped function whose result a COUNTERS hook cannot read fails the
    # traced run alone, which the name checks above do not see
    argv = ["constants", "--euler", "--hypersurface", "1,1"]
    records = []
    for trace in ("0", "1"):
        done = subprocess.run([sys.executable, str(CHILD), str(ROOT / "src"), trace, *argv],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        records.append(json.loads(done.stdout.splitlines()[-1]))
    plain, traced = records
    assert plain["exit"] == traced["exit"] == 0
    assert plain["error"] is None and traced["error"] is None
    assert traced["spans"] and "spans" not in plain
    assert traced["output"] == plain["output"]
