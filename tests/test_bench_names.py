"""The library names the benchmark's tracer wraps must keep resolving.

perfbench/child.py patches spans around functions by name; a rename or a
changed signature would break `perfbench/run.py --trace 1` without failing
anything else. This test reads its name table and checks each name.
"""

import ast
import importlib
import inspect
import pathlib
from fractions import Fraction

from toric_density.euler import WeightProfile
from toric_density.model import hypersurface_weight

CHILD = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


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
