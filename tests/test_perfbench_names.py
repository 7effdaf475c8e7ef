"""The library names the benchmark in ``perfbench/`` reads, checked from tier-1.

perfbench's span map wraps layer functions by ``module:name``, and its own
tests and reference recorder read a few more names; a name that moves makes
a per-layer metric disappear, which only perfbench's traced smoke test
notices. ``perfbench/spans.py`` is read as text here, not imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

from interfere.exposure import ExposureProfile

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    tree = ast.parse(SPANS.read_text())
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    return sorted(target for targets in ast.literal_eval(layers).values() for target in targets)


@pytest.mark.parametrize("target", span_targets())
def test_span_map_names_resolve(target):
    module_name, name = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), name))


def test_names_read_by_perfbench_tests_and_references_exist():
    assert callable(importlib.import_module("interfere.exposure")._overlapping_pairs)
    assert isinstance(ExposureProfile.joint, property)
