"""The traced benchmark wraps package functions by name, and skips a name
the package no longer has, so a rename would quietly zero its metric."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# spans whose targets are known to be gone
KNOWN_STALE = {("formula", "simplify"), ("marginals", "_build_plan")}


def traced_spans():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no SPANS")


def test_every_traced_function_exists_in_the_package():
    spans = traced_spans()
    assert ("sampler", "_run_full") in {(mod, fn) for mod, fn, _ in spans}
    missing = {
        (mod, fn)
        for mod, fn, _ in spans
        if not hasattr(importlib.import_module(f"ksat.{mod}"), fn)
    }
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
