"""The benchmark tracer wraps library functions by name; every name it
lists must resolve, or a traced run crashes.  bench/tracer.py is read as
source (not imported), so nothing is written under bench/."""

import ast
import importlib
from pathlib import Path

import hpdcover.distributions

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("FUNCTIONS", "LAWS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["LAWS"]


def test_traced_functions_resolve():
    functions, laws = _tracer_tables()
    assert functions and laws
    for module, attr, _, _ in functions:
        assert callable(getattr(importlib.import_module(f"hpdcover.{module}"), attr, None)), (module, attr)
    for cls_name, _ in laws:
        cls = getattr(hpdcover.distributions, cls_name)
        for meth in ("ppf", "cdf", "pdf"):
            # The tracer replaces the class's own attribute.
            assert callable(cls.__dict__.get(meth)), (cls_name, meth)
