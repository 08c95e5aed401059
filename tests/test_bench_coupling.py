"""The benchmark tracer wraps library functions by name; every name it
lists must resolve, or a traced run crashes.  bench/tracer.py is read as
source (not imported), so nothing is written under bench/."""

import ast
import importlib
import sys
from pathlib import Path

import hpdcover.distributions
import hpdcover.scanning
from hpdcover import PriorConfig, invert_upper, make_distribution

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


def test_inversion_reaches_traced_scan_layers(monkeypatch):
    # As the tracer does, count calls through every hpdcover namespace that
    # holds the function, so that the traced scan layers measure inversion.
    calls = dict.fromkeys(("sign_change_roots", "member_intervals"), 0)
    modules = [m for k, m in sys.modules.items() if k.startswith("hpdcover") and m is not None]
    for name in calls:
        original = getattr(hpdcover.scanning, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    invert_upper(PriorConfig(make_distribution("laplace"), 5.0, 1.0, 0.05), 8.2)
    assert calls == {"sign_change_roots": 1, "member_intervals": 1}
