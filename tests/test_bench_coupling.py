"""The benchmark reaches the library by name: the tracer wraps functions
listed in its tables, and the runner, workloads, gate and reference
recorder call attributes of the package.  Every such name must resolve, or
a benchmark run crashes.  The bench sources are read as AST (not imported),
so nothing is written under bench/."""

import ast
import functools
import importlib
import sys
from pathlib import Path

import hpdcover.cli
import hpdcover.distributions
import hpdcover.scanning
from hpdcover import PriorConfig, invert_upper, make_distribution

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
CALLERS = ("run.py", "workloads.py", "gate.py", "record_refs.py")


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


def _chain(node):
    """The dotted names of an attribute chain rooted at lib, self.lib or
    hpdcover (each bound to the package in the bench), else None."""
    names = []
    while isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr == "lib":
            return names[::-1]
        names.append(node.attr)
        node = node.value
    return names[::-1] if isinstance(node, ast.Name) and node.id in ("lib", "hpdcover") else None


def _library_names():
    """(dotted attribute chains, (module, name) imports) that the bench
    callers take from the library, code held in string constants (a fresh
    process's set-up script) included."""
    chains, imports = set(), set()
    trees = [ast.parse((BENCH / name).read_text()) for name in CALLERS]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "import hpdcover" in node.value:
                trees.append(ast.parse(node.value))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hpdcover":
                imports.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and (chain := _chain(node)):
                chains.add(".".join(chain))
    return chains, imports


def test_bench_library_names_resolve():
    chains, imports = _library_names()
    # The gate's checks and the workloads' calls are among them.
    assert {"credible_set_contains", "lower_values", "posterior_probability",
            "coverage.coverage_curve", "postselect.conditional_coverage_mc"} <= chains
    assert ("hpdcover.cli", "parse_dist_spec") in imports
    resolve = lambda chain: functools.reduce(lambda obj, attr: getattr(obj, attr, None), chain.split("."), hpdcover)
    assert [c for c in sorted(chains) if resolve(c) is None] == []
    assert [(m, n) for m, n in sorted(imports) if not hasattr(importlib.import_module(m), n)] == []
