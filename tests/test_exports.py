"""Every exported name resolves: a name deleted from a module cannot stay
behind in its ``__all__`` or in the package's.  Every exported name also has
a caller outside the tests: the package itself or the benchmark.  And every
refusal is raised from one site: no two ``raise`` statements in the package
share the constant text of their message."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hpdcover

MODULES = ["hpdcover", *(f"hpdcover.{m.name}" for m in pkgutil.iter_modules(hpdcover.__path__))]
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _names(paths, strings: bool) -> set[str]:
    """The Name ids and Attribute attrs in the files, and with ``strings``
    their string constants too.  Definitions and import aliases are other
    node types, and __all__ entries are strings, so without ``strings`` a
    name's own definition and export lines do not count as uses."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


USED = _names(Path(hpdcover.__file__).parent.glob("*.py"), False) | _names(BENCH.glob("*.py"), True)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_caller_outside_the_tests(module):
    # The tracer's table and getattr(lib.hpd, fn) name functions by string.
    assert [name for name in importlib.import_module(module).__all__ if name not in USED] == []


def _message_text(node: ast.Raise) -> str:
    """The constant text of a raise's message: a string literal, or the
    literal parts of an f-string; empty when there is no such message."""
    msg = node.exc.args[0] if isinstance(node.exc, ast.Call) and node.exc.args else None
    if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
        return msg.value
    if isinstance(msg, ast.JoinedStr):
        return "".join(v.value for v in msg.values if isinstance(v, ast.Constant))
    return ""


def test_each_refusal_is_raised_from_one_site():
    # A rule written twice drifts apart: "x must be finite, got " was raised
    # at four sites and "post-selection coverage requires w = 1" at two.
    sites: dict[str, list[str]] = {}
    for path in sorted(Path(hpdcover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and (text := _message_text(node)):
                sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads: star and __future__ imports
    and names listed in its __all__ (re-exports) are exempt."""
    tree = ast.parse(path.read_text())
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read | exported]


def test_no_module_imports_a_name_it_never_uses():
    # cli.py imported coverage_mc, which no CLI command calls.
    paths = sorted(Path(hpdcover.__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []
