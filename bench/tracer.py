"""Span recorder that wraps the library's public functions from outside.

Each wrapped call records one span (name, start, end, parent, elems, bytes)
on a thread-local stack.  Spans stay in memory until the benchmark ends; the
per-layer figures are derived from them afterwards.  No library file is
changed: the wrappers are installed into every ``hpdcover`` module namespace
that holds the original function (and onto the distribution classes for
``ppf``/``cdf``/``pdf``), and the originals are put back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

import numpy as np

# (module, attribute, span name, index of the array argument or None).
# The array argument gives ``elems``: the size of the first array passed.
FUNCTIONS = [
    ("posterior", "gap_complement", "posterior.gap_complement", 1),
    ("posterior", "atom_mass", "posterior.atom_mass", 1),
    ("posterior", "atom_threshold", "posterior.atom_threshold", None),
    ("hpd", "endpoint_values", "hpd.endpoint_values", 1),
    ("hpd", "upper_values", "hpd.upper_values", 1),
    ("hpd", "lower_values", "hpd.lower_values", 1),
    ("hpd", "regime_codes", "hpd.regime_codes", 1),
    ("hpd", "hpd_set", "hpd.hpd_set", None),
    ("hpd", "hpd_radii", "hpd.hpd_radii", 1),
    ("hpd", "invert_upper", "hpd.invert_upper", None),
    ("hpd", "invert_lower", "hpd.invert_lower", None),
    ("hpd", "smallest_lower_inverse", "hpd.smallest_lower_inverse", None),
    ("hpd", "onesided_upper_endpoint", "hpd.onesided_upper_endpoint", 1),
    ("hpd", "onesided_lower_endpoint", "hpd.onesided_lower_endpoint", 1),
    ("scanning", "build_grid", "scanning.build_grid", None),
    ("scanning", "graze_points", "scanning.graze_points", None),
    ("scanning", "member_intervals", "scanning.member_intervals", None),
    ("scanning", "sign_change_roots", "scanning.sign_change_roots", None),
    ("coverage", "coverage_exact", "coverage.coverage_exact", None),
    ("coverage", "coverage_curve", "coverage.coverage_curve", None),
    ("coverage", "coverage_mc", "coverage.coverage_mc", None),
    ("coverage", "dip_search", "coverage.dip_search", None),
    ("coverage", "onesided_coverage_exact", "coverage.onesided_coverage_exact", None),
    ("coverage", "check_coverage_bounds", "coverage.check_coverage_bounds", None),
    ("postselect", "post_selection_set", "postselect.post_selection_set", None),
    ("postselect", "credible_set_contains", "postselect.credible_set_contains", 1),
    ("postselect", "conditional_coverage_mc", "postselect.conditional_coverage_mc", None),
    ("figures", "coverage_panels_rows", "figures.coverage_panels_rows", None),
    ("cli", "main", "cli.main", None),
]

# Distribution classes and the law label used in span names.  ``pdf`` is
# pooled over the laws; ``ppf`` and ``cdf`` are kept per law.
LAWS = [("Gaussian", "gaussian"), ("Laplace", "laplace"), ("StudentT3", "t3"),
        ("SubExponential", "subexp")]

# Spans whose output size is recorded (``elems_out``).
_COUNT_OUTPUT = {"scanning.build_grid"}


def _size(value) -> int:
    if isinstance(value, tuple):
        return sum(_size(v) for v in value)
    return int(np.size(value))


class Tracer:
    """Records spans for calls into the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.elems: list[int] = []
        self.nbytes: list[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.elems.append(0)
            self.nbytes.append(0)
        stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self._local.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, name: str, fn, elem_index):
        tracer = self
        count_out = name in _COUNT_OUTPUT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, time.perf_counter())
            if count_out:
                tracer.elems[idx] = _size(out)
            elif elem_index is not None and len(args) > elem_index:
                n_in = _size(args[elem_index])
                tracer.elems[idx] = n_in
                # computed compulsory traffic: each input and output element
                # read or written once as float64 (no cache behaviour implied)
                tracer.nbytes[idx] = 8 * (n_in + _size(out))
            return out

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target in every hpdcover namespace that holds it."""
        import hpdcover.distributions as dists

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "hpdcover" or k.startswith("hpdcover.")) and m is not None]
        for mod_name, attr, name, elem_index in FUNCTIONS:
            orig = getattr(sys.modules[f"hpdcover.{mod_name}"], attr)
            wrapped = self.wrap(name, orig, elem_index)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for cls_name, law in LAWS:
            cls = getattr(dists, cls_name)
            for meth in ("ppf", "cdf", "pdf"):
                orig = cls.__dict__[meth]
                name = "distributions.pdf" if meth == "pdf" else f"distributions.{law}.{meth}"
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, 1))

    def uninstall(self):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def arrays(self):
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        return {
            "name_table": np.array(names),
            "name_id": np.array([ids[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "elems": np.array(self.elems, dtype=np.int64),
            "nbytes": np.array(self.nbytes, dtype=np.int64),
        }

    def write(self, path):
        """Write all spans to a compressed .npz file."""
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, elems, nbytes, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a tree add up to its root's duration.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for i, name in enumerate(a["name_table"]):
            m = a["name_id"] == i
            out[str(name)] = {
                "calls": int(m.sum()),
                "elems": int(a["elems"][m].sum()),
                "nbytes": int(a["nbytes"][m].sum()),
                "total_s": float(dur[m].sum()),
                "self_s": float(self_t[m].sum()),
            }
        return out

    def inside(self, child: str, ancestor: str) -> tuple[int, int]:
        """Calls and elems of ``child`` spans that run under an ``ancestor`` span."""
        under = [False] * len(self.names)
        calls = elems = 0
        for i, name in enumerate(self.names):
            p = self.parent[i]
            under[i] = p >= 0 and (self.names[p] == ancestor or under[p])
            if under[i] and name == child:
                calls += 1
                elems += self.elems[i]
        return calls, elems
