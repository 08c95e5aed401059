"""Benchmark of the hpdcover library and CLI: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The library is imported from ``src/`` next
to this directory.  Inputs come from ``--seed``; the amount of work is fixed
by ``--seconds`` (about that many seconds of measured work on a 2-core
x86-64 VM at the commit that introduced the benchmark), so two commits run
the same work for the same arguments.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced.
The operations of a workload are run in two or three passes: the first
pass's outputs are checked outside the timed calls (``gate.py``) and later
passes must reproduce them exactly.  Each operation, and each fresh set-up
process, is credited with the median over its timings (one per pass, more
if it appears more than once in a pass) of its wall time rescaled to a
reference machine speed (``speed.py``): Monte Carlo calls by a probe
of large-array work taken right around them, everything else by a probe of
interpreter-bound work.  The plain wall-time figures (best pass) are
printed alongside.  ``--trace 1`` runs one checked pass untraced and one
pass with every public library function wrapped in a span (``tracer.py``),
and reports the per-layer metrics.  The last line of standard output is the
result object; the line before it records provenance, sample counts, the
wall-time figures and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread everywhere: the library's own pools and the BLAS/OpenMP ones.
THREAD_CAPS = {
    "HPD_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

import numpy as np  # noqa: E402  (after the thread caps, which numpy reads on import)

SETUP_REPEATS = 5
SETUP_PROBES = 2        # speed-probe runs right before and right after each set-up process
ARRAY_PROBES = 1        # array-probe runs right before and right after each Monte Carlo call
SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import hpdcover
from hpdcover.cli import parse_dist_spec
for spec in ("gaussian", "laplace", "t3", "subexp:0.5"):
    hpdcover.hpd_set(hpdcover.PriorConfig(parse_dist_spec(spec), 2.0, 0.5, 0.05), 3.0)
"""


def import_library():
    """Import hpdcover from this checkout's src/, refusing any other copy."""
    if not (SRC / "hpdcover" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC / 'hpdcover'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hpdcover
    import hpdcover.cli  # noqa: F401  (not imported by the package itself)

    if Path(hpdcover.__file__).resolve().parent != (SRC / "hpdcover").resolve():
        raise SystemExit(f"error: imported hpdcover from {hpdcover.__file__}, not {SRC}")
    return hpdcover


class SetupTimer:
    """Fresh process to ready: import, build the distributions, one call per law.

    Each call of ``measure`` times one fresh process; the benchmark spreads
    these calls over the run.  ``raw`` holds wall times, ``scaled`` the same
    times rescaled to reference machine speed.
    """

    def __init__(self, probe):
        self.probe = probe
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def measure(self):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        for _ in range(SETUP_PROBES):
            self.probe.probe()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        t1 = time.perf_counter()
        for _ in range(SETUP_PROBES):
            self.probe.probe()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
        self.raw.append(t1 - t0)
        self.scaled.append((t1 - t0) * self.probe.scale(t0, t1))


class Outcome:
    """Per-operation timings and gate results over one or more passes."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]      # seconds, one per pass
        self.starts: list[list[float]] = [[] for _ in ops]     # perf_counter at each call
        self.reasons: list[list] = [[] for _ in ops]           # None or why it failed
        self.units = [0] * len(ops)                            # from the first pass
        self.warned = 0
        self.bytes_written = 0
        same: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            same.setdefault(id(op), []).append(i)
        self.twins = [same[id(op)] for op in ops]   # the positions of the same operation

    def attempted(self) -> int:
        return sum(len(r) for r in self.reasons)

    def failures(self) -> list[tuple]:
        return [(op, r) for op, rs in zip(self.ops, self.reasons) for r in rs if r]

    def distinct(self) -> list[int]:
        """One position per operation: the first where it appears."""
        return [i for i, twins in enumerate(self.twins) if twins[0] == i]

    def timings(self, i: int) -> list[tuple[float, float]]:
        """(seconds, start) of every call of operation ``i``, at all its positions."""
        return [(t, t0) for j in self.twins[i] for t, t0 in zip(self.times[j], self.starts[j])]

    def best(self, i: int) -> float:
        return min(t for t, _ in self.timings(i))

    def typical_scaled(self, i: int, probe) -> float:
        """Median over calls of the time rescaled to reference machine speed."""
        return statistics.median(t * probe.scale(t0, t0 + t) for t, t0 in self.timings(i))

    def total_seconds(self) -> float:
        return sum(sum(t) for t in self.times)


def fingerprint(value) -> str:
    """Exact text form of a result: floats by their hex digits, arrays by bytes."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str + value.tobytes().hex()
    if isinstance(value, np.generic):
        return fingerprint(value.item())
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(fingerprint(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{fingerprint(v)}" for k, v in sorted(value.items())) + "}"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + fingerprint(
            [getattr(value, f.name) for f in dataclasses.fields(value)])
    return repr(value)


def run_passes(ops, passes: int, check: bool, tracer=None, probe=None, array_probe=None,
               setup=None) -> Outcome:
    """Run the operations ``passes`` times over.

    ``probe`` samples machine speed between operations and ``array_probe``
    around each Monte Carlo call; ``setup`` (a SetupTimer) times
    SETUP_REPEATS fresh processes spread over the run.

    With ``check``, the first pass's outputs go through the gate (outside the
    timed calls) and every later pass must reproduce them exactly; a later
    pass that differs is a failed operation.
    """
    import gate

    out = Outcome(ops)
    first: list[tuple] = [(None, None)] * len(ops)   # (fingerprint, reason) of pass 1
    with contextlib.redirect_stdout(io.StringIO()):   # the CLI's own prints
        every = max(1, passes * len(ops) // SETUP_REPEATS)
        for p in range(passes):
            for i, op in enumerate(ops):
                if setup is not None and (p * len(ops) + i) % every == 0 \
                        and len(setup.raw) < SETUP_REPEATS:
                    setup.measure()
                if probe is not None:
                    probe.maybe()
                bracket = array_probe is not None and op.phase == "mc"
                for _ in range(ARRAY_PROBES if bracket else 0):
                    array_probe.probe()
                result, error, files = _execute(op, out, i, tracer)
                for _ in range(ARRAY_PROBES if bracket else 0):
                    array_probe.probe()
                if not check:
                    continue
                if error:
                    reason = error
                elif p == 0:
                    try:
                        reason = op.check(result)
                    except Exception as exc:  # noqa: BLE001 - unreadable output fails the op
                        reason = f"unreadable output: {type(exc).__name__}: {exc}"
                    first[i] = (fingerprint(files[op.outputs[0].name] if op.outputs else result),
                                reason)
                    if reason is None or gate.is_known_defect(op.edge, reason):
                        out.units[i] = op.units(result) if callable(op.units) else op.units
                else:
                    same = fingerprint(files[op.outputs[0].name] if op.outputs else result)
                    reason = first[i][1] if same == first[i][0] else \
                        f"{gate.NOT_DETERMINISTIC}: pass {p + 1} differs from pass 1"
                out.reasons[i].append(reason)
        if probe is not None:
            probe.probe()
    return out


def _execute(op, out: Outcome, i: int, tracer):
    """One timed call; returns (result, error text or None, output files)."""
    for path in op.outputs:
        if path.exists():
            path.unlink()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = error = None
        t0 = time.perf_counter()
        out.starts[i].append(t0)
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.span(f"bench.{op.phase}"):
                    result = op.call()
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        out.times[i].append(time.perf_counter() - t0)
    out.warned += bool(caught)
    files = {path.name: path.read_bytes() for path in op.outputs if path.exists()}
    out.bytes_written += sum(len(b) for b in files.values())
    if op.outputs and error is None:
        result = (result, files)
    return result, error, files


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a beta-weighted mean of
    the order statistics.  Latencies fall in clusters with gaps between them
    (a p50 can sit in such a gap); this estimate moves smoothly with them
    where a single order statistic jumps."""
    from scipy import stats

    x = np.sort(np.asarray(values, float))
    n = x.size
    cdf = stats.beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1.0 - q))
    return float(np.dot(np.diff(cdf), x))


def end_to_end(out: Outcome, setup: list[float], seconds_of) -> tuple[dict, dict]:
    """The end-to-end metrics and their sample counts.

    ``seconds_of(i)`` gives the time credited to operation ``i``; an operation
    that appears at several positions counts once.
    """
    idx: dict[str, list[int]] = {}
    for i in out.distinct():
        idx.setdefault(out.ops[i].phase, []).append(i)

    def rate(phase):
        return sum(out.units[i] for i in idx[phase]) / sum(seconds_of(i) for i in idx[phase])

    bounds = [seconds_of(i) for i in idx["bounds"]]
    queries = idx["query"]
    latencies = [seconds_of(i) * 1e3 for i in queries]
    completed = sum(1 for i in queries if not (out.reasons[i][0] or "").startswith("raised"))
    metrics = {
        "setup_s": statistics.median(setup),
        "exact_points_per_s": rate("exact"),
        "bounds_report_s": statistics.fmean(bounds),   # the reports differ in cost by law
        "mc_draws_per_s": rate("mc"),
        "queries_per_s": completed / (sum(latencies) / 1e3),
        "query_p50_ms": quantile(latencies, 0.50),
        "query_p99_ms": quantile(latencies, 0.99),
        "success_rate": 1.0 - len(out.failures()) / out.attempted(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup),
        "exact_points_per_s": sum(out.units[i] for i in idx["exact"]),
        "bounds_report_s": len(bounds),
        "mc_draws_per_s": sum(out.units[i] for i in idx["mc"]),
        "queries_per_s": len(queries),
        "query_p50_ms": len(latencies),
        "query_p99_ms": len(latencies),
        "success_rate": out.attempted(),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def per_layer(tracer, untraced: Outcome, traced: Outcome, speedup_2t: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the recorded spans."""
    import tracer as tracing

    spans = tracer.summary()

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for _, law in tracing.LAWS:
        for fn in ("ppf", "cdf"):
            name = f"distributions.{law}.{fn}"
            m[f"{name}.elems"] = stat(name, "elems")
            m[f"{name}.self_s"] = stat(name, "self_s")
    m["distributions.pdf.elems"] = stat("distributions.pdf", "elems")
    m["distributions.pdf.self_s"] = stat("distributions.pdf", "self_s")
    with_elems = {"hpd.endpoint_values", "hpd.upper_values", "hpd.lower_values",
                  "hpd.regime_codes", "postselect.credible_set_contains"}
    for _, _, name, _ in tracing.FUNCTIONS:
        if name in ("scanning.build_grid", "figures.coverage_panels_rows"):
            continue
        m[f"{name}.calls"] = stat(name, "calls")
        if name in with_elems:
            m[f"{name}.elems"] = stat(name, "elems")
        m[f"{name}.self_s"] = stat(name, "self_s")
    m["scanning.build_grid.calls"] = stat("scanning.build_grid", "calls")
    m["scanning.build_grid.elems_out"] = stat("scanning.build_grid", "elems")
    m["figures.coverage_panels_rows.self_s"] = stat("figures.coverage_panels_rows", "self_s")

    points = stat("coverage.coverage_exact", "calls")
    calls, elems = tracer.inside("hpd.endpoint_values", "coverage.coverage_exact")
    m["coverage.endpoint_calls_per_point"] = calls / points if points else 0.0
    m["coverage.endpoint_elems_per_point"] = elems / points if points else 0.0
    m["coverage.curve_speedup_2t"] = speedup_2t

    # computed kernel figures: time per element and compulsory bytes per element
    for name in [f"distributions.{law}.ppf" for _, law in tracing.LAWS] + ["hpd.endpoint_values"]:
        n = stat(name, "elems")
        m[f"{name}.ns_per_elem"] = stat(name, "self_s") / n * 1e9 if n else 0.0
        m[f"{name}.bytes_per_elem_computed"] = stat(name, "nbytes") / n if n else 0.0

    m["cli.bytes_written"] = traced.bytes_written
    m["ops.attempted"] = untraced.attempted()
    m["ops.failed"] = len(untraced.failures())
    m["ops.warned"] = untraced.warned
    m["trace.overhead_frac"] = traced.total_seconds() / untraced.total_seconds() - 1.0
    root = stat("bench.root", "total_s")
    layer_self = sum(v["self_s"] for k, v in spans.items() if not k.startswith("bench."))
    m["trace.layer_self_frac"] = layer_self / root if root else 0.0
    return m


def curve_speedup_2t(lib) -> float:
    """Wall time of one fixed laplace curve at 1 thread over that at 2 threads."""
    cfg = lib.PriorConfig(lib.make_distribution("laplace"), 5.0, 1.0, 0.05)
    grid = [5.2 + 0.4 * i for i in range(24)]

    def best(threads: int) -> float:
        os.environ["HPD_THREADS"] = str(threads)
        try:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                lib.coverage.coverage_curve(cfg, grid, threads=threads)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)
        finally:
            os.environ["HPD_THREADS"] = THREAD_CAPS["HPD_THREADS"]

    return best(1) / best(2)


def provenance(args, workload: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "why": workload["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = next((w for w in spec["workloads"] if w["name"] == args.workload), None)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    lib = import_library()
    import speed
    import tracer as tracing
    import workloads

    dists = {law: lib.cli.parse_dist_spec(law) for law in workloads.LAWS}
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        scale = args.seconds / spec["run_seconds"]   # 1 at the size BENCHMARK.json runs
        ops = workloads.build(args.workload, lib, dists, args.seed, scale, workdir)
        if args.trace:
            untraced = run_passes(ops, 1, check=True)
            tracer = tracing.Tracer()
            with tracer:
                with tracer.span("bench.root"):
                    traced = run_passes(ops, 1, check=False, tracer=tracer)
            tracer.write(workdir.parent / f"trace-{args.workload}-{args.seed}.npz")
            metrics = per_layer(tracer, untraced, traced, curve_speedup_2t(lib))
            samples, raw = {}, {}
            outcome = untraced
            table = spec["per_layer"]
        else:
            probe = speed.SpeedProbe()
            array_probe = speed.SpeedProbe(speed.array_kernel, speed.ARRAY_REFERENCE_S,
                                           speed.ARRAY_WINDOW, warm=False)
            setup = SetupTimer(probe)
            outcome = run_passes(ops, workloads.PASSES[args.workload], check=True, probe=probe,
                                 array_probe=array_probe, setup=setup)
            while len(setup.raw) < SETUP_REPEATS:
                setup.measure()

            def seconds_of(i):
                mc = outcome.ops[i].phase == "mc"
                return outcome.typical_scaled(i, array_probe if mc else probe)

            metrics, samples = end_to_end(outcome, setup.scaled, seconds_of)
            raw, _ = end_to_end(outcome, setup.raw, outcome.best)
            table = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import gate

    failures = outcome.failures()
    unexpected = [(op, r) for op, r in failures if not gate.is_known_defect(op.edge, r)]
    units = {m["name"]: m["unit"] for m in table}
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    detail = {
        "provenance": provenance(args, workload),
        "samples": samples,
        "wall_time_metrics": raw,
        "error_rate": len(failures) / outcome.attempted(),
        "known_defects": len(failures) - len(unexpected),
        "failures": [f"{op.kind}{' (edge)' if op.edge else ''}: {r}" for op, r in failures[:20]],
    }
    print(json.dumps(detail))
    result = {
        "correct": not unexpected,
        "attempted": outcome.attempted(),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
