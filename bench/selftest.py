"""Self-test of the benchmark at a tiny size (about three minutes on 2 cores).

    python3 bench/selftest.py

Checks that:
* every metric named in BENCHMARK.json prints with its unit, for every
  workload, untraced and traced, and the run is judged correct;
* the per-layer self times add up to the traced root span to within
  ``trace.overhead_frac`` (at least 1%: at this size the overhead estimate
  itself is noise of that order and can come out negative);
* the gate fires on a deliberately wrong reference value;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec: dict, problems: list[str]):
    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{tag}: judged incorrect: {proc.stdout.splitlines()[-2][-600:]}")
            want = {m["name"]: m["unit"] for m in table}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                gap = abs(1.0 - m["trace.layer_self_frac"])
                if gap > max(abs(m["trace.overhead_frac"]), 0.01):
                    problems.append(f"{tag}: layer self times miss the root span by {gap:.3f}, "
                                    f"more than trace.overhead_frac {m['trace.overhead_frac']:.3f}")
            print(f"ok {tag}", flush=True)


def check_gate_fires(problems: list[str]):
    sys.path.insert(0, str(HERE))
    import run

    lib = run.import_library()
    import gate
    import workloads

    dists = {law: lib.cli.parse_dist_spec(law) for law in workloads.LAWS}
    saved = copy.deepcopy(gate.REFERENCES)
    try:
        gate.REFERENCES["checksum"][0]["C"] += 1e-6
        for law in workloads.LAWS:
            for entry in gate.REFERENCES["conditional"][law]:
                entry["C"] -= 0.05
        b = workloads.Planner(lib, dists, run.np.random.default_rng(0), ROOT)
        ops = b.checksum()[:1] + [b.mc_conditional("laplace", workloads.MC_DRAWS)]
        out = run.run_passes(ops, 1, check=True)
        reasons = [r for _, r in out.failures()]
        if len(reasons) != 2 or not reasons[0].startswith("checksum drift"):
            problems.append(f"gate did not fire on wrong references: {reasons}")
    finally:
        gate.REFERENCES.clear()
        gate.REFERENCES.update(saved)
    print("ok gate fires on wrong references", flush=True)


def check_bare_directory(problems: list[str]):
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "point_queries", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or '"metrics"' in last:
            problems.append("benchmark ran without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the library", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_gate_fires(problems)
    check_bare_directory(problems)
    check_metrics(spec, problems)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
