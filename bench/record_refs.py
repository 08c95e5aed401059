"""Record the exact reference values the benchmark's correctness gate holds to.

Run from the repository root at the commit whose numbers are the reference:

    python3 bench/record_refs.py

It rewrites ``bench/references.json``.  The accuracy checksum is a handful
of exact coverage values at fixed (law, lam, w, alpha, theta0); the Monte
Carlo tables give, per law, the exact coverage split and the exact
conditional (post-selection) coverage that the Monte Carlo estimates in the
benchmark are compared against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hpdcover import PriorConfig, coverage_exact, hpd_set, interval_mass  # noqa: E402
from hpdcover.cli import parse_dist_spec  # noqa: E402

LAWS = ["gaussian", "laplace", "t3", "subexp:0.5"]
ALPHA = 0.05

CHECKSUM_POINTS = [
    ("gaussian", 5.0, 1.0, 7.0),
    ("laplace", 5.0, 1.0, 9.7),
    ("t3", 0.5, 1.0, 2.0),
    ("subexp:0.5", 5.0, 1.0, 8.0),
    ("gaussian", 0.5, 0.25, 1.5),
    ("laplace", 2.0, 0.5, 3.0),
]

# (lam, w, theta0) for the coverage Monte Carlo cross-checks.
MC_POINTS = [(0.5, 1.0, 1.5), (2.0, 0.5, 3.0), (5.0, 1.0, 7.0), (5.0, 1.0, 9.0),
             (0.5, 0.25, 2.0), (3.0, 1.0, 4.5)]

# (lam, theta0) for the conditional-coverage cross-checks (w = 1).
COND_POINTS = [(0.5, 1.0), (2.0, 3.0), (5.0, 6.0), (3.0, 2.0)]


def exact_conditional(cfg: PriorConfig, theta0: float) -> float:
    """P(X in CS(theta0) | |X| >= lam) for X = theta0 + Z, from CDF differences."""
    d = cfg.dist
    cs = hpd_set(cfg, theta0)
    hit = sum(float(interval_mass(d, a - theta0, b - theta0)) for a, b in cs.intervals)
    selected = float(d.cdf(-cfg.lam - theta0)) + float(d.cdf(theta0 - cfg.lam))
    return hit / selected


def main() -> int:
    dists = {spec: parse_dist_spec(spec) for spec in LAWS}
    checksum = []
    for law, lam, w, theta0 in CHECKSUM_POINTS:
        cfg = PriorConfig(dists[law], lam, w, ALPHA)
        checksum.append({"law": law, "lam": lam, "w": w, "alpha": ALPHA, "theta0": theta0,
                         "C": coverage_exact(cfg, theta0).C})
    mc = {}
    cond = {}
    for law in LAWS:
        mc[law] = []
        for lam, w, theta0 in MC_POINTS:
            p = coverage_exact(PriorConfig(dists[law], lam, w, ALPHA), theta0)
            mc[law].append({"lam": lam, "w": w, "alpha": ALPHA, "theta0": theta0,
                            "C": p.C, "C_minus": p.C_minus, "C_plus": p.C_plus})
        cond[law] = []
        for lam, theta0 in COND_POINTS:
            c = exact_conditional(PriorConfig(dists[law], lam, 1.0, ALPHA), theta0)
            cond[law].append({"lam": lam, "alpha": ALPHA, "theta0": theta0, "C": c})
    out = {"checksum": checksum, "mc": mc, "conditional": cond}
    (HERE / "references.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
