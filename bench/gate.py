"""Correctness gate: every operation's output is checked outside its timed call.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  A failed check counts as a failed operation.  Two classes
of failure are documented defects of the library rather than regressions,
and they are counted in ``failed`` without making the run incorrect:

* any failure of a query from the domain-edge slice (wide band, large |x|,
  tiny w or alpha), where the library is known to underflow, refuse or
  emit warnings;
* a ``bounds`` report whose only failing check is the strict one-sided
  comparison with a margin inside floating-point roundoff (``ROUNDOFF_TIE``).

A later pass that does not reproduce the first pass's output exactly is
never a known defect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())

TOL_EXACT = 1e-9        # accuracy checksum and exact coverage identities
TOL_CREDIBILITY = 1e-6  # posterior probability of an hpd_set against 1 - alpha
TOL_ROOT = 1e-6         # endpoint residual at an inversion root, times (1 + |target|)
TOL_FIXED_POINT = 1e-8  # endpoint residual at the smallest lower inverse, same scaling
# Monte Carlo estimates must sit within Z_MC standard errors of the exact
# value.  A run makes up to ~20 such checks; over the ~800 checks of a few
# dozen runs a 4-se gate would trip by chance about one time in twenty.
Z_MC = 5.0
ROUNDOFF_TIE = "roundoff tie"
TIE_MARGIN = 1e-9
NOT_DETERMINISTIC = "not deterministic"


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli_exit(rc, ok=(0,)) -> str | None:
    return None if rc in ok else f"exit code {rc}"


def check_split_rows(rows, alpha: float, lam_default: float | None = None) -> str | None:
    """C in [0, 1]; C = C- + C+ for theta0 > lam; C = 1 - alpha at lam = 0 and w = 1."""
    if not rows:
        return "no rows written"
    for r in rows:
        lam = float(r["lambda"]) if "lambda" in r else lam_default
        w = float(r["w"]) if "w" in r else 1.0
        t0, c = float(r["theta0"]), float(r["C"])
        cm, cp = float(r["C_minus"]), float(r["C_plus"])
        if not (_finite(t0, c, cm, cp) and -TOL_EXACT <= c <= 1.0 + TOL_EXACT):
            return f"C out of range at lambda={lam} w={w} theta0={t0}: {c}"
        if t0 > lam and abs(c - (cm + cp)) > TOL_EXACT:
            return f"C != C- + C+ at lambda={lam} w={w} theta0={t0}: {c} vs {cm + cp}"
        if lam == 0.0 and w == 1.0 and abs(c - (1.0 - alpha)) > TOL_EXACT:
            return f"C != 1 - alpha at lambda=0 theta0={t0}: {c}"
    return None


def check_figure1(rc, files: dict, alpha: float) -> str | None:
    return check_cli_exit(rc) or check_split_rows(_rows(files["figure1.csv"].decode()), alpha)


def check_coverage_csv(rc, files: dict, name: str, alpha: float, lam: float) -> str | None:
    return check_cli_exit(rc) or check_split_rows(_rows(files[name].decode()), alpha, lam)


def check_bounds(rc, files: dict, name: str) -> str | None:
    """The report must pass; a failure only by a roundoff tie is tagged as such."""
    bad = check_cli_exit(rc, ok=(0, 1))
    if bad:
        return bad
    report = json.loads(files[name])
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    if report["passed"] and not failing:
        return None
    names = ",".join(c["name"] for c in failing)
    if all(c["name"] == "onesided_comparison" and abs(c["margin"]) <= TIE_MARGIN
           for c in failing):
        return f"{ROUNDOFF_TIE}: {names} margin {failing[0]['margin']:.3g}"
    return f"bounds report failed: {names}"


def check_checksum(point, ref: dict) -> str | None:
    if abs(point.C - ref["C"]) > TOL_EXACT:
        return f"checksum drift at {ref['law']} lam={ref['lam']} w={ref['w']} " \
               f"theta0={ref['theta0']}: {point.C!r} vs {ref['C']!r}"
    return None


def _within(est: float, ref: float, n: int, what: str) -> str | None:
    se = math.sqrt(max(est * (1.0 - est), 1.0 / n) / n)
    if not (math.isfinite(est) and abs(est - ref) <= Z_MC * se):
        return f"{what} {est!r} differs from exact {ref!r} by more than {Z_MC} se ({se:.3g})"
    return None


def check_mc_coverage(result, ref: dict, n: int) -> str | None:
    return _within(result[0], ref["C"], n, "coverage_mc")


def check_mc_curve(report, ref: dict, n: int) -> str | None:
    return (_within(float(report.C[0]), ref["C"], n, "curve C")
            or _within(float(report.C_minus[0]), ref["C_minus"], n, "curve C_minus")
            or _within(float(report.C_plus[0]), ref["C_plus"], n, "curve C_plus"))


def check_conditional(result, ref: dict, n: int) -> str | None:
    c_hat, _, rate = result
    kept = max(int(round(rate * n)), 1)
    return _within(c_hat, ref["C"], kept, "conditional coverage")


# -- point queries ---------------------------------------------------------


def check_hpd_set(lib, cfg, x: float, cs) -> str | None:
    """Finite intervals whose posterior probability (with the atom) is 1 - alpha."""
    if cs.regime.name == "ATOM":
        if cs.atom_mass >= 1.0 - cfg.alpha - TOL_CREDIBILITY:
            return None
        return f"atom-only set with atom mass {cs.atom_mass!r} < 1 - alpha"
    ends = [v for iv in cs.intervals for v in iv]
    if not ends or not _finite(*ends):
        return f"non-finite or empty set {cs.intervals}"
    prob = lib.posterior_probability(cfg, x, cs.intervals, cs.atom_included)
    if abs(prob - (1.0 - cfg.alpha)) > TOL_CREDIBILITY:
        return f"credibility {prob!r} != 1 - alpha = {1.0 - cfg.alpha!r}"
    return None


def check_inverse(lib, cfg, upper: bool, target: float, inv) -> str | None:
    roots = np.asarray(inv.roots, float)
    values = (lib.upper_values if upper else lib.lower_values)(cfg, roots)
    resid = np.abs(values - target)
    if roots.size == 0 or not np.all(resid <= TOL_ROOT * (1.0 + abs(target))):
        return f"endpoint residual {float(np.nanmax(resid)) if roots.size else 'n/a'} at roots"
    return None


def check_smallest_inverse(lib, cfg, target: float, root: float) -> str | None:
    resid = abs(float(lib.lower_values(cfg, root)[0]) - target)
    if not resid <= TOL_FIXED_POINT * (1.0 + abs(target)):
        return f"lower-endpoint residual {resid!r} at the fixed point"
    return None


def check_post_selection(lib, cfg, x: float, ps) -> str | None:
    ends = [v for iv in ps.intervals for v in iv]
    if not ends or not _finite(*ends):
        return f"non-finite or empty post-selection set {ps.intervals}"
    mids = np.array([0.5 * (a + b) for a, b in ps.intervals])
    if not np.all(lib.credible_set_contains(cfg, mids, x)):
        return "an interval midpoint is not a member"
    return None


def is_known_defect(edge: bool, reason: str) -> bool:
    """True for the documented defect classes; a repeat that differs never is."""
    if reason.startswith(NOT_DETERMINISTIC):
        return False
    return edge or reason.startswith(ROUNDOFF_TIE)
