"""Command-line interface: credible sets, coverage, bounds, post-selection, figures.

Subcommands mirror the library: ``hpd`` prints one credible set as JSON,
``coverage`` writes a CSV curve, ``bounds`` runs the coverage-bound report,
``postselect`` / ``postselect-coverage`` handle the inverted sets, and
``figure N`` (N = 1..5) emits the data behind the standard diagnostic
figures with a JSON sidecar.  A ``--config`` file in key=value form supplies
defaults that explicit flags override; --threads (capped by HPD_THREADS) sets
the worker count of Monte Carlo coverage curves, while exact scans are
single-threaded batches.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coverage import _coverage_curves, check_coverage_bounds, thread_count
from .distributions import Distribution, make_distribution, uniform_blocks
from .figures import (
    coverage_panels_rows,
    endpoint_curves_rows,
    length_curves_rows,
    posterior_illustration_rows,
    radius_functions_rows,
)
from .hpd import hpd_set
from .posterior import PriorConfig
from .postselect import conditional_coverage_exact, conditional_coverage_mc, post_selection_set

__all__ = ["RunConfig", "parse_dist_spec", "parse_grid_spec", "cmd_figure", "main"]


def parse_dist_spec(spec: str) -> Distribution:
    """Parse one --dist law: gaussian | laplace | t3 | subexp:ETA; a ValueError names the spec."""
    name, _, tail = spec.strip().partition(":")
    try:
        return make_distribution(name, eta=float(tail) if tail else None)
    except ValueError as exc:
        raise ValueError(f"--dist {spec!r}: {exc}") from None


def parse_grid_spec(spec: str) -> np.ndarray:
    """Parse a:b:n into n evenly spaced points from a to b (finite a <= b, an integer n >= 1)."""
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
        if n >= 1 and math.isfinite(a) and math.isfinite(b) and a <= b:
            return np.linspace(a, b, n)
    except ValueError:
        pass
    raise ValueError(f"--grid takes a:b:n with finite a <= b and an integer n >= 1, got {spec!r}")


@dataclass
class RunConfig:
    """One run's full configuration, as from_dict reads it from a config file's
    key=value text, from flags or from a figure sidecar's JSON."""

    dist: str = "laplace"
    lam: tuple[float, ...] = (0.5,)
    w: tuple[float, ...] = (1.0,)
    alpha: float = 0.05
    grid: str = ""
    x: float = math.nan
    theta0: float = math.nan
    method: str = "exact"
    n: int = 10**6
    seed: int = 0
    threads: int = 0
    fig_grid_n: int = 800
    mirror: bool = True
    out: str = ""
    outdir: str = "."

    def __post_init__(self):
        if not (self.lam and self.w):
            raise ValueError("lam and w each take one value or more")

    def law(self) -> Distribution:
        """The --dist law of every command but figure 1, which alone reads a comma list."""
        if "," in self.dist:
            raise ValueError(f"--dist takes one law (a comma list is for figure 1 only), got {self.dist!r}")
        return parse_dist_spec(self.dist)

    def prior(self) -> PriorConfig:
        """The prior of a single-point command, which refuses a --lambda or --w list."""
        for flag, vals in (("--lambda", self.lam), ("--w", self.w)):
            if len(vals) > 1:
                raise ValueError(f"{flag} takes one value (a comma list is for coverage and figure 1 only), got "
                                 + ",".join(map(repr, vals)))
        return PriorConfig(dist=self.law(), lam=self.lam[0], w=self.w[0], alpha=self.alpha)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The one settings reader: values as text (a config file, a flag) or
        as themselves (a figure sidecar's JSON), each read by _parse_field."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for key, val in data.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _parse_field(fields[key], val)
        return cls(**values)


def _config_pairs(text: str) -> dict:
    """The key=value pairs of a config file, as text; blank and # lines skipped."""
    pairs = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            pairs[key.strip()] = val.strip()
    return pairs


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_TAKES = {"tuple[float, ...]": "a comma list of numbers", "float": "a number", "int": "an integer",
          "bool": "true or false"}


def _parse_field(f, val):
    """val, as text or as itself, read as field f's type; a value that does not
    read is a ValueError naming the key."""
    try:
        if f.type == "tuple[float, ...]":
            return tuple(float(p) for p in (val.split(",") if isinstance(val, str) else val) if p != "")
        if f.type == "bool":
            return _BOOLS[str(val).lower()]
        return {"float": float, "int": int}.get(f.type, str)(val)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"config key {f.name!r} takes {_TAKES[f.type]}, got {val!r}") from None


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's pairs, overridden by every flag given, read in one from_dict call."""
    values = _config_pairs(Path(args.config).read_text()) if args.config else {}
    values.update((f.name, getattr(args, f.name)) for f in dataclasses.fields(RunConfig)
                  if getattr(args, f.name, None) is not None)
    if getattr(args, "fig", None) == 1:  # figure 1 sweeps w unless a flag or config key gives it
        values.setdefault("w", (0.125, 0.25, 0.5, 1.0))
    return RunConfig.from_dict(values)


def _write_text(path: str, text: str):
    if path in ("", "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# dtype kind -> cell: floats with 12 significant digits, integers and
# booleans as integers, text as it is.  An int beyond every numpy integer
# dtype (kind "O", say a seed of 2**64) takes %s, which prints it as %d would.
_CELLS = {"f": "%.12g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def _csv_text(header, blocks) -> str:
    """The one CSV writer: each block's rows come from one row template.

    A block has one entry per column: a constant, formatted once into the
    template, or a 1-d float, integer or string array; both take the
    _CELLS format of their dtype kind.
    """
    parts = [",".join(header) + "\n"]
    for block in blocks:
        columns = [np.asarray(v).tolist() for v in block if np.ndim(v)]
        forms = [_CELLS.get(np.asarray(v).dtype.kind, "%s") for v in block]
        row = ",".join(f if np.ndim(v) else (f % v).replace("%", "%%") for f, v in zip(forms, block))
        values = tuple(v for cells in zip(*columns) for v in cells)
        parts.append((row + "\n") * (len(columns[0]) if columns else 1) % values)
    return "".join(parts)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_hpd(rc: RunConfig) -> int:
    cs = hpd_set(rc.prior(), rc.x)
    payload = {
        "x": cs.x,
        "regime": cs.regime.name,
        "L": None if math.isnan(cs.lower) else cs.lower,
        "U": None if math.isnan(cs.upper) else cs.upper,
        "intervals": [[a, b] for a, b in cs.intervals],
        "length": cs.length,
        "atom": cs.atom_mass,
    }
    _write_text(rc.out, _json_text(payload))
    return 0


def _bits(*values) -> bytes:
    """The float bits of values, a key that keeps 0.0 and -0.0 apart."""
    return struct.pack(f"<{len(values)}d", *values)


def _cmd_coverage(rc: RunConfig) -> int:
    grid = parse_grid_spec(rc.grid)
    law = rc.law()
    if rc.method == "mc":  # a bad draw count or seed is refused once, not once per curve
        uniform_blocks(rc.n, rc.seed)
    threads = thread_count(rc.threads if rc.threads > 0 else None) if rc.method == "mc" else None
    tagged = len(rc.lam) > 1 or len(rc.w) > 1
    header = ["lambda", "w"] * tagged + ["theta0", "C", "C_minus", "C_plus", "frac_I", "frac_II",
                                         "frac_III", "frac_IV", "method", "n", "seed"]
    # Each distinct (lambda, w) is computed once and written at every place
    # it is listed; keyed on the float bits, so 0.0 and -0.0 stay apart.  The
    # curves of one lambda run as one batch, a failure failing all of them.
    curves = {}  # a CoverageReport, or the failure message
    for lam in {_bits(lam): lam for lam in rc.lam}.values():
        cfgs = {}
        for w in {_bits(w): w for w in rc.w}.values():
            try:
                cfgs[_bits(lam, w)] = PriorConfig(dist=law, lam=lam, w=w, alpha=rc.alpha)
            except Exception as exc:  # noqa: BLE001 - enumerate and keep going
                curves[_bits(lam, w)] = str(exc)
        try:
            if cfgs:
                curves.update(zip(cfgs, _coverage_curves(list(cfgs.values()), grid, rc.method, rc.n, rc.seed, threads)))
        except Exception as exc:  # noqa: BLE001 - enumerate and keep going
            curves.update(dict.fromkeys(cfgs, str(exc)))
    blocks, failures = [], []
    for lam in rc.lam:
        for w in rc.w:
            rep = curves[_bits(lam, w)]
            if isinstance(rep, str):
                failures.append((lam, w, rep))
                continue
            blocks.append([lam, w] * tagged + [rep.theta0, rep.C, rep.C_minus, rep.C_plus,
                                               *rep.fractions.values(), rep.method, rep.n, rep.seed])
    _write_text(rc.out, _csv_text(header, blocks))
    for lam, w, msg in failures:
        print(f"coverage failed at lambda={lam} w={w}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_bounds(rc: RunConfig) -> int:
    grid = parse_grid_spec(rc.grid)
    cfg = rc.prior()
    report = check_coverage_bounds(cfg, grid)
    _write_text(rc.out, _json_text(report.to_dict()))
    return 0 if report.passed else 1


def _cmd_postselect(rc: RunConfig) -> int:
    ps = post_selection_set(rc.prior(), rc.x)
    payload = {
        "x": ps.x,
        "alpha": ps.alpha,
        "lambda": ps.lam,
        "intervals": [[a, b] for a, b in ps.intervals],
    }
    _write_text(rc.out, _json_text(payload))
    return 0


def _cmd_postselect_coverage(rc: RunConfig) -> int:
    cfg = rc.prior()
    c_hat, stderr, acc = conditional_coverage_mc(cfg, rc.theta0, rc.n, rc.seed)
    exact = conditional_coverage_exact(cfg, rc.theta0)
    payload = {"coverage": c_hat, "stderr": stderr, "acceptance_rate": acc,
               "theta0": rc.theta0, "n": rc.n, "seed": rc.seed,
               "exact": exact, "z": (c_hat - exact) / stderr}
    _write_text(rc.out, _json_text(payload))
    return 0


def cmd_figure(fig_id: int, rc: RunConfig) -> list[Path]:
    """Emit the CSV + JSON sidecar for one standard figure into rc.outdir (figure 1: each law, lambda and w)."""
    side_extra: dict = {}
    side: dict = {}
    if fig_id == 1:
        side_extra["w_sweep"] = list(rc.w)
        laws = {}  # each listed law parsed once, so that figure 1 scans a repeated one once
        dists = [laws.setdefault(s, parse_dist_spec(s)) for s in rc.dist.split(",")]
        header, blocks = coverage_panels_rows(dists, list(rc.lam), list(rc.w), rc.alpha, rc.fig_grid_n, rc.mirror)
    elif fig_id == 2:
        header, blocks, side = posterior_illustration_rows(make_distribution("gaussian"), rc.alpha)
    elif fig_id == 3:
        header, blocks = radius_functions_rows(rc.law(), rc.alpha)
    elif fig_id == 4:
        header, blocks = endpoint_curves_rows(rc.law(), rc.alpha)
    elif fig_id == 5:
        header, blocks = length_curves_rows(rc.law(), rc.alpha)
    else:
        raise ValueError(f"unknown figure id {fig_id}; expected 1..5")
    outdir = Path(rc.outdir)  # made only once the blocks exist, so a failed figure leaves none
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"figure{fig_id}.csv"
    json_path = outdir / f"figure{fig_id}.json"
    csv_path.write_text(_csv_text(header, blocks))
    sidecar = {
        "figure": fig_id,
        "library_version": __version__,
        "config": dataclasses.asdict(rc),
        "notes": side_extra,
        "series": side,
    }
    json_path.write_text(_json_text(sidecar))
    return [csv_path, json_path]


def _cmd_figure(rc: RunConfig, fig_id: int) -> int:
    paths = cmd_figure(fig_id, rc)
    print("\n".join(str(p) for p in paths))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--dist", help="gaussian | laplace | t3 | subexp:ETA (a comma list for figure 1 only)")
    p.add_argument("--lambda", dest="lam", help="band half-width (comma list allowed)")
    p.add_argument("--w", help="slab weight in (0, 1] (comma list allowed; figure 1 draws "
                               "0.125,0.25,0.5,1 when no w is given)")
    p.add_argument("--alpha", type=float, help="credibility tail level in (0, 1)")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--threads", type=int,
                   help="worker threads for Monte Carlo curves (HPD_THREADS caps this)")
    p.add_argument("--out", help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="hpdcover",
        description="HPD credible sets for banded spike-and-slab priors and their frequentist coverage",
    )
    parser.add_argument("--version", action="version", version=f"hpdcover {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hpd", help="credible set at one observation, as JSON")
    _add_common(p)
    p.add_argument("--x", type=float, help="observed value")

    p = sub.add_parser("coverage", help="coverage curve over a theta0 grid, as CSV")
    _add_common(p)
    p.add_argument("--grid", help="theta0 grid a:b:n")
    p.add_argument("--method", choices=("exact", "mc"), help="exact scan or Monte Carlo")
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument("--n", type=int, help="Monte Carlo draws per point")

    p = sub.add_parser("bounds", help="coverage-bound report over a theta0 grid, as JSON")
    _add_common(p)
    p.add_argument("--grid", help="theta0 grid a:b:n")

    p = sub.add_parser("postselect", help="post-selection set at one observation, as JSON")
    _add_common(p)
    p.add_argument("--x", type=float, help="observed (selected) value")

    p = sub.add_parser("postselect-coverage", help="conditional coverage by Monte Carlo, as JSON")
    _add_common(p)
    p.add_argument("--theta0", type=float, help="true mean")
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument("--n", type=int, help="Monte Carlo draws")

    p = sub.add_parser("figure", help="emit the data behind one standard figure")
    _add_common(p)
    p.add_argument("fig", type=int, choices=(1, 2, 3, 4, 5), help="figure number")
    p.add_argument("--outdir", help="directory for figureN.csv / figureN.json")
    p.add_argument("--fig-grid-n", dest="fig_grid_n", type=int, help="coverage grid density")
    p.add_argument("--no-mirror", dest="mirror", action="store_const", const=False,
                   help="positive theta0 axis only")

    return parser


# Each command's handler and the one input it cannot run without.
_HANDLERS = {
    "hpd": (_cmd_hpd, "x"),
    "coverage": (_cmd_coverage, "grid"),
    "bounds": (_cmd_bounds, "grid"),
    "postselect": (_cmd_postselect, "x"),
    "postselect-coverage": (_cmd_postselect_coverage, "theta0"),
}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# The options whose value may start with '-', and which such values they take.
_GLUED = {"--grid": lambda v: ":" in v, "--x": _is_float, "--theta0": _is_float}


def _glue_values(argv: list[str]) -> list[str]:
    """Read `--grid -10:10:21` as `--grid=-10:10:21` and `--x -1e8` as `--x=-1e8`
    (likewise --theta0): argparse takes a separate value that starts with '-'
    for an option unless it reads as a number without an exponent, like -9.5."""
    out: list[str] = []
    for arg in argv:
        takes = _GLUED.get(out[-1]) if out else None
        if takes and arg.startswith("-") and takes(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "figure" and args.out is not None:
        parser.error("figure writes figureN.csv and figureN.json; choose their directory with --outdir, not --out")
    try:
        rc = _load_config(args)
        if args.command == "figure":
            return _cmd_figure(rc, args.fig)
        handler, needed = _HANDLERS[args.command]
        given = getattr(rc, needed)
        if given == "" or given != given:  # an unset grid is "", an unset x or theta0 NaN
            raise ValueError(f"{args.command} requires --{needed}")
        return handler(rc)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
