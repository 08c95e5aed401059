"""The three benchmark workloads as seeded lists of operations.

Every workload runs the same kinds of operation, so every end-to-end metric
has a value on every workload; what differs is the share of each kind.

* ``curves_exact`` is mostly ``figure 1``, exact ``coverage`` and ``bounds``
  through the CLI: the membership scan and root refinement dominate.
* ``mc_crosscheck`` is mostly Monte Carlo coverage on arrays of ~1M draws:
  the quantile and endpoint kernels dominate and nothing is scanned.
* ``point_queries`` is mostly a stream of one-answer calls, each on a fresh
  ``PriorConfig``: per-call overhead and scalar paths dominate.

The side portions (a little of the other two kinds in each workload) are
small, fixed in size and, but for their Monte Carlo seeds, the same on
every seed, so the heavy kind sets each workload's profile and the seed
moves only its inputs.  The amount of work comes from ``scale``, so parent
and child commits run identical work for the same arguments.  Two heavy
inputs are the same on every seed too, because the library fails on a
share of them (documented defects, counted as failed operations): the
``bounds`` grid and the domain-edge slice of the point queries.  Drawn from
the seed, either would make the failure count move with the seed.  The
operation list is one pass; the runner repeats it (``PASSES``) to check
determinism and to time each operation over several passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gate

LAWS = ["gaussian", "laplace", "t3", "subexp:0.5"]
ALPHA = 0.05
MC_DRAWS = (1 << 20) + (1 << 16)   # more than one Philox chunk of 2**20 per call
SIDE_QUERIES = 300
QUERIES = 1300                     # per pass: 13 samples beyond the p99
PASSES = {"curves_exact": 3, "mc_crosscheck": 2, "point_queries": 3}

# Kinds in one shuffled block of 30 point queries: 60% hpd_set, the rest
# split across inversion, the fixed-point inverse and post-selection sets.
QUERY_BLOCK = (["hpd_set"] * 18 + ["invert_upper"] * 2 + ["invert_lower"] * 2
               + ["smallest_lower_inverse"] * 4 + ["post_selection_set"] * 4)
EDGE_EVERY = 20                    # one query in 20 comes from the domain edge
# The domain-edge slice and the side queries are drawn from FIXED_SEED, not
# from the run's seed.  Over seeds 0-29 an edge slice of 65 queries (its
# full size) has 0.8 failing queries on average; FIXED_SEED is the first of
# them with one, so the slice shows the library's edge defects at their
# usual share.
FIXED_SEED = 0
BOUNDS_GRID = "5.5:12:8"           # eight targets from 5.5 to 12, as in the README's example
_STEPS = {"lam": 0.6180339887498949, "w": 0.2360679774997898,
          "alpha": 0.7320508075688772, "x": 0.41421356237309515}   # irrational steps


@dataclass
class Op:
    """One timed call into the library, with its correctness check."""

    phase: str                            # checksum | exact | bounds | mc | query
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    units: int | Callable[[object], int] = 1   # points, draws or queries
    edge: bool = False
    outputs: tuple[Path, ...] = field(default_factory=tuple)


class Planner:
    """Turns a seed into operations against the library modules in ``lib``."""

    def __init__(self, lib, dists: dict, rng: np.random.Generator, workdir: Path):
        self.lib = lib
        self.dists = dists
        self.rng = rng
        self.workdir = workdir
        self._n_files = 0
        self._strata: dict = {}

    def _path(self, name: str) -> Path:
        self._n_files += 1
        return self.workdir / f"{self._n_files:03d}-{name}"

    # -- accuracy checksum ---------------------------------------------

    def checksum(self) -> list[Op]:
        lib = self.lib
        ops = []
        for ref in gate.REFERENCES["checksum"]:
            cfg = lib.PriorConfig(self.dists[ref["law"]], ref["lam"], ref["w"], ref["alpha"])
            ops.append(Op("checksum", "coverage_exact",
                          lambda cfg=cfg, t=ref["theta0"]: lib.coverage.coverage_exact(cfg, t),
                          lambda p, ref=ref: gate.check_checksum(p, ref)))
        return ops

    # -- exact curves through the CLI ----------------------------------

    def _cli(self, phase, kind, argv, out: Path, check, units=1) -> Op:
        lib = self.lib
        return Op(phase, kind, lambda: lib.cli.main(argv), check, units=units, outputs=(out,))

    def figure1(self, fig_n: int) -> Op:
        outdir = self._path("figure1")
        argv = ["figure", "1", "--dist", "gaussian,laplace,t3", "--lambda", "0.5,5",
                "--alpha", repr(ALPHA), "--fig-grid-n", str(fig_n), "--threads", "1",
                "--outdir", str(outdir)]
        op = self._cli("exact", "figure1", argv, outdir,
                       lambda r: gate.check_figure1(r[0], r[1], ALPHA),
                       units=lambda r: r[1]["figure1.csv"].count(b"\n") - 1)
        op.outputs = (outdir / "figure1.csv", outdir / "figure1.json")
        return op

    def coverage_grid(self, n_points: int) -> str:
        a = float(self.rng.uniform(5.1, 5.2))
        b = a + float(self.rng.uniform(9.4, 9.6))
        return f"{a!r}:{b!r}:{n_points}"

    def coverage_cli(self, law: str, lams: str, grid: str) -> Op:
        out = self._path("coverage.csv")
        argv = ["coverage", "--dist", law, "--lambda", lams, "--w", "1", "--alpha", repr(ALPHA),
                "--grid", grid, "--method", "exact", "--threads", "1", "--out", str(out)]
        lam0 = float(lams.split(",")[0])
        return self._cli("exact", f"coverage:{law}", argv, out,
                         lambda r: gate.check_coverage_csv(r[0], r[1], out.name, ALPHA, lam0),
                         units=lambda r: r[1][out.name].count(b"\n") - 1)

    def bounds_cli(self, law: str) -> Op:
        out = self._path(f"bounds-{law.replace(':', '')}.json")
        argv = ["bounds", "--dist", law, "--lambda", "5", "--w", "1", "--alpha", repr(ALPHA),
                "--grid", BOUNDS_GRID, "--threads", "1", "--out", str(out)]
        return self._cli("bounds", f"bounds:{law}", argv, out,
                         lambda r: gate.check_bounds(r[0], r[1], out.name))

    # The side portions use fixed inputs: they are small, and seed-drawn
    # inputs would move their cost more than the machine's noise does.

    def exact_side(self, full: bool) -> list[Op]:
        """Three short exact laplace curves through the CLI."""
        grid = f"5.15:14.65:{12 if full else 3}"
        return [self.coverage_cli("laplace", "5", grid) for _ in range(3)]

    def bounds_side(self) -> list[Op]:
        """Three subexp:0.5 bounds reports (the dip check is skipped for this law)."""
        return [self.bounds_cli("subexp:0.5") for _ in range(3)]

    # -- Monte Carlo ----------------------------------------------------

    def mc_side(self, draws: int) -> list[Op]:
        return [self.mc_coverage(law, draws, entry=k)
                for k, law in enumerate(("laplace", "gaussian") * 2)]

    def mc_pair(self, law: str, draws: int) -> list[Op]:
        """A Monte Carlo curve and a coverage_mc call at reference points k and k + 3.

        The six points per law pair up into sums of nearly equal cost, so the
        seed's choice of k moves the workload's cost little.
        """
        k = int(self.rng.integers(3))
        return [self.mc_curve(law, draws, entry=k), self.mc_coverage(law, draws, entry=k + 3)]

    def mc_curve(self, law: str, draws: int, entry: int) -> Op:
        lib, ref = self.lib, gate.REFERENCES["mc"][law][entry]
        cfg = lib.PriorConfig(self.dists[law], ref["lam"], ref["w"], ref["alpha"])
        seed = int(self.rng.integers(2**31))
        return Op("mc", f"coverage_curve:{law}",
                  lambda: lib.coverage.coverage_curve(cfg, [ref["theta0"]], method="mc",
                                                      n=draws, seed=seed, threads=1),
                  lambda r: gate.check_mc_curve(r, ref, draws), units=draws)

    def mc_coverage(self, law: str, draws: int, entry: int) -> Op:
        lib, ref = self.lib, gate.REFERENCES["mc"][law][entry]
        cfg = lib.PriorConfig(self.dists[law], ref["lam"], ref["w"], ref["alpha"])
        seed = int(self.rng.integers(2**31))
        return Op("mc", f"coverage_mc:{law}",
                  lambda: lib.coverage.coverage_mc(cfg, ref["theta0"], draws, seed),
                  lambda r: gate.check_mc_coverage(r, ref, draws), units=draws)

    def mc_conditional(self, law: str, draws: int) -> Op:
        entries = gate.REFERENCES["conditional"][law]
        lib, ref = self.lib, entries[int(self.rng.integers(len(entries)))]
        cfg = lib.PriorConfig(self.dists[law], ref["lam"], 1.0, ref["alpha"])
        seed = int(self.rng.integers(2**31))
        return Op("mc", f"conditional_coverage_mc:{law}",
                  lambda: lib.postselect.conditional_coverage_mc(cfg, ref["theta0"], draws, seed),
                  lambda r: gate.check_conditional(r, ref, draws), units=draws)

    # -- point queries --------------------------------------------------

    def queries(self, n: int) -> list[Op]:
        """``n`` point queries; one in EDGE_EVERY is from the domain-edge slice."""
        n_edge = n // EDGE_EVERY
        ops = self.stream(n - n_edge, edge=False)
        offset = int(self.rng.integers(EDGE_EVERY))
        for k, op in enumerate(self._fixed().stream(n_edge, edge=True)):
            ops.insert(offset + k * EDGE_EVERY, op)
        return ops

    def side_queries(self, n: int) -> list[Op]:
        """``n`` point queries without the edge slice, the same on every seed."""
        return self._fixed().stream(n, edge=False)

    def _fixed(self) -> Planner:
        return Planner(self.lib, self.dists, np.random.default_rng(FIXED_SEED), self.workdir)

    def stream(self, n: int, edge: bool) -> list[Op]:
        """``n`` queries in shuffled blocks of QUERY_BLOCK, laws taken in turn per kind.

        A last, partial block takes the kinds in an even spread, so the mix
        of kinds does not move with the seed.
        """
        rng = self.rng
        full, rest = divmod(n, len(QUERY_BLOCK))
        kinds: list[str] = []
        for _ in range(full):
            block = list(QUERY_BLOCK)
            rng.shuffle(block)
            kinds.extend(block)
        by_kind = [[k] * QUERY_BLOCK.count(k) for k in dict.fromkeys(QUERY_BLOCK)]
        tail = interleave(*by_kind)[:rest]
        rng.shuffle(tail)
        kinds.extend(tail)
        turn = {k: int(rng.integers(len(LAWS))) for k in sorted(set(QUERY_BLOCK))}
        ops = []
        for kind in kinds:
            law = LAWS[turn[kind] % len(LAWS)]
            turn[kind] += 1
            ops.append(self._query(kind, law, edge))
        return ops

    def _u(self, group, param: str) -> float:
        """Next point of a seed-shifted Kronecker sequence for (group, param).

        Successive queries of one kind and law spread evenly over each range,
        so the mix of regimes, and with it the cost, varies little by seed.
        """
        state = self._strata.setdefault((group, param), [float(self.rng.random()), 0])
        state[1] += 1
        return (state[0] + state[1] * _STEPS[param]) % 1.0

    def _params(self, kind: str, law: str, edge: bool):
        """(lam, w, alpha, big, u) for one query; ``big`` asks for |x| in [50, 100]
        and ``u`` in [0, 1) places x in its regular range."""
        rng = self.rng
        group = (kind, law, edge)
        coin = (lambda: rng.random() < 0.5) if edge else (lambda: False)
        lam = 30.0 + 10.0 * rng.random() if coin() else 5.0 * self._u(group, "lam")
        w = 10.0 ** rng.uniform(-6.0, -3.0) if coin() else \
            (0.25 if self._u(group, "w") < 0.5 else 1.0)
        alpha = 10.0 ** rng.uniform(-6.0, -3.0) if coin() else 0.01 + 0.09 * self._u(group, "alpha")
        if kind == "post_selection_set":
            w = 1.0
        return float(lam), float(w), float(alpha), coin(), self._u(group, "x")

    def _query(self, kind: str, law: str, edge: bool) -> Op:
        lib, rng, dist = self.lib, self.rng, self.dists[law]
        lam, w, alpha, big, u = self._params(kind, law, edge)
        sign = float(rng.choice([-1.0, 1.0]))
        far = float(rng.uniform(50.0, 100.0))
        if kind == "smallest_lower_inverse":
            t_alpha = lib.PriorConfig(dist, lam, w, alpha).t_alpha
            if not math.isfinite(t_alpha) and t_alpha > 0:
                w = 1.0   # the atom swallows every x: no valid target exists
                t_alpha = -math.inf
            lo = max(lam, t_alpha)
            x = far if big and lo < 50.0 else lo + 0.5 + 7.5 * u
        elif kind == "hpd_set":
            x = sign * (far if big else (lam + 6.0) * u)
        elif kind == "post_selection_set":
            x = sign * (far if big else lam + 6.0 * u)
        else:
            x = far if big else lam + 0.5 + 7.5 * u

        def fresh():
            return lib.PriorConfig(dist, lam, w, alpha)

        cfg = fresh()   # the checks' own copy, built outside the timed call
        if kind == "hpd_set":
            call = lambda: lib.hpd.hpd_set(fresh(), x)
            check = lambda r: gate.check_hpd_set(lib, cfg, x, r)
        elif kind in ("invert_upper", "invert_lower"):
            upper = kind == "invert_upper"
            fn = "invert_upper" if upper else "invert_lower"
            call = lambda: getattr(lib.hpd, fn)(fresh(), x)
            check = lambda r: gate.check_inverse(lib, cfg, upper, x, r)
        elif kind == "smallest_lower_inverse":
            call = lambda: lib.hpd.smallest_lower_inverse(fresh(), x)
            check = lambda r: gate.check_smallest_inverse(lib, cfg, x, r)
        else:
            call = lambda: lib.postselect.post_selection_set(fresh(), x)
            check = lambda r: gate.check_post_selection(lib, cfg, x, r)
        return Op("query", f"{kind}:{law}", call, check, edge=edge)


def interleave(*lists: list) -> list:
    """Merge lists so that each is spread evenly over the whole merged list."""
    keyed = [((i + 0.5) / len(ops), j, op) for j, ops in enumerate(lists)
             for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


def build(workload: str, lib, dists: dict, seed: int, scale: float, workdir: Path) -> list[Op]:
    """One pass of a run, in execution order (accuracy checksum first).

    ``scale`` 1 is the size the benchmark is run at; smaller values shrink
    the counts (a tiny scale is for the self-test only).
    """
    b = Planner(lib, dists, np.random.default_rng(seed), workdir)
    full = scale >= 0.5
    draws = MC_DRAWS if full else (1 << 16) + 1000
    side_q = max(30, round(SIDE_QUERIES * min(scale, 1.0)))
    if workload == "curves_exact":
        heavy = [b.figure1(4 if full else 2),
                 b.coverage_cli("subexp:0.5", "0,5", b.coverage_grid(30 if full else 4))]
        heavy += [b.bounds_cli(law) for law in ("laplace", "gaussian", "subexp:0.5")]
        side = [b.mc_side(draws), b.side_queries(side_q)]
    elif workload == "mc_crosscheck":
        heavy = [op for law in LAWS for op in b.mc_pair(law, draws) + [b.mc_conditional(law, draws)]]
        # two passes only (the Monte Carlo calls are long): the small side
        # operations appear several times per pass to get more timings each
        side = [b.exact_side(full) * 2, b.bounds_side()[:1] * 3,
                b.side_queries(side_q // 2) * 2]
    elif workload == "point_queries":
        heavy = b.queries(max(60, round(QUERIES * scale)))
        side = [b.exact_side(full), b.bounds_side(), b.mc_side(draws)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.checksum() + interleave(heavy, *side)
