"""Seeded op lists for the benchmark workloads.

Every op is one ``kedlaya`` command line.  An op list is a sequence of
*cycles*; each cycle has a fixed composition of op kinds and only the
parameters inside a kind (entries, weights, command seeds) come from the
workload seed.  The runner times a fixed number of whole cycles, so the
mix and the count of ops are the same in every run and the figures do not
depend on where a clock ran out.

Op sizes (trials, n, grid cells) are constants calibrated so that the
kinds of one workload cost about the same at the seed commit; they must
never be derived from a measurement at run time, or the op list would
depend on the machine.

Seeding uses ``random.Random`` with integer seeds only, never ``hash()``,
so an op list is identical across processes and ``PYTHONHASHSEED``
values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("sweep", "scan", "probe", "proof")


@dataclass(frozen=True)
class Op:
    """One command: its argv, a kind label and what the output check needs."""

    kind: str
    argv: tuple
    expect: dict


def _seed_for(workload: str, seed: int) -> int:
    # Integer mixing only; str hashing is randomized per process.
    return seed * 1_000_003 + 7919 * (WORKLOADS.index(workload) + 1)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _entries(rng: random.Random, n: int) -> str:
    return ",".join(f"{_log_uniform(rng, 0.1, 10.0):.6g}" for _ in range(n))


def _nonincreasing_weights(rng: random.Random, n: int) -> str:
    # Nonincreasing positive weights always have nonincreasing ratios
    # w_k / (w_1 + ... + w_k), so the inequality's hypothesis holds.
    ws = sorted((_log_uniform(rng, 0.1, 10.0) for _ in range(n)), reverse=True)
    return ",".join(f"{v:.6g}" for v in ws)


def _cmd_seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


# ---------------------------------------------------------------------------
# sweep: n = 8, ~100 trials, trials scaled so each mean costs the same.
# Many small instances: per-trial weight sampling (exact is_in_V) and the
# prefix inequality dominate; trial batching would show here.
# ---------------------------------------------------------------------------

SWEEP_KINDS = (  # (mean, expectation, trials)
    ("power:0", "holds", 90),
    ("gini:0.5:0", "holds", 100),
    ("qa:log", "holds", 100),
    ("gini21", "reversed", 110),
)


def _sweep_cycle(rng: random.Random) -> list:
    ops = []
    for mean, expect, trials in SWEEP_KINDS:
        argv = ("sweep", "--mean", mean, "--n", "8", "--trials", str(trials),
                "--seed", _cmd_seed(rng), "--expect", expect, "--json")
        ops.append(Op(f"sweep {mean}", argv,
                      {"verdict": expect, "trials": trials, "n": 8}))
    return ops


# ---------------------------------------------------------------------------
# scan: one long instance per op, `check` or one-trial `sweep`.  The same
# inequality layer used the other way: the O(n^2) prefix scans dominate
# and set-up is negligible, so batching across trials shows nothing here.
# ---------------------------------------------------------------------------

SCAN_KINDS = (  # (command, mean, expectation, n range)
    ("check", "power:0", "holds", (172, 188)),
    ("check", "gini:0.5:0", "holds", (204, 220)),
    ("check", "qa:log", "holds", (176, 192)),
    ("check", "gini21", "reversed", (236, 252)),
    ("check", "homdev:shifted-power:0.5", "holds", (52, 60)),
    ("sweep", "power:0", "holds", (148, 164)),
    ("sweep", "gini21", "reversed", (168, 184)),
    ("sweep", "homdev:shifted-power:0.5", "holds", (44, 50)),
)


def _scan_cycle(rng: random.Random) -> list:
    ops = []
    for cmd, mean, expect, (lo, hi) in SCAN_KINDS:
        n = rng.randint(lo, hi)
        if cmd == "check":
            argv = ("check", "--mean", mean, "--x", _entries(rng, n),
                    "--w", _nonincreasing_weights(rng, n), "--expect", expect,
                    "--json")
            expect_doc = {"verdict": expect, "n": n}
        else:
            argv = ("sweep", "--mean", mean, "--n", str(n), "--trials", "1",
                    "--seed", _cmd_seed(rng), "--expect", expect, "--json")
            expect_doc = {"verdict": expect, "trials": 1, "n": n}
        ops.append(Op(f"{cmd} {mean}", argv, expect_doc))
    return ops


# ---------------------------------------------------------------------------
# probe: concavity (twice per mean) and axioms (once per mean).  Mean-level
# work with no prefix inequality: the sampler, row-by-row fallback,
# bisection and exact Fraction accumulation.
# ---------------------------------------------------------------------------

# Known Jensen shape of each probed mean.  power:0.5 = gini(0.5, 0) and the
# homogeneous deviation mean of t^0.5 - 1 is the power mean of order 1/2,
# so both sit inside the concavity region min(p,q) <= 0 <= max(p,q) <= 1;
# gini:2:1 is the paper's Jensen-convex counterexample.
CONCAVITY_KINDS = (  # (mean, trials)
    ("qa:log", 2400),
    ("homdev:shifted-power:0.5", 250),
    ("gini:2:1", 75000),
    ("power:0.5", 90000),
)
AXIOM_KINDS = (  # (mean, trials)
    ("arithmetic", 100),
    ("qa:log", 350),
    ("homdev:shifted-power:0.5", 60),
    ("gini:2:1", 300),
    ("power:0.5", 300),
)


def _probe_cycle(rng: random.Random) -> list:
    ops = []
    for _ in range(2):
        for mean, trials in CONCAVITY_KINDS:
            argv = ("concavity", "--mean", mean, "--trials", str(trials),
                    "--seed", _cmd_seed(rng), "--json")
            ops.append(Op(f"concavity {mean}", argv, {"trials": trials}))
    for mean, trials in AXIOM_KINDS:
        argv = ("axioms", "--mean", mean, "--trials", str(trials),
                "--seed", _cmd_seed(rng), "--json")
        ops.append(Op(f"axioms {mean}", argv, {"trials": trials}))
    # Interleave so that equal-cost kinds do not come in runs.
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# proof: proof-fn at j = n on ratio-nonincreasing rational weights whose
# exact grid size lands in a fixed band, plus a few proportional sets.  The
# only workload that reaches stepfn; memory grows with the grid.
# ---------------------------------------------------------------------------

# Grid-cell bands of one cycle as (target cells, n range, max denominator
# range of the sampled ratios), small first and the 1e6 band last.  The
# denominator ranges are where each band's grids come from most often,
# which keeps the rejection sampling in _proof_ratios short.  The middle of
# the distribution is a plateau of 1e4-cell ops so that the median does not
# fall between two sizes.  The tail latency of a run of seven cycles (see
# RUN_CYCLES in run.py) has the seven 1e6 ops and the three slowest 1e5 ops
# beyond it, so it is the fourth slowest of the 21 1e5 ops.  The narrow n
# ranges make the ops of one band cost alike.
PROOF_BANDS = (
    (1e2, (6, 12), (3, 7)),
    (1e3, (6, 12), (5, 19)),
    *[(1e4, (6, 7), (14, 30))] * 6,
    (3e4, (6, 7), (14, 36)),
    *[(1e5, (6, 7), (18, 38))] * 3,
    (1e6, (8, 9), (30, 40)),
)
# One mean for every proof-fn op, so that ops of one band cost alike; the
# mean families are probe's subject, not this workload's.
PROOF_MEAN = "qa:log"
PROPORTIONAL_PER_CYCLE = 2
_BAND_WIDTH = 0.05  # accept cells within +-5% of the band's target


def _sorted_ratios(rng: random.Random, n: int, max_den: int) -> list:
    """Ratios r_k = w_k / (w_1 + ... + w_k), k = 2..n, nonincreasing in (0, 1)."""
    return sorted((Fraction(rng.randint(1, d - 1), d)
                   for d in (rng.randint(2, max_den) for _ in range(n - 1))),
                  reverse=True)


def weights_from_ratios(ratios: list) -> list:
    """Invert the ratio parametrization exactly, with w_1 = 1.

    S_k = S_(k-1) / (1 - r_k) and w_k = r_k S_k, so nonincreasing ratios
    give weights in V.
    """
    lam = [Fraction(1)]
    acc = Fraction(1)
    for r in ratios:
        acc /= 1 - r
        lam.append(r * acc)
    return lam


def _phi(m: int) -> int:
    out, p = m, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _divisors(q: int) -> set:
    out = set()
    for d in range(1, math.isqrt(q) + 1):
        if q % d == 0:
            out.update((d, q // d))
    return out


def proof_grid_cells(ratios: list) -> int:
    """Cells of the refined grid ``build_proof_function`` makes at j = n
    for the weights ``weights_from_ratios(ratios)``.

    Block k of the left region is cut into q_k columns and q_k rows, q_k
    the denominator of its proportionality ratio w_j S_(k-1) / (w_k S_(j-1)).
    With w_k = r_k S_k and S_k = S_(k-1) / (1 - r_k) that ratio is
    r_j (1 - r_k) / ((1 - r_j) r_k), and 0 for k = 1.  The distinct column
    breakpoints i/q_k number 1 + sum of phi(d) over all divisors d of the
    q_k; the right block adds one more column.
    """
    r_j = ratios[-1]
    odds_j = Fraction(r_j.numerator, r_j.denominator - r_j.numerator)
    qs = [1] + [(odds_j * Fraction(r.denominator - r.numerator, r.numerator)).denominator
                for r in ratios]
    divs = set()
    for q in qs:
        divs |= _divisors(q)
    columns = sum(_phi(d) for d in divs) + 1
    return columns * sum(qs)


def _proof_ratios(rng: random.Random, target: float, n: tuple, max_den: tuple) -> list:
    lo, hi = target * (1 - _BAND_WIDTH), target * (1 + _BAND_WIDTH)
    while True:
        ratios = _sorted_ratios(rng, rng.randint(*n), rng.randint(*max_den))
        if lo <= proof_grid_cells(ratios) <= hi:
            return ratios


def _proportional_op(rng: random.Random) -> Op:
    q = rng.randint(20, 50)
    p = rng.randint(1, q - 1)
    theta = Fraction(p, q)
    corners = []
    for _ in range(2):  # host [a, b) x [c, d) with rational corners
        lo = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        corners += [lo, lo + Fraction(rng.randint(1, 20), rng.randint(1, 9))]
    host = ",".join(str(v) for v in corners)
    argv = ("proportional", "--theta", str(theta), "--host", host, "--json")
    return Op("proportional", argv, {})


def _proof_cycle(rng: random.Random):
    # A generator: the rejection sampling of an op's weights runs only
    # when the op is drawn, so set-up, which draws one op, stays cheap.
    for _ in range(PROPORTIONAL_PER_CYCLE):
        yield _proportional_op(rng)
    for target, n_range, max_den in PROOF_BANDS:
        lam = weights_from_ratios(_proof_ratios(rng, target, n_range, max_den))
        n = len(lam)
        argv = ("proof-fn", "--mean", PROOF_MEAN, "--x", _entries(rng, n),
                "--w", ",".join(str(v) for v in lam), "--j", str(n), "--json")
        yield Op(f"proof-fn {target:.0e}", argv, {"j": n})


_CYCLES = {
    "sweep": _sweep_cycle,
    "scan": _scan_cycle,
    "probe": _probe_cycle,
    "proof": _proof_cycle,
}


# Ops per cycle.
CYCLE_LENGTH = {
    "sweep": len(SWEEP_KINDS),
    "scan": len(SCAN_KINDS),
    "probe": 2 * len(CONCAVITY_KINDS) + len(AXIOM_KINDS),
    "proof": PROPORTIONAL_PER_CYCLE + len(PROOF_BANDS),
}


def iter_ops(workload: str, seed: int):
    """Endless stream of ops for ``workload``, fully determined by ``seed``:
    whole cycles of ``CYCLE_LENGTH[workload]`` ops, one after another.

    Ops are generated lazily from one seeded generator, so a run pays only
    for the ops it uses and no op repeats.
    """
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(_seed_for(workload, seed))
    while True:
        yield from _CYCLES[workload](rng)
