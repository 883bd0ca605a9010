"""Jensen concavity and convexity probes.

A weighted mean is Jensen concave when the midpoint inequality

    M((x + y)/2, w)  >=  ( M(x, w) + M(y, w) ) / 2

holds for all entry vectors and weights, and Jensen convex under the
reversed inequality.  Sampling can refute either side but never prove
it, so the sampler reports four verdicts: ``concave`` (only the convex
side was refuted), ``convex`` (only the concave side), ``neither``
(both), ``inconclusive`` (no violation found, e.g. affine means).

Alongside the generic sampler there are two analytic criteria: the
generator ratio test for quasi-arithmetic means, which reads the domain on
one grid, :func:`~kedlaya.domain.probe_points`, and draws its midpoint
pairs through :func:`sample_midpoint_concavity`, and the exact parameter
region for the two-parameter power-sum family.

Draw streams are generated in fixed-size chunks keyed by
``(seed, chunk_index)``, so results are reproducible for a given seed
regardless of evaluation order.  Both samplers run on one chunk loop.
Each chunk of means is evaluated in one
:func:`~kedlaya.means.evaluate_rows` call on its midpoint, ``x`` and ``y``
rows: every built-in family has a batch kernel (the quasi-arithmetic one
is the exact prefix driver, bit for bit), and only custom deviations and
homogeneous deviations of a caller's ``f`` go row by row.  The uniforms
and exponentials of a chunk are drawn into one block and mapped onto the
window in place, and the rows and their weights are written straight into
two column-major buffers, the layout the kernels take, allocated once per
probe: no chunk is concatenated or copied to column-major order.  Two
chunks a call were measured and rejected: the ``probe`` workload's median
op got slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import deviation as dev
from .domain import LINEAR, LOG, NEG_LOG, probe_points, sampling_window
from .errors import MixedSignSecondDerivative, NegativeSeed
# ``evaluate`` stays a module attribute here: perfbench/tracing.py wraps it
# in every module that binds it.
from .means import MeanHandle, evaluate, evaluate_rows  # noqa: F401

CONCAVE = "concave"
CONVEX = "convex"
NEITHER = "neither"
INCONCLUSIVE = "inconclusive"

_CHUNK = 1024
_DERIVATIVE_SAMPLES = 257
_MIDPOINT_PAIRS = 10_000


@dataclass(frozen=True)
class ConcavityVerdict:
    """Outcome of midpoint sampling.

    ``worst_violation`` is the largest midpoint-gap magnitude that crossed
    the tolerance (0.0 when the verdict is inconclusive); ``witness`` is
    the ``(x, y, w)`` triple achieving it, present whenever any side was
    refuted.
    """

    verdict: str
    worst_violation: float
    witness: Optional[tuple]
    trials: int

    def to_dict(self) -> dict:
        wit = None
        if self.witness is not None:  # midpoint witnesses carry no weights
            wit = {k: None if v is None else list(v) for k, v in zip("xyw", self.witness)}
        return {"verdict": self.verdict, "worst_violation": self.worst_violation,
                "witness": wit, "trials": self.trials}


# ---------------------------------------------------------------------------
# Chunked draw stream
# ---------------------------------------------------------------------------

def _window_map(window: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """The map of uniform draws ``u`` onto ``window``, in place on ``u``:
    log-uniform on a ``LOG`` window, affine on a ``LINEAR`` one.  A
    ``NEG_LOG`` window's draws are the exact negations of the mirrored
    window's for the same stream.  The window's constants are computed once;
    numpy's ``exp`` runs on ``u`` as laid out, whose bits can depend on the
    layout, so ``u`` should be one contiguous block."""
    lo, hi, kind = window
    if kind == LOG:
        a, b = np.log(lo), np.log(hi) - np.log(lo)
    elif kind == NEG_LOG:
        a, b = np.log(-hi), np.log(-lo) - np.log(-hi)
    else:
        a, b = lo, hi - lo

    def map_onto(u: np.ndarray) -> np.ndarray:
        u *= b
        u += a
        if kind != LINEAR:
            np.exp(u, out=u)
        if kind == NEG_LOG:
            np.negative(u, out=u)
        return u

    return map_onto


def _row_sums(e: np.ndarray) -> np.ndarray:
    """``e.sum(axis=1, keepdims=True)``, bit for bit.  numpy sums a row of
    fewer than 8 entries in sequence, as a loop over the columns does, and
    that loop is the faster on such short rows (about 17 us less a chunk at
    ``n = 2``); a longer row numpy sums pairwise."""
    if e.shape[1] >= 8:
        return e.sum(axis=1, keepdims=True)
    s = e[:, :1].copy()
    for j in range(1, e.shape[1]):
        s += e[:, j:j + 1]
    return s


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------

def _sample(chunk_gaps: Callable, trials: int, tol: float) -> ConcavityVerdict:
    """The chunk loop shared by both samplers.

    ``chunk_gaps(chunk_index, size)`` returns the midpoint gaps
    ``mid - half`` of one chunk and a function from a row index to that
    row's witness.  A side is refuted by a gap beyond ``tol``; the worst
    gap of each side is kept (the first row reaching it), and NaN gaps
    count as no breach.
    """
    worst_concave = worst_convex = 0.0  # breaches of the concave / convex side
    wit_concave = wit_convex = None
    done = chunk_index = 0
    while done < trials:
        size = min(_CHUNK, trials - done)
        gap, witness_of = chunk_gaps(chunk_index, size)
        gap = np.where(np.isnan(gap), 0.0, gap)
        i_min, i_max = int(np.argmin(gap)), int(np.argmax(gap))
        if -gap[i_min] > max(tol, worst_concave):
            worst_concave, wit_concave = -float(gap[i_min]), witness_of(i_min)
        if gap[i_max] > max(tol, worst_convex):
            worst_convex, wit_convex = float(gap[i_max]), witness_of(i_max)
        done += size
        chunk_index += 1
    broke_concave, broke_convex = worst_concave > tol, worst_convex > tol
    if broke_concave and broke_convex:
        verdict = NEITHER
    elif broke_concave:
        verdict = CONVEX
    elif broke_convex:
        verdict = CONCAVE
    else:
        verdict = INCONCLUSIVE
    witness = None
    if verdict != INCONCLUSIVE:
        witness = wit_concave if worst_concave >= worst_convex else wit_convex
    return ConcavityVerdict(verdict, max(worst_concave, worst_convex), witness,
                            trials)


def sample_jensen_concavity(mean: MeanHandle, n: int, trials: int,
                            tol: float = 1e-9, seed: int = 0) -> ConcavityVerdict:
    """Randomized midpoint test of Jensen concavity/convexity.

    Entries are drawn log-uniform over the domain's probing window (so
    extreme ratios, where concavity fails first, are well represented)
    and weights uniform on the simplex with a random positive rescale.
    A violation must exceed ``tol`` to count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise NegativeSeed(f"seed must be >= 0, got {seed}")
    map_onto = _window_map(sampling_window(mean.domain))
    draws = np.empty((3, _CHUNK, n))  # a chunk's uniforms for x and y, and its exponentials
    # the chunk's midpoint, x and y rows and their weights, column-major as the
    # kernels take them (see evaluate_rows): a partial chunk's are a prefix
    entries, weights = np.empty(3 * _CHUNK * n), np.empty(3 * _CHUNK * n)

    def chunk_gaps(chunk_index: int, size: int):
        rng = np.random.default_rng([seed, chunk_index])
        rng.random(out=draws[:2])
        rng.standard_exponential(out=draws[2])
        tscale = rng.uniform(0.5, 2.0, size=(_CHUNK, 1))
        map_onto(draws[:2])
        x, y, e = draws[:, :size]
        rows = entries[:3 * size * n].reshape((3 * size, n), order="F")
        np.add(x, y, out=rows[:size])
        rows[:size] *= 0.5
        rows[size:2 * size], rows[2 * size:] = x, y
        row_weights = weights[:3 * size * n].reshape((3 * size, n), order="F")
        w = row_weights[:size]
        np.divide(e, _row_sums(e), out=w)
        w *= tscale[:size]
        row_weights[size:2 * size] = row_weights[2 * size:] = w
        # one call on the midpoint, x and y rows: a row's value does not
        # depend on the rows beside it
        mid, fx, fy = evaluate_rows(mean, rows, row_weights).reshape(3, size)
        return mid - 0.5 * (fx + fy), lambda i: (tuple(x[i]), tuple(y[i]), tuple(w[i]))

    return _sample(chunk_gaps, trials, tol)


def sample_midpoint_concavity(fn: Callable[[float, float], float],
                              window: tuple, trials: int,
                              tol: float = 1e-9, seed: int = 0) -> ConcavityVerdict:
    """Midpoint test for a two-argument function on ``window x window``.

    ``window`` is ``(lo, hi)``; draws are log-uniform when the window is
    positive.  :func:`qa_concavity_condition` probes its generator ratio
    with it.  Witnesses are ``(u, v, None)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise NegativeSeed(f"seed must be >= 0, got {seed}")
    lo, hi = window
    map_onto = _window_map((lo, hi, LOG if lo > 0 else LINEAR))

    def gap(u: np.ndarray, v: np.ndarray) -> float:
        fu, fv = fn(u[0], u[1]), fn(v[0], v[1])
        return fn(0.5 * (u[0] + v[0]), 0.5 * (u[1] + v[1])) - 0.5 * (fu + fv)

    def chunk_gaps(chunk_index: int, size: int):
        rng = np.random.default_rng([seed, chunk_index])
        u = map_onto(rng.random((_CHUNK, 2)))[:size]
        v = map_onto(rng.random((_CHUNK, 2)))[:size]
        gaps = np.array([gap(ui, vi) for ui, vi in zip(u, v)], dtype=float)
        return gaps, lambda i: (tuple(u[i]), tuple(v[i]), None)

    return _sample(chunk_gaps, trials, tol)


# ---------------------------------------------------------------------------
# Analytic criteria
# ---------------------------------------------------------------------------

def qa_concavity_condition(gen: dev.GeneratorSpec) -> bool:
    """Sampled test of the generator criterion for Jensen concavity.

    True when the second derivative vanishes identically on the probe
    points, or when it is nonvanishing with ``f'/f''`` negative at every
    probe point and, scaled to unit size, not refuted as midpoint convex
    by :func:`sample_midpoint_concavity` (10 000 pairs, seed 0).  A sign
    change across probe points raises :class:`MixedSignSecondDerivative`.
    """
    if gen.f_prime is None or gen.f_second is None:
        raise ValueError("generator must carry first and second derivatives")
    pts = probe_points(gen.domain, _DERIVATIVE_SAMPLES)
    second = [gen.f_second(t) for t in pts]
    scale = max(abs(gen.f_prime(t)) for t in pts)
    zero_tol = 1e-12 * (1.0 + scale)
    if all(abs(s) <= zero_tol for s in second):
        return True
    if any(s > zero_tol for s in second) and any(s < -zero_tol for s in second):
        raise MixedSignSecondDerivative("second derivative changes sign")
    if any(abs(s) <= zero_tol for s in second):
        return False  # neither identically zero nor nowhere zero

    def ratio(t: float) -> float:
        return gen.f_prime(t) / gen.f_second(t)

    ratios = [ratio(t) for t in pts]
    if any(r >= 0.0 for r in ratios):
        return False
    # midpoint convexity is scale-free; on a unit scale the sampler's
    # absolute tolerance is relative to the ratio's size
    unit = -min(ratios)
    sampled = sample_midpoint_concavity(lambda a, _: ratio(a) / unit,
                                        sampling_window(gen.domain)[:2], _MIDPOINT_PAIRS)
    return sampled.verdict in (CONVEX, INCONCLUSIVE)


def gini_concavity_condition(p, q) -> bool:
    """Exact parameter test ``min(p,q) <= 0 <= max(p,q) <= 1``."""
    pf = Fraction(p) if not isinstance(p, float) else p
    qf = Fraction(q) if not isinstance(q, float) else q
    return min(pf, qf) <= 0 <= max(pf, qf) <= 1
