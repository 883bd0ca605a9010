"""Jensen concavity and convexity probes.

A weighted mean is Jensen concave when the midpoint inequality

    M((x + y)/2, w)  >=  ( M(x, w) + M(y, w) ) / 2

holds for all entry vectors and weights, and Jensen convex under the
reversed inequality.  Sampling can refute either side but never prove
it, so the sampler reports four verdicts: ``concave`` (only the convex
side was refuted), ``convex`` (only the concave side), ``neither``
(both), ``inconclusive`` (no violation found, e.g. affine means).

Alongside the generic sampler there are three analytic criteria:
a normalized-deviation transform whose midpoint concavity is equivalent
to the mean's, the generator ratio test for quasi-arithmetic means, and
the exact parameter region for the two-parameter power-sum family.

Draw streams are generated in fixed-size chunks keyed by
``(seed, chunk_index)``, so results are reproducible for a given seed
regardless of evaluation order.  Both samplers run on one chunk loop.
Each chunk of means is evaluated through
:func:`~kedlaya.means.evaluate_rows`, which uses the family's own batch
kernel when the handle carries one and evaluates row by row otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import deviation as dev
from .domain import Interval, LINEAR, LOG, NEG_LOG, chebyshev_points, sampling_window
from .errors import MixedSignSecondDerivative, VanishingDerivative
# ``evaluate`` stays a module attribute here: perfbench/tracing.py wraps it
# in every module that binds it.
from .means import MeanHandle, evaluate, evaluate_rows  # noqa: F401

CONCAVE = "concave"
CONVEX = "convex"
NEITHER = "neither"
INCONCLUSIVE = "inconclusive"

_CHUNK = 1024
_DERIVATIVE_SAMPLES = 257
_TRIPLE_SAMPLES = 10_000


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

def _map_window(u: np.ndarray, window: tuple) -> np.ndarray:
    lo, hi, kind = window
    if kind == LOG:
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    if kind == NEG_LOG:
        # mirrored log-uniform: draws are exact negations of the mirrored
        # window's draws for the same uniform stream
        return -np.exp(np.log(-hi) + u * (np.log(-lo) - np.log(-hi)))
    return lo + u * (hi - lo)


def _draw_chunk(window: tuple, n: int, seed: int, chunk_index: int,
                size: int) -> tuple:
    """Deterministic draws for one chunk: entry matrices X, Y and weights W."""
    rng = np.random.default_rng([seed, chunk_index])
    ux = rng.random((size, n))
    uy = rng.random((size, n))
    e = rng.exponential(size=(size, n))
    tscale = rng.uniform(0.5, 2.0, size=(size, 1))
    x = _map_window(ux, window)
    y = _map_window(uy, window)
    w = e / e.sum(axis=1, keepdims=True) * tscale
    return x, y, w


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
    window = sampling_window(mean.domain)

    def chunk_gaps(chunk_index: int, size: int):
        x, y, w = _draw_chunk(window, n, seed, chunk_index, _CHUNK)
        x, y, w = x[:size], y[:size], w[:size]
        mid = evaluate_rows(mean, 0.5 * (x + y), w)
        half = 0.5 * (evaluate_rows(mean, x, w) + evaluate_rows(mean, y, w))
        return mid - half, lambda i: (tuple(x[i]), tuple(y[i]), tuple(w[i]))

    return _sample(chunk_gaps, trials, tol)


def sample_midpoint_concavity(fn: Callable[[float, float], float],
                              window: tuple, trials: int,
                              tol: float = 1e-9, seed: int = 0) -> ConcavityVerdict:
    """Midpoint test for a two-argument function on ``window x window``.

    ``window`` is ``(lo, hi)``; draws are log-uniform when the window is
    positive.  Used to probe the normalized-deviation transform from
    :func:`estar_transform`.  Witnesses are ``(u, v, None)``.
    """
    lo, hi = window
    win = (lo, hi, LOG if lo > 0 else LINEAR)

    def gap(u: np.ndarray, v: np.ndarray) -> float:
        fu, fv = fn(u[0], u[1]), fn(v[0], v[1])
        return fn(0.5 * (u[0] + v[0]), 0.5 * (u[1] + v[1])) - 0.5 * (fu + fv)

    def chunk_gaps(chunk_index: int, size: int):
        rng = np.random.default_rng([seed, chunk_index])
        u = _map_window(rng.random((_CHUNK, 2)), win)[:size]
        v = _map_window(rng.random((_CHUNK, 2)), win)[:size]
        gaps = np.array([gap(ui, vi) for ui, vi in zip(u, v)], dtype=float)
        return gaps, lambda i: (tuple(u[i]), tuple(v[i]), None)

    return _sample(chunk_gaps, trials, tol)


# ---------------------------------------------------------------------------
# Analytic criteria
# ---------------------------------------------------------------------------

def estar_transform(spec: dev.DeviationSpec) -> Callable[[float, float], float]:
    """Normalize a deviation by its diagonal slope: ``-E(x,t) / d2E(t,t)``.

    The deviation mean is Jensen concave exactly when this two-argument
    function is, so the result is meant to be fed into
    :func:`sample_midpoint_concavity`.  Requires ``dE2`` and a
    nonvanishing diagonal slope over the probing window.
    """
    if spec.dE2 is None:
        raise ValueError("spec must carry the second-argument derivative")
    lo, hi, _ = sampling_window(spec.domain)
    for t in chebyshev_points(lo, hi, 32):
        d = spec.dE2(t, t)
        if abs(d) < 1e-12:
            raise VanishingDerivative(
                f"{spec.label}: diagonal slope {d} at t={t}")
    E, dE2 = spec.E, spec.dE2
    return lambda x, t: -E(x, t) / dE2(t, t)


def qa_concavity_condition(gen: dev.GeneratorSpec,
                           samples: int = _DERIVATIVE_SAMPLES,
                           triples: int = _TRIPLE_SAMPLES,
                           seed: int = 0) -> bool:
    """Sampled test of the generator criterion for Jensen concavity.

    True when the second derivative vanishes identically on the samples,
    or when it is nonvanishing with ``f'/f''`` negative at every sample
    and midpoint-convex on sampled pairs.  A sign change across samples
    raises :class:`MixedSignSecondDerivative`.
    """
    if gen.f_prime is None or gen.f_second is None:
        raise ValueError("generator must carry first and second derivatives")
    lo, hi, kind = sampling_window(gen.domain)
    pts = chebyshev_points(lo, hi, samples)
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

    if any(ratio(t) >= 0.0 for t in pts):
        return False
    rng = np.random.default_rng(seed)
    win = (lo, hi, kind)
    a = _map_window(rng.random(triples), win)
    b = _map_window(rng.random(triples), win)
    tol = 1e-9
    for ai, bi in zip(a, b):
        mid = ratio(0.5 * (ai + bi))
        if mid > 0.5 * (ratio(ai) + ratio(bi)) + tol * (1.0 + abs(mid)):
            return False
    return True


def gini_concavity_condition(p, q) -> bool:
    """Exact parameter test ``min(p,q) <= 0 <= max(p,q) <= 1``."""
    pf = Fraction(p) if not isinstance(p, float) else p
    qf = Fraction(q) if not isinstance(q, float) else q
    return min(pf, qf) <= 0 <= max(pf, qf) <= 1


def cdm_condition(f: Callable[[float], float],
                  domain: Interval = dev.POSITIVE,
                  samples: int = _DERIVATIVE_SAMPLES) -> bool:
    """Sampled test that ``f`` is strictly increasing, midpoint concave,
    and vanishes at 1.  Returns False on any failure."""
    try:
        if abs(f(1.0)) > 1e-12:
            return False
        lo, hi, _ = sampling_window(domain)
        pts = sorted(chebyshev_points(lo, hi, samples))
        vals = [f(t) for t in pts]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            return False
        for i in range(len(pts) - 2):
            a, b = pts[i], pts[i + 2]
            fm = f(0.5 * (a + b))
            if fm < 0.5 * (f(a) + f(b)) - 1e-12 * (1.0 + abs(fm)):
                return False
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    return True
