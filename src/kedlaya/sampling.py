"""Random instance generators for sweeps and randomized checks.

Generators take a ``numpy.random.Generator`` so callers control
determinism; a sweep seeds one per block of ``STREAM_BLOCK`` trials.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

import numpy as np

from .errors import FloatOverflow
from .weights import WeightVector, floats_in_range, make_weights
# Nothing here calls ``is_in_V``, but perfbench/tracing.py wraps it at this
# module attribute too.
from .weights import is_in_V  # noqa: F401


_ENTRY_LOGS = (np.log(0.1), np.log(10.0))  # entries_log_uniform's default bounds
STREAM_BLOCK = 1024  # sweep trials per generator; reports depend on it


def entries_log_uniform(rng: np.random.Generator, n: int,
                        lo: float = 0.1, hi: float = 10.0) -> tuple:
    """``n`` positive entries, log-uniform on ``[lo, hi]``."""
    u = rng.uniform(np.log(lo), np.log(hi), size=n)
    return tuple(float(v) for v in np.exp(u))


def weights_positive(rng: np.random.Generator, n: int,
                     lo: float = 0.1, hi: float = 10.0) -> tuple:
    """``n`` positive float weights, log-uniform."""
    return entries_log_uniform(rng, n, lo, hi)


def _v_weight_rows(a: np.ndarray, d: np.ndarray, max_den: int) -> tuple:
    """Exact ``(nums, dens)`` of the weights whose ratios ``w_k / cumsum_k``
    are 1 and then the row's ``a / d`` (``0 < a < d <= max_den``) sorted
    nonincreasing, exactly by a stable argsort of ``a max_den^2 // d``:
    ``w_k = a_k P_{k-1} / Q_k``, ``P_k = prod d_i``, ``Q_k = prod (d_i - a_i)``.
    On int64 while ``max_den ** max(n - 1, 3) <= 2**53``, so all are exact
    doubles and ``nums / dens`` rounds once; on Python ints beyond.  The sort
    keys are int64 while ``max_den**3 < 2**63``, and an assert checks the
    sorted ratios by ``a_k d_{k+1} >= a_{k+1} d_k``, on int64 while
    ``max_den < 2**31``."""
    keys = (a if max_den ** 3 < 2 ** 63 else a.astype(object)) * (max_den * max_den) // d
    order = np.argsort(-keys, axis=1, kind="stable")
    a, d = np.take_along_axis(a, order, 1), np.take_along_axis(d, order, 1)
    pa, pd = (a, d) if max_den < 2 ** 31 else (a.astype(object), d.astype(object))
    assert (pa[:, :-1] * pd[:, 1:] >= pa[:, 1:] * pd[:, :-1]).all()
    dtype = np.int64 if max_den ** max(a.shape[1], 3) <= 2 ** 53 else object
    a, d = a.astype(dtype), d.astype(dtype)
    ones = np.ones((len(a), 1), dtype)
    nums = np.concatenate([ones, a * np.cumprod(np.concatenate([ones, d[:, :-1]], 1), 1)], 1)
    dens = np.cumprod(np.concatenate([ones, d - a], 1), 1)
    return nums, dens


def rational_v_weights(rng: np.random.Generator, n: int,
                       max_den: int = 9) -> WeightVector:
    """Random ratio-nonincreasing weights (:func:`_v_weight_rows`) as reduced
    Fractions; each ratio draws its denominator, then its numerator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, d = np.zeros((2, 1, n - 1), np.int64)
    for k in range(n - 1):
        d[0, k] = den = int(rng.integers(2, max_den + 1))
        a[0, k] = rng.integers(1, den)
    nums, dens = _v_weight_rows(a, d, max_den)
    return make_weights(list(map(Fraction, nums[0].tolist(), dens[0].tolist())), "W0")


def sweep_blocks(seed: int, trials: range, n: int, max_den: int, step: int):
    """Entries, float weights and error of sweep trials ``trials`` as
    ``(rows, n)`` arrays, ``step`` trials at a time.  Trial ``t`` is row
    ``t % STREAM_BLOCK`` of ``default_rng([seed, t // STREAM_BLOCK]).random``'s
    row-major draws, ``3n - 2`` a row: ``n - 1`` give ``d = 2 + floor(u
    (max_den - 1))``, ``n - 1`` give ``a = 1 + floor(u (d - 1))`` (each off
    uniform by at most ``max_den 2^-53`` relative), ``n`` give the entries
    ``exp(log 0.1 + u (log 10 - log 0.1))``; weights are floats of
    :func:`_v_weight_rows`.  The blocks stop before a trial whose weights
    are beyond the float range, with ``floats_in_range``'s error."""
    if not 2 <= max_den <= 2 ** 53:
        raise ValueError(f"max_den must be in [2, 2**53], got {max_den}")
    m, width, (lo, hi) = n - 1, 3 * n - 2, _ENTRY_LOGS
    block = rng = None
    for start in range(trials.start, trials.stop, step):
        stop, parts = min(start + step, trials.stop), []
        for b in range(start // STREAM_BLOCK, (stop - 1) // STREAM_BLOCK + 1):
            first, last = max(start, b * STREAM_BLOCK), min(stop, (b + 1) * STREAM_BLOCK)
            if b != block:  # one generator per block; a mid-block start skips rows
                block, rng = b, np.random.default_rng([seed, b])
                rng.bit_generator.advance((first - b * STREAM_BLOCK) * width)
            parts.append(rng.random((last - first, width)))
        u = np.concatenate(parts)
        d = 2 + (u[:, :m] * (max_den - 1)).astype(np.int64)
        nums, dens = _v_weight_rows(1 + (u[:, m:2 * m] * (d - 1)).astype(np.int64), d, max_den)
        x = np.exp(lo + u[:, 2 * m:] * (hi - lo))
        if nums.dtype != object:  # every weight and sum below 2**53
            yield x, nums / dens, None
            continue
        w = np.empty(x.shape)
        for row, (num, den) in enumerate(zip(nums.tolist(), dens.tolist())):
            try:
                w[row] = floats_in_range(map(truediv, num, den))
            except FloatOverflow as exc:
                yield x[:row], w[:row], exc
                return
        yield x, w, None

