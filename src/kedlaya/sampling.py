"""Random instance generators for sweeps and randomized checks.

All generators take a ``numpy.random.Generator`` so callers control
determinism; sweep code seeds one generator per trial index.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

import numpy as np

from .errors import FloatOverflow
from .weights import (WeightVector, floats_in_range, is_in_V, make_weights,
                      ratios_nonincreasing)


_ENTRY_LOGS = (np.log(0.1), np.log(10.0))  # entries_log_uniform's default bounds


def entries_log_uniform(rng: np.random.Generator, n: int,
                        lo: float = 0.1, hi: float = 10.0) -> tuple:
    """``n`` positive entries, log-uniform on ``[lo, hi]``."""
    u = rng.uniform(np.log(lo), np.log(hi), size=n)
    return tuple(float(v) for v in np.exp(u))


def weights_positive(rng: np.random.Generator, n: int,
                     lo: float = 0.1, hi: float = 10.0) -> tuple:
    """``n`` positive float weights, log-uniform."""
    return entries_log_uniform(rng, n, lo, hi)


def _v_weight_ratios(rng: np.random.Generator, n: int, max_den: int) -> tuple:
    """Draw random rational weights with nonincreasing ratio sequence, as
    their exact numerators and denominators ``(nums, dens)``, unreduced.

    Uses the ratio parametrization: draw the ratios ``r_k = w_k / cumsum_k``
    directly (the first is always 1), sort them nonincreasing, and invert
    via ``w_k = r_k * prod_{i<=k} 1/(1 - r_i)``.  The inversion runs on
    integers: with ``r_i = a_i / d_i``, ``P_k = prod_{i<=k} d_i`` and
    ``Q_k = prod_{i<=k} (d_i - a_i)``, ``w_k = a_k P_{k-1} / Q_k``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = []  # (a_i, d_i) with 0 < a_i < d_i <= max_den, d_i drawn first
    for _ in range(n - 1):
        den = int(rng.integers(2, max_den + 1))
        pairs.append((int(rng.integers(1, den)), den))
    # Distinct fractions with denominators <= max_den differ by at least
    # 1/max_den^2, so the floor of num/den * max_den^2 orders them exactly.
    scale = max_den * max_den
    pairs.sort(key=lambda p: p[0] * scale // p[1], reverse=True)
    nums, dens = [1], [1]
    P = Q = 1
    for a, d in pairs:
        Q *= d - a
        nums.append(a * P)
        dens.append(Q)
        P *= d
    return nums, dens


def rational_v_weights(rng: np.random.Generator, n: int,
                       max_den: int = 9) -> WeightVector:
    """Random rational weights with nonincreasing ratio sequence
    (:func:`_v_weight_ratios`), each one ``Fraction`` reduced once, equal to
    the one exact rational arithmetic gives.  The result is in the
    ratio-nonincreasing class by construction, which the closing assert
    checks.
    """
    nums, dens = _v_weight_ratios(rng, n, max_den)
    w = make_weights(list(map(Fraction, nums, dens)), "W0")
    assert is_in_V(w)
    return w


def sweep_block(seed: int, trials: range, n: int, max_den: int = 9) -> tuple:
    """Entries and float weights of sweep trials ``trials`` as ``(rows, n)``
    arrays, and the error of the first trial whose weights do not fit the
    float range, or None.

    Trial ``t`` draws from its own ``default_rng([seed, t])`` stream what
    :func:`rational_v_weights` and then :func:`entries_log_uniform` draw
    from it, and gets their values: each weight is ``float`` of that
    ``Fraction``, one int true division ``a_k P_{k-1} / Q_k`` (correctly
    rounded, like ``float(Fraction)``), and the exponentials of all rows
    are taken in one call.  The ratio test runs on the integer numerators
    over the common denominator ``Q_{n-1}``.  The rows stop before a trial
    whose weights, or their sum, are beyond the float range; the error is
    the :class:`~kedlaya.errors.FloatOverflow` that ``as_floats`` raises
    on that trial's weights (:func:`~kedlaya.weights.floats_in_range`).
    """
    x = np.empty((len(trials), n))
    w = np.empty((len(trials), n))
    error = None
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        nums, dens = _v_weight_ratios(rng, n, max_den)
        assert ratios_nonincreasing([a * (dens[-1] // d) for a, d in zip(nums, dens)])
        try:
            w[row] = floats_in_range(map(truediv, nums, dens))
        except FloatOverflow as exc:
            x, w, error = x[:row], w[:row], exc
            break
        x[row] = rng.uniform(*_ENTRY_LOGS, size=n)
    np.exp(x, out=x)
    return x, w, error


def integer_nonincreasing_weights(rng: np.random.Generator, n: int,
                                  hi: int = 4) -> WeightVector:
    """Nonincreasing positive integer weights (always ratio-nonincreasing)."""
    vals = sorted((int(v) for v in rng.integers(1, hi + 1, size=n)), reverse=True)
    return make_weights(vals, "W0")


def non_v_weights(rng: np.random.Generator, n: int) -> WeightVector:
    """Positive weights that fail the ratio condition at the last index.

    Needs ``n >= 3``: with two weights and a positive first weight the
    ratio sequence is always nonincreasing.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    head = [Fraction(1)] * (n - 1)
    # last ratio above the previous one forces the failure there
    tail = Fraction(int(rng.integers(n, 4 * n)))
    w = make_weights(head + [tail], "W0")
    assert not is_in_V(w)
    return w
