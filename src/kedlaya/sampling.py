"""Random instance generators for sweeps and randomized checks.

All generators take a ``numpy.random.Generator`` so callers control
determinism; sweep code seeds one generator per trial index.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .weights import WeightVector, is_in_V, make_weights


def entries_log_uniform(rng: np.random.Generator, n: int,
                        lo: float = 0.1, hi: float = 10.0) -> tuple:
    """``n`` positive entries, log-uniform on ``[lo, hi]``."""
    u = rng.uniform(np.log(lo), np.log(hi), size=n)
    return tuple(float(v) for v in np.exp(u))


def weights_positive(rng: np.random.Generator, n: int,
                     lo: float = 0.1, hi: float = 10.0) -> tuple:
    """``n`` positive float weights, log-uniform."""
    return entries_log_uniform(rng, n, lo, hi)


def rational_v_weights(rng: np.random.Generator, n: int,
                       max_den: int = 9) -> WeightVector:
    """Random rational weights with nonincreasing ratio sequence.

    Uses the ratio parametrization: draw the ratios ``r_k = w_k / cumsum_k``
    directly (the first is always 1), sort them nonincreasing, and invert
    via ``w_k = r_k * prod_{i<=k} 1/(1 - r_i)``.  The inversion runs on
    integers: with ``r_i = a_i / d_i``, ``P_k = prod_{i<=k} d_i`` and
    ``Q_k = prod_{i<=k} (d_i - a_i)``, ``w_k = a_k P_{k-1} / Q_k``, so each
    weight is one ``Fraction`` reduced once, equal to the one exact
    rational arithmetic gives.  The result is in the ratio-nonincreasing
    class by construction, which the closing assert checks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return make_weights([Fraction(1)], "W0")
    pairs = []  # (a_i, d_i) with 0 < a_i < d_i <= max_den, d_i drawn first
    for _ in range(n - 1):
        den = int(rng.integers(2, max_den + 1))
        pairs.append((int(rng.integers(1, den)), den))
    # Distinct fractions with denominators <= max_den differ by at least
    # 1/max_den^2, so the floor of num/den * max_den^2 orders them exactly.
    scale = max_den * max_den
    pairs.sort(key=lambda p: p[0] * scale // p[1], reverse=True)
    lam = [Fraction(1)]
    P = Q = 1
    for a, d in pairs:
        Q *= d - a
        lam.append(Fraction(a * P, Q))
        P *= d
    w = make_weights(lam, "W0")
    assert is_in_V(w)
    return w


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
