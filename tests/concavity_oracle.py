"""The concavity oracle: ``sample_jensen_concavity`` as its chunks were once drawn.

Each chunk ``i`` draws from ``default_rng([seed, i])``: uniforms for the
entries ``x`` and ``y``, exponentials for the weights and a random rescale,
1024 rows each, mapped onto the domain's sampling window by plain numpy
expressions on new arrays.  The chunk's midpoint, ``x`` and ``y`` rows are
stacked by ``np.concatenate`` into one ``evaluate_rows`` call, which copies
them to column-major order for the kernel.  The sampler, which writes its
draws straight into the kernel's rows, is tested against it.
"""

import numpy as np

from kedlaya import concavity
from kedlaya.domain import LOG, NEG_LOG, sampling_window
from kedlaya.means import evaluate_rows


def map_window(u: np.ndarray, window: tuple) -> np.ndarray:
    """Uniform draws ``u`` mapped onto ``window``: log-uniform on a ``LOG``
    window, mirrored on ``NEG_LOG``, affine on ``LINEAR``."""
    lo, hi, kind = window
    if kind == LOG:
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    if kind == NEG_LOG:
        return -np.exp(np.log(-hi) + u * (np.log(-lo) - np.log(-hi)))
    return lo + u * (hi - lo)


def draw_chunk(window: tuple, n: int, seed: int, chunk_index: int, size: int) -> tuple:
    """Deterministic draws for one chunk: entry matrices X, Y and weights W."""
    rng = np.random.default_rng([seed, chunk_index])
    ux = rng.random((size, n))
    uy = rng.random((size, n))
    e = rng.exponential(size=(size, n))
    tscale = rng.uniform(0.5, 2.0, size=(size, 1))
    x = map_window(ux, window)
    y = map_window(uy, window)
    w = e / e.sum(axis=1, keepdims=True) * tscale
    return x, y, w


def oracle_sample(mean, n: int, trials: int, tol: float = 1e-9, seed: int = 0):
    """The verdict of ``sample_jensen_concavity(mean, n, trials, tol, seed)``
    from :func:`draw_chunk` and one ``evaluate_rows`` call a chunk on the
    concatenated rows."""
    window = sampling_window(mean.domain)

    def chunk_gaps(chunk_index, size):
        x, y, w = draw_chunk(window, n, seed, chunk_index, concavity._CHUNK)
        x, y, w = x[:size], y[:size], w[:size]
        mid, fx, fy = evaluate_rows(mean, np.concatenate((0.5 * (x + y), x, y)),
                                    np.concatenate((w, w, w))).reshape(3, size)
        return mid - 0.5 * (fx + fy), lambda i: (tuple(x[i]), tuple(y[i]), tuple(w[i]))

    return concavity._sample(chunk_gaps, trials, tol)
