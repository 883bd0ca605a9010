"""The sweep oracle: ``kedlaya sweep`` as one scalar check per trial.

Each trial is drawn through a scalar rendering of the sweep's stream:
trial ``t`` takes row ``t % 1024`` of the uniforms that
``default_rng([seed, t // 1024])`` draws, ``3n - 2`` a row.  Python floats
and ints map the first ``n - 1`` to denominators and the next ``n - 1`` to
numerators, the ratios are sorted and inverted one ``Fraction`` at a time,
and ``np.exp`` takes the last ``n`` to entries.  Then ``check_kedlaya``
checks the trial, the loop the command ran before it checked its trials in
blocks.  The batched sweep is tested against it.
"""

from fractions import Fraction

import numpy as np

from kedlaya import cli
from kedlaya.inequality import check_kedlaya
from kedlaya.means import mean_from_id
from kedlaya.weights import make_weights

STREAM_BLOCK = 1024


def invert_ratios(ratios: list) -> list:
    """The weights whose ratios ``w_k / (w_1 + ... + w_k)`` are 1 and then
    ``ratios`` sorted nonincreasing, as Fractions."""
    lam = [Fraction(1)]
    acc = Fraction(1)
    for r in sorted(ratios, reverse=True):
        acc /= (1 - r)
        lam.append(r * acc)
    return lam


def oracle_instance(seed: int, trial: int, n: int, max_den: int = 9) -> tuple:
    """The entries (a tuple of floats) and the rational weights of one sweep trial."""
    block, row = divmod(trial, STREAM_BLOCK)
    u = np.random.default_rng([seed, block]).random((row + 1, 3 * n - 2))[row].tolist()
    ratios = []
    for k in range(n - 1):
        den = 2 + int(u[k] * (max_den - 1))
        ratios.append(Fraction(1 + int(u[n - 1 + k] * (den - 1)), den))
    lo, hi = np.log(0.1), np.log(10.0)
    x = tuple(np.exp(lo + np.array(u[2 * n - 2:]) * (hi - lo)).tolist())
    return x, make_weights(invert_ratios(ratios), "W0")


def oracle_trial(mean, n: int, seed: int, trial: int, tol: float = 1e-9,
                 expect=None, max_den: int = 9):
    """The ``check_kedlaya`` report of one sweep trial."""
    x, w = oracle_instance(seed, trial, n, max_den)
    return check_kedlaya(mean, x, w, tol=tol, expect=expect)


def oracle_report(mean_id: str, n: int, trials: int, seed: int = 0, max_den: int = 9,
                  tol: float = 1e-9, expect=None) -> str:
    """The JSON report of ``kedlaya sweep ... --json``, from the scalar checks."""
    mean = mean_from_id(mean_id)
    rows = []
    for t in range(trials):
        report = oracle_trial(mean, n, seed, t, tol, expect, max_den)
        rows.append({"trial": t, "n": n, "gap": report.gap, "verdict": report.verdict})
    counts: dict = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    doc = {
        "schema": cli.SCHEMA,
        "command": "sweep",
        "mean": str(mean),
        "n": n,
        "trials": rows,
        "seed": seed,
        "summary": {"counts": counts, "min_gap": min((r["gap"] for r in rows), default=0.0)},
    }
    return cli._dumps(doc) + "\n"
