"""The sweep oracle: ``kedlaya sweep`` as one scalar check per trial.

Each trial draws its weights with ``rational_v_weights`` and its entries
with ``entries_log_uniform`` from ``default_rng([seed, trial])`` and runs
``check_kedlaya`` on them, the loop the command ran before it checked its
trials in blocks.  The batched sweep is tested against it.
"""

import numpy as np

from kedlaya import cli
from kedlaya.inequality import check_kedlaya
from kedlaya.means import mean_from_id
from kedlaya.sampling import entries_log_uniform, rational_v_weights


def oracle_trial(mean, n: int, seed: int, trial: int, tol: float = 1e-9,
                 expect=None, max_den: int = 9):
    """The ``check_kedlaya`` report of one sweep trial."""
    rng = np.random.default_rng([seed, trial])
    w = rational_v_weights(rng, n, max_den=max_den)
    x = entries_log_uniform(rng, n)
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
