"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run against the library under ``src/`` of the same checkout.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path when it imports kedlaya)
from checks import check_output  # noqa: E402
from workloads import (CYCLE_LENGTH, PROOF_BANDS, WORKLOADS, Op,  # noqa: E402
                       _proof_ratios, iter_ops, proof_grid_cells,
                       weights_from_ratios)

CLI = run.import_cli()

_DUMP = (
    "import itertools, json, sys; sys.path.insert(0, sys.argv[1]); "
    "from workloads import CYCLE_LENGTH, WORKLOADS, iter_ops; "
    "print(json.dumps({w: [[op.kind, op.argv, op.expect] for op in "
    "itertools.islice(iter_ops(w, 11), 2 * CYCLE_LENGTH[w])] for w in WORKLOADS}, "
    "sort_keys=True))"
)


def _op_lists(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", _DUMP, str(HERE)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return proc.stdout


def test_same_seed_gives_same_ops_under_different_hash_seeds():
    assert _op_lists(1) == _op_lists(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_seed_changes_ops(workload):
    def cycle(seed):
        return list(itertools.islice(iter_ops(workload, seed), CYCLE_LENGTH[workload]))

    assert cycle(1) != cycle(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ops_do_not_repeat(workload):
    ops = [op.argv for op in itertools.islice(iter_ops(workload, 3), 3 * CYCLE_LENGTH[workload])]
    assert len(set(ops)) == len(ops)


def test_proof_grid_cells_matches_built_function():
    from kedlaya.stepfn import build_proof_function
    from kedlaya.weights import make_weights

    rng = random.Random(5)
    for band in PROOF_BANDS[:3]:
        ratios = _proof_ratios(rng, *band)
        lam = weights_from_ratios(ratios)
        f = build_proof_function([1.0] * len(lam), make_weights(lam, "W0"), len(lam))
        assert proof_grid_cells(ratios) == (len(f.xs) - 1) * (len(f.ys) - 1)


# ---------------------------------------------------------------------------
# Output checks: a real report passes, a corrupted one fails
# ---------------------------------------------------------------------------

def _op(kind, argv, **expect):
    return Op(kind, tuple(argv), expect)


SWEEP = _op("sweep", ["sweep", "--mean", "power:0", "--n", "4", "--trials", "5",
                      "--seed", "3", "--expect", "holds", "--json"],
            verdict="holds", trials=5, n=4)
CHECK = _op("check", ["check", "--mean", "gini21", "--x", "1,4,2.5,0.3,7",
                      "--w", "5,4,4,2,1", "--expect", "reversed", "--json"],
            verdict="reversed", n=5)
CONCAVITY = _op("concavity", ["concavity", "--mean", "qa:log", "--trials", "300",
                              "--seed", "1", "--json"], trials=300)
AXIOMS = _op("axioms", ["axioms", "--mean", "arithmetic", "--trials", "5",
                        "--seed", "1", "--json"], trials=5)
PROOF = _op("proof-fn", ["proof-fn", "--mean", "qa:log", "--x", "1,4,2", "--w",
                         "1,1/2,1/3", "--j", "3", "--json"], j=3)
PROPORTIONAL = _op("proportional", ["proportional", "--theta", "3/7", "--host",
                                    "0,3/2,1/3,7/4", "--json"])


def _set_verdict(doc):
    doc["trials"][0]["verdict"] = "violated"


def _drop_trial(doc):
    doc["trials"].pop()


def _bend_step_gap(doc):
    doc["step_gaps"][1] += 1e-3 * (abs(doc["step_gaps"][1]) + 1.0)


def _flip_check_verdict(doc):
    doc["verdict"] = "holds"


def _flip_shape(doc):
    doc["verdict"] = "convex"


def _inflate_residual(doc):
    doc["worst_residuals"]["reduction"] = 1.0


def _unmatch(doc):
    doc["match"] = False


def _swap_sides(doc):
    sides = doc["swap_sides"]
    sides["lhs"], sides["rhs"] = sides["rhs"] + 1.0, sides["lhs"]


def _drop_rectangle(doc):
    doc["rectangles"].pop()


CORRUPTIONS = [
    (SWEEP, _set_verdict),
    (SWEEP, _drop_trial),
    (CHECK, _bend_step_gap),
    (CHECK, _flip_check_verdict),
    (CONCAVITY, _flip_shape),
    (AXIOMS, _inflate_residual),
    (PROOF, _unmatch),
    (PROOF, _swap_sides),
    (PROPORTIONAL, _drop_rectangle),
]


def _report(op) -> tuple:
    _, rc, stdout, error = run.run_op(CLI, op)
    assert error is None
    return rc, stdout


@pytest.mark.parametrize("op", [SWEEP, CHECK, CONCAVITY, AXIOMS, PROOF, PROPORTIONAL],
                         ids=lambda op: op.kind)
def test_real_report_passes(op):
    rc, stdout = _report(op)
    assert check_output(op, rc, stdout) is None


@pytest.mark.parametrize("op,corrupt", CORRUPTIONS,
                         ids=[f"{op.kind}-{fn.__name__}" for op, fn in CORRUPTIONS])
def test_corrupted_report_fails(op, corrupt):
    rc, stdout = _report(op)
    doc = copy.deepcopy(json.loads(stdout))
    corrupt(doc)
    assert check_output(op, rc, json.dumps(doc)) is not None


def test_failed_command_and_garbage_fail():
    rc, stdout = _report(SWEEP)
    assert check_output(SWEEP, 1, stdout) is not None
    assert check_output(SWEEP, rc, stdout[: len(stdout) // 2]) is not None
