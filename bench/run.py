#!/usr/bin/env python3
"""The benchmark trajectory: end-to-end and per-layer rows of one checkout,
written to ``BENCH_<short-sha>.json`` next to this script.

    python3 bench/run.py                   # this checkout
    python3 bench/run.py --root ../other   # another checkout's library

End-to-end rows run the measured checkout's ``perfbench/run.py --workload
<w> --seed 1 --seconds 15 --trace 0`` as a subprocess, one per workload, and
keep its ``meta`` line and its last line, the JSON object of its metrics.

Micro rows time layer costs in-process on the measured checkout's ``src/``,
on inputs drawn from fixed seeds: each row is the minimum of ``k`` runs,
with its median, its spread (maximum minus minimum) and its unit.  They are
``check_kedlaya`` (both prefix scans and the step gaps) of a
``homdev:shifted-power`` mean at several ``n`` and ``p``, one ``evaluate``
of ``homdev:shifted-power:0.5``, ``evaluate_rows`` (the lockstep bisection)
at three ``p`` on a 1024 x 8 block and on one ``n = 2`` chunk of the
``concavity`` command (3072 x 2: the midpoint, ``x`` and ``y`` rows of its
1024 draws, stacked as ``sample_jensen_concavity`` stacks them),
``evaluate_rows`` on that chunk of five closed forms (``power:0.5``,
``gini:2:1``, ``qa:log``, ``qa:pow:-1`` and ``qa:cube``, the ``cube``
generator of ``tests/test_means.py``) and of the arithmetic mean,
``evaluate_rows`` of ``qa:log`` and of ``power:0.5`` on one padded block
of the ``axioms`` command (819 x 10 at ``n_max = 5``, the rows
``sample_axiom_residuals`` hands it, with zero weights),
``check_kedlaya_rows`` of each mean of the ``sweep`` workload on one seed-1
sweep block (100 x 8), the two sides of that block for ``qa:log``
(``evaluate_prefix_rows`` of the entries, and with ``last`` of the partial
arithmetic means), the homogeneous-deviation family of acceptance
criterion 7 (the five axiom residuals on 1000 instances, the loop of
``tests/test_acceptance.py``), and ``kedlaya.elementary``'s ``log`` and
``exp``: a scalar call (the row is per call, timed over 6144 calls), the
array forms on 6144 and 3072 log-uniform values (as many as the 3072 x 2
chunk has entries and means), and ``check_kedlaya`` of ``qa:log`` at
``n = 184``, whose prefix scans make every call on the scalar path, and of
``power:0`` at ``n = 180`` and ``gini:0.5:0`` at ``n = 212``, the scalar
scans of the power and Gini terms (the sizes of the ``scan`` workload).

A checkout with uncommitted changes to tracked files is named by the sha of
its ``HEAD`` and a ``+``: its rows are those of a change on top of that
commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "scan", "probe", "proof")
HOMDEV = "homdev:shifted-power:{}"
SWEEP_MEANS = ("power:0", "gini:0.5:0", "qa:log", "gini21")  # perfbench's sweep kinds


def _checkout(root: Path) -> str:
    """The short sha of ``root``'s HEAD, with a ``+`` if tracked files changed,
    or ``unknown`` outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return git("rev-parse", "--short", "HEAD") + (
            "+" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def end_to_end(root: Path, workload: str) -> dict:
    """One perfbench run of ``workload``: its meta line and its metrics line."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "15", "--trace", "0"],
                         cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = next(line for line in lines if line.startswith("meta "))
    return {"workload": workload, "meta": json.loads(meta[len("meta "):]),
            "result": json.loads(lines[-1])}


def _time(name: str, fn, k: int, per: int = 1) -> dict:
    """``fn()`` run ``k`` times after one untimed run, in milliseconds, each
    divided by ``per``: the time of one of the ``per`` calls ``fn`` makes."""
    fn()
    samples = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3 / per)
    return {"name": name, "unit": "ms", "value": min(samples),
            "median": statistics.median(samples), "spread": max(samples) - min(samples), "k": k}


def _axiom_block(mean, trials: int) -> tuple:
    """The padded ``(entries, weights)`` rows that ``sample_axiom_residuals``
    hands ``evaluate_rows`` for the first block of ``trials`` trials at
    ``n_max = 5``."""
    from kedlaya import means
    blocks, evaluate_rows = [], means.evaluate_rows
    means.evaluate_rows = lambda mean, x, w: blocks.append((x, w)) or evaluate_rows(mean, x, w)
    try:
        means.sample_axiom_residuals(mean, trials, 5, seed=1)
    finally:
        means.evaluate_rows = evaluate_rows
    return blocks[0]


def micro_rows(quick: bool = False) -> list:
    """Every micro row, on the library already on ``sys.path``; ``quick``
    runs each at a tiny size, once, which checks this script, not the code
    it measures."""
    import numpy as np
    from kedlaya.concavity import _CHUNK, _draw_chunk
    from kedlaya.deviation import GeneratorSpec
    from kedlaya.domain import sampling_window
    from kedlaya.elementary import exp, log
    from kedlaya.inequality import check_kedlaya, check_kedlaya_rows
    from kedlaya.means import (_AXIOM_BLOCK, _SIDES, MeanHandle, evaluate, evaluate_prefix_rows,
                               evaluate_rows, mean_from_id)
    from kedlaya.sampling import sweep_blocks
    from test_acceptance import _worst_axiom_residual

    def draw(seed, n):
        rng = np.random.default_rng(seed)
        x = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)).tolist()
        return x, sorted(rng.uniform(0.1, 10.0, n).tolist(), reverse=True)

    k = 1 if quick else 7
    rows = []
    for p in (0.5, -2, 0):
        mean = mean_from_id(HOMDEV.format(p))
        for n in (8,) if quick else (8, 16, 56, 256):
            x, w = draw(n, n)
            rows.append(_time(f"check_kedlaya {mean} n={n}",
                              lambda: check_kedlaya(mean, x, w), k))
    mean = mean_from_id(HOMDEV.format(0.5))
    for n in (2,) if quick else (2, 8, 64):
        x, w = draw(n, n)
        rows.append(_time(f"evaluate {mean} n={n}", lambda: evaluate(mean, x, w),
                          1 if quick else 101))
    block = (16 if quick else 1024, 8)
    rng = np.random.default_rng(1024)
    x, w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), block)), rng.uniform(0.1, 10.0, block)
    cx, cy, cw = _draw_chunk(sampling_window(mean.domain), 2, 7, 0, 16 if quick else _CHUNK)
    chunk = np.concatenate((0.5 * (cx + cy), cx, cy)), np.concatenate((cw, cw, cw))
    for p in (0.5, -2, 0):
        homdev = mean_from_id(HOMDEV.format(p))
        rows.append(_time(f"evaluate_rows {homdev} {block[0]}x{block[1]}",
                          lambda: evaluate_rows(homdev, x, w), k))
        rows.append(_time(f"evaluate_rows {homdev} {len(chunk[0])}x2",
                          lambda: evaluate_rows(homdev, *chunk), k))
    cube = MeanHandle.quasi_arithmetic(GeneratorSpec(lambda t: t ** 3, lambda y: y ** (1.0 / 3.0),
                                                     label="cube"))
    for other in [*map(mean_from_id, ("power:0.5", "gini:2:1", "qa:log", "qa:pow:-1")), cube,
                  mean_from_id("arithmetic")]:
        rows.append(_time(f"evaluate_rows {other} {len(chunk[0])}x2",
                          lambda: evaluate_rows(other, *chunk), k))
    qa = mean_from_id("qa:log")
    for other in (qa, mean_from_id("power:0.5")):
        ax, aw = _axiom_block(other, 4 if quick else _AXIOM_BLOCK // (_SIDES * 2 * 5))
        rows.append(_time(f"evaluate_rows {other} {ax.shape[0]}x{ax.shape[1]}",
                          lambda: evaluate_rows(other, ax, aw), k))
    trials = 10 if quick else 100
    sx, sw, _ = next(sweep_blocks(1, range(trials), 8, 9, trials))
    for sweep in map(mean_from_id, SWEEP_MEANS):
        rows.append(_time(f"check_kedlaya_rows {sweep} {trials}x8",
                          lambda: check_kedlaya_rows(sweep, sx, sw), k))
    sm = np.cumsum(sw * sx, axis=1) / np.cumsum(sw, axis=1)  # the partial arithmetic means
    sm[:, 0] = sx[:, 0]
    rows.append(_time(f"evaluate_prefix_rows {qa} {trials}x8",
                      lambda: evaluate_prefix_rows(qa, sx, sw), k))
    rows.append(_time(f"evaluate_prefix_rows {qa} {trials}x8 last",
                      lambda: evaluate_prefix_rows(qa, sm, sw, last=True), k))
    trials = 10 if quick else 1000
    seed = zlib.crc32(str(mean).encode())  # criterion 7's own
    rows.append(_time(f"criterion 7 {mean} {trials} instances", lambda: _worst_axiom_residual(
        mean, np.random.default_rng(seed), trials), 1 if quick else 3))
    rng = np.random.default_rng(6144)
    logs = rng.uniform(np.log(0.1), np.log(10.0), 16 if quick else 6144)
    for f, values in ((log, np.exp(logs)), (exp, logs)):
        calls = values.tolist()
        rows.append(_time(f"{f.__name__} scalar per call", lambda: list(map(f, calls)), k,
                          len(calls)))
        for size in (len(values), len(values) // 2):
            part = values[:size].copy()
            rows.append(_time(f"{f.__name__} array {size}", lambda: f.array(part), k))
    for name, size in (("qa:log", 184), ("power:0", 180), ("gini:0.5:0", 212)):
        scan, n = mean_from_id(name), 8 if quick else size
        x, w = draw(n, n)
        rows.append(_time(f"check_kedlaya {scan} n={n}", lambda: check_kedlaya(scan, x, w), k))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    checkout = _checkout(root)
    report = {"checkout": checkout, "end_to_end": [end_to_end(root, w) for w in WORKLOADS],
              "micro": micro_rows()}
    out = HERE / f"BENCH_{checkout}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
