#!/usr/bin/env python3
"""The benchmark trajectory: end-to-end and per-layer rows of one checkout,
written to ``BENCH_<short-sha>.json`` next to this script.

    python3 bench/run.py                   # this checkout
    python3 bench/run.py --root ../other   # another checkout's library
    python3 bench/run.py --base HEAD~1     # this checkout against a revision

End-to-end rows run the measured checkout's ``perfbench/run.py --workload
<w> --seed 1 --seconds 15 --trace 0`` as a subprocess, one per workload, and
keep its ``meta`` line and its last line, the JSON object of its metrics.
Before them it runs ``python -m compileall -q src`` in the measured
checkout: a process that recompiles stale bytecode reads ``setup_s`` 10-13%
and ``peak_rss_mb`` over 1 MB higher, whatever the workload.

Micro rows time layer costs in-process on the measured checkout's ``src/``,
on inputs drawn from fixed seeds: each row is the minimum of ``k`` runs,
with its median, its spread (maximum minus minimum) and its unit.  They are
``check_kedlaya`` (both prefix scans and the step gaps) of a
``homdev:shifted-power`` mean at several ``n`` and ``p``, one ``evaluate``
of ``homdev:shifted-power:0.5``, ``evaluate_rows`` (the lockstep bisection)
at three ``p`` on a 1024 x 8 block and on one ``n = 2`` chunk of the
``concavity`` command (3072 x 2: the midpoint, ``x`` and ``y`` rows of its
1024 draws, as ``sample_jensen_concavity`` hands them to ``evaluate_rows``),
``evaluate_rows`` on that chunk of five closed forms (``power:0.5``,
``gini:2:1``, ``qa:log``, ``qa:pow:-1`` and ``qa:cube``, the ``cube``
generator of ``tests/test_means.py``) and of the arithmetic mean,
``evaluate_rows`` of ``qa:log``, ``power:0.5``, ``min``, ``gini:2:1`` and
``homdev:shifted-power:0.5`` on one padded block of the ``axioms`` command
(819 x 10 at ``n_max = 5``, the rows ``sample_axiom_residuals`` hands it,
with zero weights, which the gate of ``kedlaya.means`` fills),
``check_kedlaya_rows`` of each mean of the ``sweep`` workload on one seed-1
sweep block (100 x 8), which takes both sides of the inequality from one
prefix-rows call on the stacked entries and partial arithmetic means, the
two sides of that block for ``qa:log`` as two calls (``evaluate_prefix_rows``
of the entries, and with ``last`` of the partial arithmetic means),
``sweep_kedlaya`` of each of those means at ``n = 8`` and ``n = 40`` with
1000 trials, and of ``gini:0.5:0`` at ``n = 120`` with 200 trials, whose long
rows the error rule of its prefix-rows driver leaves to the scalar
scans, the homogeneous-deviation family of acceptance
criterion 7 (the five axiom residuals on 1000 instances, the loop of
``tests/test_acceptance.py``), and ``kedlaya.elementary``'s ``log`` and
``exp``: a scalar call (the row is per call, timed over 6144 calls), the
array forms on 6144 and 3072 log-uniform values (as many as the 3072 x 2
chunk has entries and means), on 800 and on 16384 (the size of the
per-value cost target), ``exact_prefix_sums`` of ``w log x`` terms on the
block shapes its callers hand it (3072 x 2, 100 x 8, 819 x 10 and
1 x 200), and ``check_kedlaya`` of ``qa:log`` at
``n = 184``, whose prefix scans make every call on the scalar path, and of
``power:0`` at ``n = 180`` and ``gini:0.5:0`` at ``n = 212``, the scalar
scans of the power and Gini terms (the sizes of the ``scan`` workload), and
the two slowest ops of the ``probe`` workload in process:
``sample_jensen_concavity`` of ``power:0.5`` at 90000 trials and of
``gini:2:1`` at 75000, ``n = 2``, and the exact geometry of the ``proof``
workload: ``proportional_set`` plus ``verify_proportionality`` at
``theta = 33/41`` (1353 rectangles), the stages of a ``proof-fn`` command
(``build_proof_function``, ``jensen_fubini_sides`` of ``qa:log``,
``function_columns`` and the writer's ``_dumps`` of the function) on seed 1's
first 1e5-cell and first 1e6-cell ``proof-fn`` ops, and whole ``cli.main``
commands, as perfbench runs them, of that ``proportional`` op, of seed 1's
first 1e4-cell ``proof-fn`` op (the first of the plateau that holds ``proof``'s
median), its first 1e5-cell one (the band of ``proof``'s tail) and its first
1e6-cell one, of seed 1's first ``concavity qa:log``
op (2400 trials, the median op of ``probe``) and of seed 1's first ``sweep
qa:log`` op (100 trials at n = 8; ``perfbench/workloads.py``).
Only a whole command runs with the garbage collector paused.

``--base <rev>`` compares instead, end to end. It checks ``rev`` out, and
the tracked files of the measured checkout, each into a temporary git
worktree, compiles both, runs ``perfbench/run.py`` on each as ``PAIRS``
alternated pairs per workload (the base first in even pairs, the checkout
first in odd ones) at ``--seed``, and writes
``COMPARE_<base>_<checkout>_seed<seed>.json`` next to this script: for every
metric of ``BENCHMARK.json``, each run's value, each side's median, the
base's interquartile range and the pairs the checkout won (ties count for
neither side), and each run's failed ops.

A checkout with uncommitted changes to tracked files is named by the sha of
its ``HEAD`` and a ``+``: its rows are those of a change on top of that
commit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "scan", "probe", "proof")
HOMDEV = "homdev:shifted-power:{}"
SWEEP_MEANS = ("power:0", "gini:0.5:0", "qa:log", "gini21")  # perfbench's sweep kinds
# Alternated pairs per workload of a comparison, the fewest a claimed gain rests on.
PAIRS = 10


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


def end_to_end(root: Path, workload: str, seed: int = 1) -> dict:
    """One perfbench run of ``workload``: its meta line and its metrics line."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "15", "--trace", "0"],
                         cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = next(line for line in lines if line.startswith("meta "))
    return {"workload": workload, "meta": json.loads(meta[len("meta "):]),
            "result": json.loads(lines[-1])}


def _pairs(base: Path, head: Path, workload: str, seed: int) -> dict:
    """:data:`PAIRS` alternated perfbench runs of ``workload`` on each checkout (the
    base first in even pairs, the head first in odd ones) and, per metric, each
    side's median, the base's interquartile range and the pairs the head won,
    ties counting for neither side."""
    runs: dict = {"base": [], "head": []}
    for i in range(PAIRS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            result = end_to_end(base if side == "base" else head, workload, seed)["result"]
            if not result["correct"]:
                raise RuntimeError(f"{side} {workload} run {i} failed its checks")
            runs[side].append(result)
    better = {m["name"]: m["better"]
              for m in json.loads((head / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = {}
    for name, way in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        q1, _, q3 = statistics.quantiles(values["base"], n=4)
        sign = 1 if way == "higher" else -1
        metrics[name] = {"better": way, "base": values["base"], "head": values["head"],
                         "base_median": statistics.median(values["base"]),
                         "head_median": statistics.median(values["head"]),
                         "base_iqr": q3 - q1,
                         "head_won": sum(sign * (h - b) > 0 for b, h in zip(*values.values()))}
    return {"workload": workload, "pairs": PAIRS, "metrics": metrics,
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs}}


def compare(root: Path, rev: str, workloads: list, seed: int) -> Path:
    """Check ``rev`` and the tracked files of ``root`` (``git stash create``,
    or ``HEAD`` when nothing changed) out into two temporary git worktrees of
    ``root``, compile both and write ``COMPARE_<base>_<head>_seed<seed>.json``
    next to this script: the :func:`_pairs` of each workload.  Both sides run
    from fresh checkouts side by side."""
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    revs = {"base": rev, "head": git("stash", "create") or "HEAD"}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in revs}
        try:
            for side, path in dirs.items():
                git("worktree", "add", "--detach", str(path), revs[side])
                subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=path,
                               check=True)
            report = {"base": _checkout(dirs["base"]), "head": _checkout(root), "seed": seed,
                      "workloads": [_pairs(dirs["base"], dirs["head"], w, seed)
                                    for w in workloads]}
        finally:
            for path in dirs.values():
                if path.exists():
                    git("worktree", "remove", "--force", str(path))
    out = HERE / f"COMPARE_{report['base']}_{report['head']}_seed{seed}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    return out


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


def _first_rows(module, run) -> tuple:
    """The ``(entries, weights)`` arrays of the first ``evaluate_rows`` call
    that ``run()`` makes through ``module``'s binding of it."""
    blocks, evaluate_rows = [], module.evaluate_rows
    module.evaluate_rows = lambda mean, x, w: blocks.append((x, w)) or evaluate_rows(mean, x, w)
    try:
        run()
    finally:
        module.evaluate_rows = evaluate_rows
    return blocks[0]


def _first_op(workload: str, kind: str) -> tuple:
    """The argv of seed 1's first op of ``kind`` in perfbench's ``workload``."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import iter_ops

    return next(op.argv for op in iter_ops(workload, 1) if op.kind == kind)


def micro_rows(quick: bool = False) -> list:
    """Every micro row, on the library already on ``sys.path``; ``quick``
    runs each at a tiny size, once, which checks this script, not the code
    it measures."""
    import numpy as np
    from kedlaya import cli, concavity, means, stepfn
    from kedlaya.concavity import _CHUNK, sample_jensen_concavity
    from kedlaya.deviation import GeneratorSpec, exact_prefix_sums
    from kedlaya.elementary import exp, log
    from kedlaya.inequality import check_kedlaya, check_kedlaya_rows, sweep_kedlaya
    from kedlaya.means import (_AXIOM_BLOCK, _SIDES, MeanHandle, evaluate, evaluate_prefix_rows,
                               evaluate_rows, mean_from_id)
    from kedlaya.sampling import sweep_blocks
    from kedlaya.weights import weights_from_strings
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
    # the rows of the first chunk, as sample_jensen_concavity hands them over
    chunk = _first_rows(concavity, lambda: sample_jensen_concavity(
        mean, 2, 16 if quick else _CHUNK, seed=7))
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
    for other in (qa, *map(mean_from_id, ("power:0.5", "min", "gini:2:1", HOMDEV.format(0.5)))):
        # the padded rows of the first block of trials at n_max = 5
        trials = 4 if quick else _AXIOM_BLOCK // (_SIDES * 2 * 5)
        ax, aw = _first_rows(means, lambda: means.sample_axiom_residuals(other, trials, 5, seed=1))
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
    sweeps = [(sweep, n, 1000) for sweep in SWEEP_MEANS for n in (8, 40)]
    for name, n, trials in [*sweeps, ("gini:0.5:0", 120, 200)]:
        sweep, trials = mean_from_id(name), 10 if quick else trials
        rows.append(_time(f"sweep_kedlaya {sweep} n={n} {trials}",
                          lambda: sweep_kedlaya(sweep, n, trials, seed=1), k))
    trials = 10 if quick else 1000
    seed = zlib.crc32(str(mean).encode())  # criterion 7's own
    rows.append(_time(f"criterion 7 {mean} {trials} instances", lambda: _worst_axiom_residual(
        mean, np.random.default_rng(seed), trials), 1 if quick else 3))
    rng = np.random.default_rng(6144)
    sizes = (16, 8, 4, 2) if quick else (16384, 6144, 3072, 800)
    logs = rng.uniform(np.log(0.1), np.log(10.0), sizes[0])
    for f, values in ((log, np.exp(logs)), (exp, logs)):
        calls = values[:sizes[1]].tolist()
        rows.append(_time(f"{f.__name__} scalar per call", lambda: list(map(f, calls)), k,
                          len(calls)))
        for size in sizes:
            part = values[:size].copy()
            rows.append(_time(f"{f.__name__} array {size}", lambda: f.array(part), k))
    rng = np.random.default_rng(23)
    for shape in ((3072, 2), (100, 8), (819, 10), (1, 200)):
        terms = rng.uniform(-2.3, 2.3, shape) * rng.uniform(0.1, 10.0, shape)  # w log x
        rows.append(_time(f"exact_prefix_sums {shape[0]}x{shape[1]}",
                          lambda: exact_prefix_sums(terms), k))
    for name, size in (("qa:log", 184), ("power:0", 180), ("gini:0.5:0", 212)):
        scan, n = mean_from_id(name), 8 if quick else size
        x, w = draw(n, n)
        rows.append(_time(f"check_kedlaya {scan} n={n}", lambda: check_kedlaya(scan, x, w), k))
    for name, trials in (("power:0.5", 90000), ("gini:2:1", 75000)):
        probe, trials = mean_from_id(name), 16 if quick else trials
        rows.append(_time(f"sample_jensen_concavity {probe} n=2 {trials}",
                          lambda: sample_jensen_concavity(probe, 2, trials, seed=1), k))
    theta, corners = ("3/7", "0,1,0,1") if quick else ("33/41", "5/9,109/18,2/3,7/6")
    host = stepfn.rect(*map(Fraction, corners.split(",")))
    rows.append(_time(f"proportional_set+verify_proportionality {theta}", lambda: (
        stepfn.verify_proportionality(stepfn.proportional_set(host, Fraction(theta)),
                                      explain=True)), k))

    def command(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")

    bands = ("1e+02", "1e+03") if quick else ("1e+04", "1e+05", "1e+06")
    for band in bands[-2:]:
        argv = _first_op("proof", f"proof-fn {band}")
        x, w, j = (argv[argv.index(option) + 1] for option in ("--x", "--w", "--j"))
        x, j = cli._parse_floats(x), int(j)
        w = weights_from_strings(w.split(","), cls="W0", exact=True)
        f = stepfn.build_proof_function(x, w, j)
        table = stepfn.function_columns(f)
        report = {"function": {**table, "pieces": cli._Table(table["pieces"])}}
        for stage, run in (("build_proof_function", lambda: stepfn.build_proof_function(x, w, j)),
                           ("jensen_fubini_sides qa:log",
                            lambda: stepfn.jensen_fubini_sides(qa, f)),
                           ("function_columns", lambda: stepfn.function_columns(f)),
                           ("_dumps function", lambda: cli._dumps(report))):
            rows.append(_time(f"{stage} proof-fn {band} seed 1", run, k))
    concavity_op = list(_first_op("probe", "concavity qa:log"))
    sweep_op = list(_first_op("sweep", "sweep qa:log"))
    if quick:
        concavity_op[concavity_op.index("--trials") + 1] = "16"
        sweep_op[sweep_op.index("--trials") + 1] = "10"
    trials = concavity_op[concavity_op.index("--trials") + 1]
    for name, argv in ((f"proportional {theta}",
                        ("proportional", "--theta", theta, "--host", corners, "--json")),
                       *((f"proof-fn {band} seed 1", _first_op("proof", f"proof-fn {band}"))
                         for band in bands),
                       (f"concavity qa:log {trials}", concavity_op),
                       (f"sweep qa:log {sweep_op[sweep_op.index('--trials') + 1]} seed 1",
                        sweep_op)):
        rows.append(_time(f"cli.main {name}", lambda: command(argv), k))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--base", metavar="REV",
                        help="compare the checkout with this git revision of it, end to end")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of the pairs")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads of the pairs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.base:
        print(compare(root, args.base, args.workloads.split(","), args.seed))
        return 0
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    checkout = _checkout(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)
    report = {"checkout": checkout, "end_to_end": [end_to_end(root, w) for w in WORKLOADS],
              "micro": micro_rows()}
    out = HERE / f"BENCH_{checkout}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
