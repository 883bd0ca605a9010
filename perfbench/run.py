#!/usr/bin/env python3
"""End-to-end benchmark of the ``kedlaya`` command line tool.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
next to this directory, never from an installed copy, and the run fails
with exit code 2 when ``src/`` is missing.

Load model: a closed loop, one process, one client, no threads.  Each op
is one CLI command run in-process through ``kedlaya.cli.main(argv)``, as
the ``kedlaya`` console script runs it; ``KEDLAYA_THREADS`` is removed
from the environment first.  Ops come from ``workloads.iter_ops`` and
only ever carry generated inputs.  A run times a fixed number of whole
cycles (``RUN_CYCLES``, scaled by ``--seconds``), so every run on every
commit and host measures the same ops, and every report is checked
(``checks.py``).  Times are scaled to a nominal machine speed by
interleaved reference work (see ``REF_NOMINAL_S`` and
``REF_STARTUP_NOMINAL_S``); unscaled times are printed beside them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (``tracing.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are for
people: each metric with its unit, the run's machine facts, and in traced
runs the layer-share table and the bypass check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from checks import check_output  # noqa: E402
from workloads import CYCLE_LENGTH, WORKLOADS, iter_ops  # noqa: E402

# Whole cycles a run times at --seconds RUN_CYCLES_SECONDS: about that many
# seconds of (scaled) command time at the seed commit, except proof, which
# takes ~28 s so that its few 1e6-cell ops (their cost varies by ~+-20%
# with the seed) average out.  Other --seconds values scale the counts.  A
# count never depends on a clock, so a faster commit or host runs the same
# ops in less time, and the op whose latency is op_tail_ms has the same
# rank on every run.  In proof, the ten ops beyond the tail are the cycles'
# 1e6-cell ops and the slowest 1e5-cell ones (see PROOF_BANDS).
RUN_CYCLES = {"sweep": 46, "scan": 23, "probe": 17, "proof": 7}
RUN_CYCLES_SECONDS = 15
# The traced run covers this many cycles, untraced and then traced, so its
# counters repeat exactly for a given seed.
TRACE_CYCLES = {"sweep": 12, "scan": 4, "probe": 3, "proof": 1}
SETUP_SAMPLES = 9
# The warm-up op is the first op of this seed's stream, whatever --seed is:
# the first ops of different seeds cost up to ~10x apart (proportional sets
# with different theta), which would make set-up time depend on the seed.
WARM_UP_SEED = 0
TAIL_BEYOND = 10
# Layer expected to take the largest entry share of each workload.
PREDICTED_HEAVIEST = {"sweep": "inequality", "scan": "inequality",
                      "probe": "concavity", "proof": "stepfn"}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# Machine speed.  On a shared host the same work runs up to ~40% slower for
# minutes at a time, which no run length averages out.  A fixed pure-Python
# reference loop therefore runs before every op and after the last, and
# each op's time is scaled by REF_NOMINAL_S over the mean of the reference
# times measured just before and just after it: times are reported at the
# machine speed where the loop takes REF_NOMINAL_S.  (The
# speed also changes within seconds, so references further away track it
# worse.)  The benchmark owns the loop, so no change to the library can move
# it; unscaled times are printed beside the scaled ones.
REF_NOMINAL_S = 2.5e-3


def _open_schedstat():
    try:
        return os.open("/proc/thread-self/schedstat", os.O_RDONLY)
    except OSError:
        return None


_SCHEDSTAT = _open_schedstat()


def run_delay() -> float:
    """Seconds this thread has spent runnable but waiting for a CPU (the
    second field of Linux's schedstat); 0.0 where the kernel does not
    report it.

    On a shared host other tenants' processes time-slice with the
    benchmark in bursts shorter than an op, which the reference loop cannot
    see.  On a 2-vCPU Xeon with a competing process pinned to the
    benchmark's CPU, the sweep tail read 139 ms scaled on wall time and 96
    ms with this wait taken out, against 93 ms with the CPU to itself.
    That wait is the host's, not the program's.
    """
    if _SCHEDSTAT is None:
        return 0.0
    return int(os.pread(_SCHEDSTAT, 64, 0).split()[1]) * 1e-9


def clock() -> float:
    """Wall time that stands still while this thread waits for a CPU."""
    return time.perf_counter() - run_delay()


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python workload shaped like the
    library's (integer and Fraction arithmetic, fsum of logs, dict, str and
    sort): the yardstick of the machine's speed."""
    t0 = clock()
    acc = 0
    for i in range(8_000):
        acc += i * i
    table = {i: str(i) for i in range(1_000)}
    frac = Fraction(0)
    for i in range(1, 120):
        frac += Fraction(i, i + 7)
    total = math.fsum(math.log(i) * 0.5 for i in range(1, 3_000))
    order = sorted((i * 7919) % 1013 for i in range(2_000))
    t1 = clock()
    del table, frac, total, order
    return t1 - t0


# Set-up is mostly interpreter start-up and imports, which the loop above
# does not track: set-up samples scaled by it spread more than raw ones.
# Each set-up sample is therefore scaled by a reference start-up timed just
# before and just after it, shaped like set-up: a fresh interpreter that
# imports this file and the modules the library imports from outside
# itself, then runs the reference loop for about as long as a warm-up op.
# Set-up samples are scaled to the speed where it takes REF_STARTUP_NOMINAL_S.
# (Over 8 x 11 probe set-ups on a 2-vCPU Xeon, the spread of the median
# was 0.37 raw, 0.08 scaled by the imports alone and 0.02 scaled by imports
# and loop.)  Like op times, set-up samples leave out the time the child's
# main thread waited for a CPU (see run_delay).
REF_STARTUP = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "import argparse, concurrent.futures, csv, dataclasses, fractions, json, numpy; "
               "[run.reference_loop() for _ in range(40)]; "
               "print('ready', run.run_delay(), flush=True)")
REF_STARTUP_NOMINAL_S = 0.3


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_cli():
    """Import ``kedlaya.cli`` from this checkout's ``src/``."""
    if not (SRC / "kedlaya" / "__init__.py").is_file():
        print(f"error: no kedlaya sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kedlaya
    import kedlaya.cli

    if Path(kedlaya.__file__).resolve().parent != (SRC / "kedlaya").resolve():
        print(f"error: imported kedlaya from {kedlaya.__file__}", file=sys.stderr)
        sys.exit(2)
    return kedlaya.cli


def set_up(workload: str, seed: int):
    """Import the library, start the op stream of ``seed`` and run one
    untimed warm-up op.  Returns the CLI module and the ops."""
    cli = import_cli()
    ops = iter_ops(workload, seed)
    run_op(cli, next(iter_ops(workload, WARM_UP_SEED)))
    return cli, ops


def time_until_ready(cmd: list) -> float:
    """Seconds from starting ``cmd`` until it prints ``ready <run delay>``,
    less that run delay of its main thread; waits for it to exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    said = line.split()
    if rc != 0 or len(said) != 2 or said[0] != "ready":
        raise RuntimeError(f"{' '.join(cmd)[:160]} failed (exit {rc}, said {line!r})")
    return t1 - t0 - float(said[1])


def measure_setup(args) -> tuple:
    """Median seconds from process start to the first timed op.

    Each sample starts a fresh interpreter that runs ``set_up`` and says
    when it is ready, and is scaled by the reference start-ups around it
    (see ``REF_STARTUP``).  Returns (scaled median, raw median).
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", REF_STARTUP, str(HERE)]
    refs = [time_until_ready(reference)]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(time_until_ready(probe))
        refs.append(time_until_ready(reference))
        scaled.append(raw[-1] * 2 * REF_STARTUP_NOMINAL_S / (refs[-2] + refs[-1]))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def run_op(cli, op):
    """Run one command in-process: (seconds on ``clock``, exit code or None,
    stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects a command this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
    if error is None and rc != 0:
        error = f"exit {rc}: {err.getvalue().strip()[:200]}"
    return t1 - t0, rc, out.getvalue(), error


class Phase:
    """Latencies and failures of one pass over whole cycles."""

    def __init__(self):
        self.latencies: list = []  # seconds per op on clock()
        self.refs: list = []       # reference loop before each op and after the last
        self.failures: list = []
        self.cycles = 0

    def scaled(self) -> list:
        """Latencies at nominal machine speed (see REF_NOMINAL_S)."""
        return [lat * 2 * REF_NOMINAL_S / (a + b)
                for lat, a, b in zip(self.latencies, self.refs, self.refs[1:])]


def run_cycles(cli, ops, workload: str, count: int, recorder=None) -> Phase:
    """Run the next ``count`` whole cycles of ``ops``."""
    phase = Phase()
    phase.refs.append(reference_loop())
    for op_id, op in enumerate(itertools.islice(ops, count * CYCLE_LENGTH[workload])):
        if recorder is not None:
            recorder.op_id = op_id
        dt, rc, stdout, error = run_op(cli, op)
        reason = error or check_output(op, rc, stdout)
        phase.latencies.append(dt)
        phase.refs.append(reference_loop())
        if reason:
            phase.failures.append((op_id, op.kind, reason))
    phase.cycles = count
    return phase


# ---------------------------------------------------------------------------
# Metrics and reporting
# ---------------------------------------------------------------------------

def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten ops beyond it:
    (seconds, percentile, ops beyond)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_metadata(args, loadavg, threads_env) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "loadavg_at_start": loadavg,
        "kedlaya_threads_unset": "KEDLAYA_THREADS" not in os.environ,
        "kedlaya_threads_removed": threads_env,
    }


def report_failures(phase: Phase) -> None:
    for op_id, kind, reason in phase.failures[:5]:
        print(f"FAILED op {op_id} ({kind}): {reason}", file=sys.stderr)


def timing(latencies: list) -> dict:
    tail_s, _, _ = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000.0,
            "op_tail_ms": tail_s * 1000.0}


def run_cycle_count(args) -> int:
    return max(1, round(RUN_CYCLES[args.workload] * args.seconds / RUN_CYCLES_SECONDS))


def end_to_end(args, cli, ops) -> tuple:
    phase = run_cycles(cli, ops, args.workload, run_cycle_count(args))
    setup_s, setup_raw = measure_setup(args)
    metrics = {"setup_s": setup_s, **timing(phase.scaled()), "peak_rss_mb": peak_rss_mb()}
    raw = {"setup_s": setup_raw, **timing(phase.latencies)}
    n = len(phase.latencies)
    _, tail_pct, beyond = tail(phase.latencies)
    for name, value in metrics.items():
        note = f"   (unscaled {raw[name]:.4f})" if name in raw else ""
        if name == "op_tail_ms":
            note += f"   (p{tail_pct:.1f}, {beyond} of {n} ops beyond)"
        print(f"{args.workload:6s} {name:12s} {value:12.4f} {END_TO_END_UNITS[name]:4s}{note}")
    print(f"{args.workload:6s} {'fail_frac':12s} {len(phase.failures) / n:12.4f} ratio"
          f"   ({len(phase.failures)} of {n} ops, {phase.cycles} cycles)")
    speed = statistics.median(phase.refs) / REF_NOMINAL_S
    print(f"{args.workload:6s} reference loop at {speed:.3f} x its nominal time")
    return [phase], metrics


def traced(args, cli, ops) -> tuple:
    from tracing import (SpanRecorder, SpanStats, bypass_violations,
                         install_kedlaya_spans, layer_metrics, layer_shares)

    # Both passes run the same ops: each draws them from its own stream.
    count = TRACE_CYCLES[args.workload]
    plain = run_cycles(cli, iter_ops(args.workload, args.seed), args.workload, count)
    rec = SpanRecorder()
    install_kedlaya_spans(rec)
    try:
        spans = run_cycles(cli, iter_ops(args.workload, args.seed), args.workload, count,
                           recorder=rec)
    finally:
        rec.uninstall()
    stats = SpanStats(rec)
    metrics = layer_metrics(stats)
    plain_busy = sum(plain.scaled())
    metrics["trace.overhead_frac"] = (sum(spans.scaled()) - plain_busy) / plain_busy
    OUT_DIR.mkdir(exist_ok=True)
    rec.write_tsv(OUT_DIR / f"spans_{args.workload}.tsv")

    print(f"{args.workload}: {len(rec)} spans over {len(spans.latencies)} ops "
          f"({spans.cycles} cycles)")
    print(f"{'layer':12s} {'self share':>10s} {'entry share':>12s}")
    shares = layer_shares(stats)
    for layer, (self_share, entry_share) in shares.items():
        print(f"{layer:12s} {self_share:10.3f} {entry_share:12.3f}")
    heaviest = max((l for l in shares if l != "cli"), key=lambda l: shares[l][1])
    print(f"heaviest layer: {heaviest} (predicted {PREDICTED_HEAVIEST[args.workload]})")
    bad = bypass_violations(stats, args.workload)
    print("bypass check: " + ("ok" if not bad else "reached " + ", ".join(bad)))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g}")
    return [plain, spans], metrics


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(RUN_CYCLES_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    loadavg = [round(v, 2) for v in os.getloadavg()]
    threads_env = os.environ.pop("KEDLAYA_THREADS", None)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", run_delay(), flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    cli, ops = set_up(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    phases, metrics = measure(args, cli, ops)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for p in phases:
        report_failures(p)
    print("meta " + json.dumps(run_metadata(args, loadavg, threads_env), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
