"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: public functions of
each ``kedlaya`` module are wrapped *at the module attribute the library
calls them through* (``evaluate`` is bound separately in ``means``,
``inequality``, ``stepfn`` and ``concavity``; ``make_weights`` and
``is_in_V`` are bound in several modules too), and restored afterwards.
Nothing under ``src/`` changes.

A span is (name, start, end, parent, op id, count, failed), kept in
compact arrays while the run lasts and written out when it ends.  The
layer of a span is the part of its name before the first dot, which is
the ``kedlaya`` module name.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "inequality", "means", "deviation", "concavity", "stepfn",
          "weights", "sampling")

_AXIOM_CHECKS = ("check_nullhomogeneity", "check_reduction",
                 "mean_value_residual", "check_elimination", "check_symmetry")
_CLOSED_FORMS = ("gini", "power_mean", "quasi_arithmetic", "gini21_counterexample")
_SOLVERS = ("homogeneous_deviation", "solve_deviation_mean")


class SpanRecorder:
    """Records nested spans around wrapped callables (single thread)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.failed = array("b")
        self.notes: dict = {}  # span index -> extra figures
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, module, attr: str, name: str, count=None, after=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``count(args, kwargs)`` gives the span's work count; ``after(rec,
        index, result)`` runs after the span has closed, so its cost is
        tracing overhead and not the layer's.
        """
        orig = getattr(module, attr)
        nid = self._nid(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(nid, count(args, kwargs) if count else 0)
            ok = False
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if after is not None:
                after(self, idx, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def _open(self, nid: int, count: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.count.append(count)
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if not ok:
            self.failed[idx] = 1

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write_tsv(self, path) -> None:
        t0 = self.start[0] if len(self) else 0.0
        lines = ["name\tstart_s\tend_s\tparent\top\tcount\tfailed"]
        for i in range(len(self)):
            lines.append(f"{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.count[i]}\t{self.failed[i]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _grid_note(rec: SpanRecorder, idx: int, f) -> None:
    """Grid figures of a built proof function, from its public surface."""
    import numpy as np

    grid = f.value_grid()
    columns = len(f.xs) - 1
    distinct = len(np.unique(grid, axis=0))  # grid[i] is the i-th x-column
    rec.notes[idx] = (columns * (len(f.ys) - 1), columns, distinct)


def _entries(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["x"])


def _trials(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs["trials"])


def install_kedlaya_spans(rec: SpanRecorder) -> None:
    """Wrap the public functions of every kedlaya layer."""
    from kedlaya import cli, concavity, deviation, inequality, means, sampling, stepfn, weights

    rec.wrap(cli, "main", "cli.main")
    rec.wrap(cli, "weights_from_strings", "weights.weights_from_strings")
    rec.wrap(means, "mean_from_id", "means.mean_from_id")
    for fn in ("check_kedlaya", "kedlaya_sides", "step_inequality",
               "partial_arithmetic_means"):
        rec.wrap(inequality, fn, f"inequality.{fn}")
    for mod in (means, inequality, stepfn, concavity):
        rec.wrap(mod, "evaluate", "means.evaluate", count=_entries)
    for fn in _AXIOM_CHECKS:
        rec.wrap(means, fn, "means.axiom_checks")
    for fn in _CLOSED_FORMS:
        rec.wrap(deviation, fn, "deviation.closed_form")
    for fn in _SOLVERS:
        rec.wrap(deviation, fn, "deviation.solver")
    rec.wrap(concavity, "sample_jensen_concavity", "concavity.sample", count=_trials)
    rec.wrap(stepfn, "build_proof_function", "stepfn.build_proof_function",
             after=_grid_note)
    for fn in ("jensen_fubini_sides", "verify_proof_construction", "function_to_json"):
        rec.wrap(stepfn, fn, f"stepfn.{fn}")
    for fn in ("proportional_set", "verify_proportionality"):
        rec.wrap(stepfn, fn, "stepfn.proportional")
    for mod in (weights, sampling, means):
        rec.wrap(mod, "make_weights", "weights.make_weights")
    for mod in (weights, inequality, sampling):
        rec.wrap(mod, "is_in_V", "weights.is_in_V")
    rec.wrap(sampling, "rational_v_weights", "sampling.rational_v_weights")
    for fn in ("entries_log_uniform", "weights_positive"):
        rec.wrap(sampling, fn, "sampling.entries")


# ---------------------------------------------------------------------------
# Deriving the per-layer metrics
# ---------------------------------------------------------------------------

class SpanStats:
    """Busy time, self time and counters derived from recorded spans.

    A span nested inside a span of the same name (``power_mean`` calling
    ``gini``, an affine mean calling ``evaluate`` again) is not counted as
    a call of its own, so ``calls`` and ``busy_s`` count outermost spans
    and busy time is never counted twice.
    """

    def __init__(self, rec: SpanRecorder):
        n = len(rec)
        names = [rec.names[i] for i in rec.name_id]
        parent = rec.parent
        dur = [rec.end[i] - rec.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.count = defaultdict(int)
        self.failed = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.entry = defaultdict(float)  # layer -> time in calls made from cli.main
        self.cli_total = 0.0
        self.seen = set(names)
        evals_below = defaultdict(int)    # span index -> outermost evaluate calls under it
        entries_below = defaultdict(int)  # span index -> their entries
        for i in range(n):
            name = names[i]
            layer = name.split(".", 1)[0]
            self.layer_self[layer] += dur[i] - child[i]
            ancestors = []
            p = parent[i]
            while p >= 0:
                ancestors.append(p)
                p = parent[p]
            if name == "cli.main":
                self.cli_total += dur[i]
            elif ancestors and names[ancestors[0]] == "cli.main":
                self.entry[layer] += dur[i]
            if any(names[a] == name for a in ancestors):
                continue
            self.calls[name] += 1
            self.busy[name] += dur[i]
            self.count[name] += rec.count[i]
            self.failed[name] += rec.failed[i]
            if name == "means.evaluate":
                for a in ancestors:
                    evals_below[a] += 1
                    entries_below[a] += rec.count[i]
        self.entry["cli"] = self.layer_self["cli"]
        # Entries passed to evaluate per check_kedlaya call, and the share of
        # each sampler call's 3 x trials midpoint rows evaluated one by one.
        self.check_entries = sum(entries_below[i] for i in range(n)
                                 if names[i] == "inequality.check_kedlaya")
        fallback = [evals_below[i] / (3 * rec.count[i]) for i in range(n)
                    if names[i] == "concavity.sample"]
        self.row_fallback_frac = sum(fallback) / len(fallback) if fallback else 0.0
        self.grid = [rec.notes[i] for i in sorted(rec.notes)]


def layer_metrics(stats: SpanStats) -> dict:
    """The per-layer metrics, by name, as plain floats (0 when bypassed)."""
    s = stats

    def ratio(num, den) -> float:
        return float(num) / den if den else 0.0

    cells = sum(g[0] for g in s.grid)
    columns = sum(g[1] for g in s.grid)
    distinct = sum(g[2] for g in s.grid)
    return {
        "cli.main.calls": s.calls["cli.main"],
        "cli.self_s": s.layer_self["cli"],
        "inequality.check_kedlaya.calls": s.calls["inequality.check_kedlaya"],
        "inequality.check_kedlaya.busy_s": s.busy["inequality.check_kedlaya"],
        "inequality.kedlaya_sides.busy_s": s.busy["inequality.kedlaya_sides"],
        "inequality.step_inequality.calls": s.calls["inequality.step_inequality"],
        "inequality.step_inequality.busy_s": s.busy["inequality.step_inequality"],
        "inequality.entries_per_instance": ratio(
            s.check_entries, s.calls["inequality.check_kedlaya"]),
        "inequality.self_s": s.layer_self["inequality"],
        "means.evaluate.calls": s.calls["means.evaluate"],
        "means.evaluate.entries": s.count["means.evaluate"],
        "means.evaluate.busy_s": s.busy["means.evaluate"],
        "means.axiom_checks.calls": s.calls["means.axiom_checks"],
        "means.axiom_checks.busy_s": s.busy["means.axiom_checks"],
        "means.self_s": s.layer_self["means"],
        "deviation.closed_form.calls": s.calls["deviation.closed_form"],
        "deviation.closed_form.busy_s": s.busy["deviation.closed_form"],
        "deviation.solver.calls": s.calls["deviation.solver"],
        "deviation.solver.busy_s": s.busy["deviation.solver"],
        "deviation.solver.failed": s.failed["deviation.solver"],
        "deviation.self_s": s.layer_self["deviation"],
        "concavity.sample.calls": s.calls["concavity.sample"],
        "concavity.sample.busy_s": s.busy["concavity.sample"],
        "concavity.row_fallback_frac": s.row_fallback_frac,
        "concavity.self_s": s.layer_self["concavity"],
        "stepfn.build_proof_function.calls": s.calls["stepfn.build_proof_function"],
        "stepfn.build_proof_function.busy_s": s.busy["stepfn.build_proof_function"],
        "stepfn.jensen_fubini_sides.calls": s.calls["stepfn.jensen_fubini_sides"],
        "stepfn.jensen_fubini_sides.busy_s": s.busy["stepfn.jensen_fubini_sides"],
        "stepfn.grid_cells": cells,
        "stepfn.distinct_column_frac": ratio(distinct, columns),
        "stepfn.proportional.busy_s": s.busy["stepfn.proportional"],
        "stepfn.self_s": s.layer_self["stepfn"],
        "weights.make_weights.calls": s.calls["weights.make_weights"],
        "weights.make_weights.busy_s": s.busy["weights.make_weights"],
        "weights.is_in_V.calls": s.calls["weights.is_in_V"],
        "weights.is_in_V.busy_s": s.busy["weights.is_in_V"],
        "sampling.rational_v_weights.calls": s.calls["sampling.rational_v_weights"],
        "sampling.rational_v_weights.busy_s": s.busy["sampling.rational_v_weights"],
    }


# Layers (or span names) a workload must never reach.  Each is the
# "bypass" side of a prediction in the layer-to-metric table.
BYPASS = {
    "stepfn": ("sweep", "scan", "probe"),
    "concavity": ("sweep", "scan", "proof"),
    "deviation.solver": ("sweep",),
}


def bypass_violations(stats: SpanStats, workload: str) -> list:
    """Span names seen in ``workload`` that its bypass list forbids."""
    bad = []
    for prefix, workloads in BYPASS.items():
        if workload not in workloads:
            continue
        for name in sorted(stats.seen):
            if name == prefix or name.startswith(prefix + "."):
                bad.append(name)
    return bad


def layer_shares(stats: SpanStats) -> dict:
    """Per layer: (self-time share, entry share) of total cli.main time.

    The entry share is the time of the calls a command makes directly
    into the layer, children included; it is the share the layer-to-metric
    predictions are stated in.
    """
    total = stats.cli_total or 1.0
    return {layer: (stats.layer_self[layer] / total, stats.entry[layer] / total)
            for layer in LAYERS}
