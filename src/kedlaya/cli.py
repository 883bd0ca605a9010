"""Command-line front end.

Subcommands: ``check``, ``sweep``, ``refute``, ``concavity``, ``axioms``,
``proof-fn`` (alias ``dump-proof-fn``), ``proportional``.

Exit codes: 0 when every finding passes, 1 on a violated or inconsistent
finding (so CI can gate on it), 2 on usage errors.  Reports carry
``"schema": 1`` and contain no timestamps, so a fixed seed reproduces a
byte-identical report; record lists reach the JSON writer as column tables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import sys

from . import concavity as conc
from . import inequality as ineq
from . import means as mn
from . import stepfn
from .errors import KedlayaError, NegativeSeed
from .weights import scalar_from_string, weights_from_strings

SCHEMA = 1


def _parse_floats(text: str) -> list:
    return [scalar_from_string(s, exact=False) for s in text.split(",")]


def _parse_weights(text: str, exact: bool):
    return weights_from_strings(text.split(","), cls="W0", exact=exact)


_ESCAPE = json.encoder.encode_basestring_ascii


def _column(col: list):
    """The texts of one column of scalars, or None if it holds a container.
    A column of texts or of finite floats encodes each distinct item once."""
    kinds = set(map(type, col))
    if kinds == {str} or kinds == {float} and all(map(math.isfinite, col)):
        encode = _ESCAPE if kinds == {str} else float.__repr__
        distinct = set(col)  # a set merges -0.0 and 0.0, so a zero is written value by value
        if 0.0 in distinct or len(distinct) == len(col):
            return list(map(encode, col))
        return list(map(dict(zip(distinct, map(encode, distinct))).__getitem__, col))
    if kinds == {int}:
        return list(map(int.__repr__, col))
    if any(issubclass(k, (list, tuple, dict)) for k in kinds):
        return None
    return list(map(json.dumps, col))


class _Table(dict):
    """A list of flat records held as columns: each ``str`` key maps to a column
    of scalars, or to a tuple of columns giving each record a list of that many
    items.  It writes as its records, keys sorted, and has none with no column."""


def _write_table(fields: _Table, depth: int, parts: list) -> None:
    """Append the text of the records of ``fields`` at ``depth`` to ``parts``:
    the columns' texts interleaved with the fragments of one record template."""
    row, pad, inner = ("\n" + "  " * (depth + i) for i in (1, 2, 3))
    cols, slots = [], []
    for name, field in sorted(fields.items()):
        if isinstance(field, tuple):
            cols += field
            width = len(field)
            slot = "[" + inner + ("," + inner).join("\0" * width) + pad + "]" if width else "[]"
        else:
            cols.append(field)
            slot = "\0"
        slots.append(_ESCAPE(name) + ": " + slot)
    if not cols or not cols[0]:
        parts.append("[]")
        return
    # an escaped text holds no raw NUL, so NUL marks each value slot
    first, *joins = ("{" + pad + ("," + pad).join(slots) + row + "}").split("\0")
    rows, step = len(cols[0]), 2 * len(cols)
    last, joins[-1] = joins[-1], joins[-1] + "," + row + first
    out = [None] * (step * rows)
    for i, (col, join) in enumerate(zip(cols, joins)):
        out[2 * i::step] = _column(col)
        out[2 * i + 1::step] = [join] * rows
    out[-1] = last + "\n" + "  " * depth + "]"
    parts.append("[" + row + first)
    parts += out


def _write(o, depth: int, parts: list, open_ids: set) -> None:
    """Append the text of ``o`` at ``depth`` to ``parts``.  The caller joins
    them once: a joined string per level would copy the piece list again at
    every level above it.

    Only a dict with ``str`` keys is walked here, and only a list of
    scalars or a :class:`_Table` is written column by column; ``json``
    writes every other value, each raw newline of its text being a line
    break (it escapes those inside strings).
    """
    if not isinstance(o, (list, tuple, dict)):
        parts += _column([o])
    elif type(o) is _Table:
        _write_table(o, depth, parts)
    elif isinstance(o, dict) and o and set(map(type, o)) == {str}:
        if id(o) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(o))
        sep, pad = "{", "\n" + "  " * (depth + 1)
        for k, v in sorted(o.items()):
            parts.append(sep + pad + _ESCAPE(k) + ": ")
            _write(v, depth + 1, parts, open_ids)
            sep = ","
        open_ids.discard(id(o))
        parts.append("\n" + "  " * depth + "}")
    elif isinstance(o, dict) or not o or (texts := _column(o)) is None:
        parts.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth))
    else:
        pad = "\n" + "  " * (depth + 1)
        sep, comma = "[" + pad, "," + pad
        for text in texts:
            parts += (sep, text)
            sep = comma
        parts.append("\n" + "  " * depth + "]")


def _dumps(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, byte for byte, on any
    input with each :class:`_Table` in place of its records, and the same
    exception type where that raises.

    With ``indent`` set, ``json`` runs its generator-based pure-Python
    encoder.  This writer appends strings to one list, walks the
    ``str``-keyed dicts of a report itself, and encodes a list of scalars,
    or each column of a table, with one C-level ``map``; it hands every
    other value to ``json.dumps``.
    """
    parts: list = []
    _write(report, 0, parts, set())
    return "".join(parts)


def _emit(report: dict, fmt: str, out: str | None, text_lines=None) -> None:
    """Write a report to ``out``, or to stdout.  A JSON report is exactly
    ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline; a text
    report is the lines that the zero-argument ``text_lines`` returns, built
    only for text output."""
    if fmt == "json":
        payload = _dumps(report) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["trial", "n", "gap", "verdict"])
        t = report["trials"]
        writer.writerows(zip(t["trial"], t["n"], map(repr, t["gap"]), t["verdict"]))
        payload = buf.getvalue()
    else:
        payload = "\n".join(text_lines()) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _gap_line(lhs: float, rhs: float, gap: float, verdict: str) -> str:
    sign = "+" if gap >= 0 else "-"
    rel = "<=" if gap >= 0 else ">"
    return (f"lhs = {lhs:.12g}  {rel}  rhs = {rhs:.12g}   "
            f"gap = {sign}{abs(gap):.6e}  [{verdict}]")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    mean = mn.mean_from_id(args.mean)
    x = _parse_floats(args.x)
    w = _parse_weights(args.w, exact=args.exact_weights)
    report = ineq.check_kedlaya(mean, x, w, tol=args.tol, expect=args.expect)
    doc = {"schema": SCHEMA, "command": "check", **report.to_dict()}
    _emit(doc, args.format, args.out,
          lambda: [_gap_line(report.lhs, report.rhs, report.gap, report.verdict),
                   "step gaps: " + ", ".join(f"{g:+.3e}" for g in report.step_gaps)])
    return 1 if report.verdict == ineq.VIOLATED else 0


def _require(ok: bool, message: str) -> None:
    """Reject an option value that numpy or the library would otherwise
    reject in its own terms (``low >= high``, ``n must be >= 1``), or that
    would give a report with no evidence."""
    if not ok:
        raise ValueError(message)


def _cmd_sweep(args) -> int:
    _require(args.trials >= 1, f"--trials must be >= 1, got {args.trials}")
    _require(args.max_den >= 2, f"--max-den must be >= 2, got {args.max_den}")
    _require(args.max_den <= 2 ** 53, f"--max-den must be <= 2**53, got {args.max_den}")
    mean = mn.mean_from_id(args.mean)
    _require(args.n >= 1, f"--n must be >= 1, got {args.n}")
    gaps, verdicts = ineq.sweep_kedlaya(mean, args.n, args.trials, args.seed, args.max_den,
                                        args.tol, args.expect)
    counts: dict = {}
    for verdict in verdicts:
        counts[verdict] = counts.get(verdict, 0) + 1
    min_gap = min(gaps, default=0.0)
    doc = {
        "schema": SCHEMA,
        "command": "sweep",
        "mean": str(mean),
        "n": args.n,
        "trials": _Table({"trial": list(range(len(gaps))), "n": [args.n] * len(gaps),
                          "gap": gaps, "verdict": verdicts}),
        "seed": args.seed,
        "summary": {"counts": counts, "min_gap": min_gap},
    }
    bad = counts.get(ineq.VIOLATED, 0)
    _emit(doc, args.format, args.out,
          lambda: [f"sweep {str(mean)} n={args.n} trials={args.trials} seed={args.seed}",
                   f"verdicts: {counts}", f"min gap: {min_gap:.6e}"])
    return 1 if bad else 0


def _cmd_refute(args) -> int:
    mean = mn.mean_from_id(args.mean)
    w = _parse_weights(args.w, exact=args.exact_weights)
    _require(args.budget >= 1, f"--budget must be >= 1, got {args.budget}")
    witness = ineq.search_violation(mean, w, budget=args.budget,
                                    seed=args.seed, tol=args.tol)
    if witness is None:
        doc = {"schema": SCHEMA, "command": "refute", "mean": str(mean),
               "witness": None, "budget": args.budget}
        _emit(doc, args.format, args.out,
              lambda: [f"no violation found within budget {args.budget} "
                       "(inconsistent with the necessity condition)"])
        return 1
    doc = {"schema": SCHEMA, "command": "refute", "mean": str(mean),
           "witness": {"x": list(witness.x), **witness.report.to_dict()},
           "budget": args.budget}
    _emit(doc, args.format, args.out,
          lambda: [f"witness x = {list(witness.x)}",
                   _gap_line(witness.report.lhs, witness.report.rhs,
                             witness.report.gap, witness.report.verdict)])
    return 0


def _cmd_concavity(args) -> int:
    mean = mn.mean_from_id(args.mean)
    _require(args.n >= 1, f"--n must be >= 1, got {args.n}")
    _require(args.trials >= 1, f"--trials must be >= 1, got {args.trials}")
    verdict = conc.sample_jensen_concavity(mean, args.n, args.trials,
                                           tol=args.tol, seed=args.seed)
    doc = {"schema": SCHEMA, "command": "concavity", "mean": str(mean),
           "n": args.n, "seed": args.seed, **verdict.to_dict()}
    _emit(doc, args.format, args.out,
          lambda: [f"{str(mean)} on {args.trials} trials: {verdict.verdict} "
                   f"(worst violation {verdict.worst_violation:.3e})"])
    return 0


def _cmd_axioms(args) -> int:
    _require(args.trials >= 1, f"--trials must be >= 1, got {args.trials}")
    _require(args.n >= 2, f"--n must be >= 2, got {args.n}")
    mean = mn.mean_from_id(args.mean)
    worst = mn.sample_axiom_residuals(mean, args.trials, args.n, args.seed)
    doc = {"schema": SCHEMA, "command": "axioms", "mean": str(mean),
           "trials": args.trials, "seed": args.seed, "tol": args.tol,
           "worst_residuals": worst}
    _emit(doc, args.format, args.out,
          lambda: [f"axiom residuals for {str(mean)} over {args.trials} trials:"]
          + [f"  {axiom:18s} {r:.3e}  [{'ok' if r <= args.tol else 'FAIL'}]"
             for axiom, r in worst.items()])
    return 0 if all(r <= args.tol for r in worst.values()) else 1


def _cmd_proof_fn(args) -> int:
    mean = mn.mean_from_id(args.mean)
    x = _parse_floats(args.x)
    w = weights_from_strings(args.w.split(","), cls="W0", exact=True)
    _require(2 <= args.j <= len(w), f"--j must be in [2, {len(w)}], got {args.j}")
    f = stepfn.build_proof_function(x, w, args.j)
    jf = stepfn.jensen_fubini_sides(mean, f)
    ok = stepfn._matches_step(mean, x, w, args.j, jf, args.tol)
    function = stepfn.function_columns(f)
    doc = {"schema": SCHEMA, "command": "proof-fn", "mean": str(mean),
           "j": args.j, "match": ok,
           "swap_sides": {"lhs": jf[0], "rhs": jf[1]},
           "function": {**function, "pieces": _Table(function["pieces"])}}
    _emit(doc, "json" if args.format == "text" else args.format, args.out)
    return 0 if ok else 1


def _cmd_proportional(args) -> int:
    theta = scalar_from_string(args.theta)
    vals = [scalar_from_string(s) for s in args.host.split(",")]
    if len(vals) != 4:
        raise KedlayaError("--host needs four comma-separated rationals a,b,c,d")
    host = stepfn.rect(vals[0], vals[1], vals[2], vals[3])
    ps = stepfn.proportional_set(host, theta)
    ok, failures = stepfn.verify_proportionality(ps, explain=True)
    rectangles = stepfn.rectangle_columns(ps)
    doc = {"schema": SCHEMA, "command": "proportional", "theta": str(theta),
           "host": {"x": [str(vals[0]), str(vals[1])],
                    "y": [str(vals[2]), str(vals[3])]},
           "rectangles": _Table(rectangles),
           "verified": ok, "failures": failures}
    _emit(doc, args.format, args.out,
          lambda: [f"theta={theta} host rectangles={len(rectangles['x'][0])} verify={ok}"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--json", dest="format", action="store_const", const="json",
                   help="shorthand for --format json")
    p.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kedlaya",
        description="Weighted means and prefix-mean inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate the inequality on one input")
    p.add_argument("--mean", required=True)
    p.add_argument("--x", required=True, help="comma-separated entries")
    p.add_argument("--w", required=True, help="comma-separated weights")
    p.add_argument("--expect", choices=[ineq.HOLDS, ineq.REVERSED], default=None)
    p.add_argument("--exact-weights", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sweep", help="randomized sweep over admissible weights")
    p.add_argument("--mean", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-den", type=int, default=9)
    p.add_argument("--expect", choices=[ineq.HOLDS, ineq.REVERSED], default=None)
    _add_common(p, formats=("text", "json", "csv"))  # only sweep has a table
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("refute", help="search for a reversed-inequality violation")
    p.add_argument("--mean", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-weights", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_refute)

    p = sub.add_parser("concavity", help="randomized midpoint concavity probe")
    p.add_argument("--mean", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_concavity)

    p = sub.add_parser("axioms", help="randomized axiom conformance residuals")
    p.add_argument("--mean", required=True)
    p.add_argument("--n", type=int, default=5, help="max entries per instance")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_axioms)

    for name in ("proof-fn", "dump-proof-fn"):
        about = "emit the block construction as JSON (always JSON, even with --format text)"
        p = sub.add_parser(name, help=about, description=about)
        p.add_argument("--mean", required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--w", required=True, help="rational weights")
        p.add_argument("--j", type=int, required=True)
        _add_common(p)
        p.set_defaults(fn=_cmd_proof_fn)

    for p in sub.choices.values():  # every command so far reads --tol
        p.add_argument("--tol", type=float, default=1e-9, help="verdict tolerance")

    p = sub.add_parser("proportional", help="build and verify a proportional set")
    p.add_argument("--theta", required=True, help="rational in [0,1], e.g. 1/2")
    p.add_argument("--host", required=True, help="a,b,c,d for [a,b) x [c,d)")
    _add_common(p)
    p.set_defaults(fn=_cmd_proportional)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on the first call of the process: a build
    costs about 2 ms, a tenth of a short command."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  Python's cyclic garbage collector is paused while it
    runs and the caller's setting is restored after: a command makes no
    reference cycles, and the collector's scans of its piece tuples, dicts
    and lists, which reference counting frees anyway, took about 7% of a
    ``proof-fn`` command's time."""
    args = _parser().parse_args(argv)
    tol = getattr(args, "tol", 1.0)
    if tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if not math.isfinite(tol):  # nan fails every comparison; inf passes every gap
        print(f"error: --tol must be positive and finite, got {tol}", file=sys.stderr)
        return 2
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except NegativeSeed:  # raised where numpy would reject the seed
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    except (KedlayaError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
