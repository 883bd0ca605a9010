"""Output checks drawn from the paper's invariants.

``check_output(op, rc, stdout)`` returns ``None`` when the command's
report is correct and a one-line reason otherwise.  Checks compare with
tolerances, never byte for byte, so an accuracy fix that changes the last
digits of a report still passes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

REL_TOL = 1e-9

# Shapes the concavity sampler must find.  The gini-family entries are
# cross-checked against kedlaya.concavity.gini_concavity_condition in
# _check_concavity, so a table entry cannot drift from the exact region.
KNOWN_SHAPE = {
    "qa:log": "concave",
    "homdev:shifted-power:0.5": "concave",
    "power:0.5": "concave",
    "gini:2:1": "convex",
}
_GINI_PARAMS = {"power:0.5": (0.5, 0.0), "gini:2:1": (2.0, 1.0)}


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def _arg(op, flag: str) -> str:
    argv = op.argv
    return argv[argv.index(flag) + 1]


def _verdict_ok(verdict: str, expect: str) -> bool:
    return verdict in (expect, "equality")


def _check_sweep(op, doc: dict):
    want = op.expect
    rows = doc["trials"]
    if doc["command"] != "sweep" or len(rows) != want["trials"]:
        return f"sweep reported {len(rows)} trials, asked {want['trials']}"
    if doc["n"] != want["n"]:
        return f"sweep reported n={doc['n']}, asked {want['n']}"
    for row in rows:
        if not _verdict_ok(row["verdict"], want["verdict"]):
            return f"trial {row['trial']} verdict {row['verdict']}"
        if not math.isfinite(row["gap"]):
            return f"trial {row['trial']} gap {row['gap']}"
    if sum(doc["summary"]["counts"].values()) != len(rows):
        return "summary counts do not add up to the trials"
    return None


def _check_check(op, doc: dict):
    """Verdict, plus the telescoping identity sum(step_gaps) = S_n * gap."""
    want = op.expect
    if doc["command"] != "check" or doc["n"] != want["n"]:
        return f"check reported n={doc.get('n')}, asked {want['n']}"
    if not _verdict_ok(doc["verdict"], want["verdict"]):
        return f"verdict {doc['verdict']}"
    lhs, rhs, gap = doc["lhs"], doc["rhs"], doc["gap"]
    scale = max(abs(lhs), abs(rhs))
    if not (math.isfinite(scale) and _close(gap, rhs - lhs, scale)):
        return f"gap {gap} is not rhs - lhs"
    steps = doc["step_gaps"]
    if len(steps) != want["n"] - 1:
        return f"{len(steps)} step gaps for n={want['n']}"
    s_n = math.fsum(float(v) for v in doc["inputs"]["w"])
    residual = abs(math.fsum(steps) - s_n * gap)
    if residual > REL_TOL * s_n * scale:
        return f"telescoping residual {residual:.3e}"
    return None


def _check_concavity(op, doc: dict):
    from kedlaya.concavity import gini_concavity_condition

    mean = _arg(op, "--mean")
    want = KNOWN_SHAPE[mean]
    if mean in _GINI_PARAMS:
        region = "concave" if gini_concavity_condition(*_GINI_PARAMS[mean]) else "convex"
        if region != want:
            return f"shape table disagrees with the exact region for {mean}"
    if doc["trials"] != op.expect["trials"]:
        return f"sampler reported {doc['trials']} trials"
    if doc["verdict"] != want:
        return f"{mean} sampled {doc['verdict']}, known {want}"
    return None


def _check_axioms(op, doc: dict):
    if doc["trials"] != op.expect["trials"]:
        return f"axioms reported {doc['trials']} trials"
    tol = doc["tol"]
    for axiom, r in doc["worst_residuals"].items():
        if not (math.isfinite(r) and 0 <= r <= tol):
            return f"{axiom} residual {r}"
    return None


def _check_proof_fn(op, doc: dict):
    """The swap sides must match the telescoping step (``match``) and obey
    the swap inequality for the concave means used here: Ar(M) <= M(Ar)."""
    if doc["match"] is not True:
        return "proof function does not match the step inequality"
    if doc["j"] != op.expect["j"]:
        return f"proof-fn reported j={doc['j']}"
    lhs, rhs = doc["swap_sides"]["lhs"], doc["swap_sides"]["rhs"]
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return f"swap sides {lhs}, {rhs}"
    if lhs > rhs + REL_TOL * max(abs(lhs), abs(rhs)):
        return f"swap inequality reversed: {lhs} > {rhs}"
    if not doc["function"]["pieces"]:
        return "proof function has no pieces"
    return None


def _check_proportional(op, doc: dict):
    """Verified, and the rectangles cover exactly theta of the host."""
    if doc["verified"] is not True or doc["failures"]:
        return "proportional set not verified"
    theta = Fraction(doc["theta"])
    hx = [Fraction(v) for v in doc["host"]["x"]]
    hy = [Fraction(v) for v in doc["host"]["y"]]
    area = sum(((Fraction(r["x"][1]) - Fraction(r["x"][0]))
                * (Fraction(r["y"][1]) - Fraction(r["y"][0]))
                for r in doc["rectangles"]), Fraction(0))
    if area != theta * (hx[1] - hx[0]) * (hy[1] - hy[0]):
        return f"rectangles cover {area}, expected theta times the host"
    return None


_CHECKS = {
    "sweep": _check_sweep,
    "check": _check_check,
    "concavity": _check_concavity,
    "axioms": _check_axioms,
    "proof-fn": _check_proof_fn,
    "proportional": _check_proportional,
}


def check_output(op, rc: int, stdout: str):
    """``None`` if the command succeeded with a correct report, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
        return _CHECKS[op.argv[0]](op, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
