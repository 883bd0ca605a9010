"""Command-line interface: exit codes, report formats, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kedlaya import cli
from kedlaya import inequality as ineq
from kedlaya import means as mn
from kedlaya import stepfn
from kedlaya.cli import main
from kedlaya.errors import Overflow
from sweep_oracle import oracle_report, oracle_trial
from test_stepfn import rational_hosts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_geometric_anchor(self, capsys):
        code, out, _ = run(capsys, "check", "--mean", "power:0",
                           "--x", "1,4", "--w", "1,1")
        assert code == 0
        assert "8.113883e-02" in out
        assert "holds" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", "--mean", "power:0",
                           "--x", "1,4", "--w", "1,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["verdict"] == "holds"
        assert doc["gap"] == pytest.approx(0.08113883008418976)

    def test_violated_expectation_exits_one(self, capsys):
        code, _, _ = run(capsys, "check", "--mean", "gini:2:1",
                         "--x", "1,4", "--w", "1,1", "--expect", "holds")
        assert code == 1

    def test_rational_weight_literals(self, capsys):
        code, out, _ = run(capsys, "check", "--mean", "power:0",
                           "--x", "1,4", "--w", "1/2,1/2", "--json")
        assert code == 0
        assert json.loads(out)["gap"] == pytest.approx(0.08113883008418976)

    def test_usage_error_bad_mean(self, capsys):
        code, _, err = run(capsys, "check", "--mean", "nonsense",
                           "--x", "1,4", "--w", "1,1")
        assert code == 2
        assert "mean" in err

    @pytest.mark.parametrize("x, entry", [("1e200,2", "1e+200"),
                                          ("1e154,1.3e154", "1.3e+154")])
    def test_generator_overflow_exits_two(self, capsys, x, entry):
        code, _, err = run(capsys, "check", "--mean", "qa:pow:2",
                           "--x", x, "--w", "1,1")
        assert code == 2
        assert err.startswith("error: qa:pow:2:") and entry in err

    def test_generator_overflow_same_line_as_per_prefix_path(self, capsys, monkeypatch):
        argv = ("check", "--mean", "qa:pow:2", "--x", "1e200,2", "--w", "1,1")
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, "error: qa:pow:2: generator overflows at entry 1e+200\n")
        resolve = cli.mn.mean_from_id
        monkeypatch.setattr(cli.mn, "mean_from_id",
                            lambda mean_id: replace(resolve(mean_id), _prefix=None))
        assert run(capsys, *argv)[::2] == (code, err)

    @pytest.mark.parametrize("x", ["1.2e154,1.3e154", "1e155,1"])
    def test_gini21_moment_overflow_exits_two(self, capsys, x):
        code, out, err = run(capsys, "check", "--mean", "gini21", "--x", x, "--w", "1,1")
        assert (code, out) == (2, "")
        assert err == "error: gini21: a weighted moment sum is beyond the float range\n"

    def test_gini_equal_negative_parameters_on_a_wide_range(self, capsys):
        # terms scaled by min(x): 1e-300 against 1e300 no longer underflows to 0.0 ** -1
        code, out, err = run(capsys, "check", "--mean", "gini:-1:-1",
                             "--x", "1e300,1e-300", "--w", "1,1", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert math.isfinite(doc["lhs"]) and math.isfinite(doc["rhs"])

    def test_usage_error_nonpositive_tol(self, capsys):
        code, _, err = run(capsys, "check", "--mean", "power:0",
                           "--x", "1,4", "--w", "1,1", "--tol", "0")
        assert code == 2
        assert "tol" in err


    @pytest.mark.parametrize("extra", [[], ["--exact-weights"]])
    def test_weight_sum_overflow_exits_two(self, capsys, extra):
        code, _, err = run(capsys, "check", "--mean", "power:0",
                           "--x", "1,2", "--w", "1e308,1e308", *extra)
        assert code == 2
        assert err.startswith("error:") and "sum beyond the float range" in err

    def test_weight_sum_overflow_names_cause_for_arithmetic(self, capsys):
        code, _, err = run(capsys, "check", "--mean", "arithmetic",
                           "--x", "1,2", "--w", "1e308,1e308")
        assert code == 2
        assert "sum beyond the float range" in err and "nan" not in err

    def test_weighted_entry_sum_overflow_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--mean", "power:0",
                           "--x", "100,2", "--w", "1e308,1e307")
        assert code == 2
        assert "sum of the entries overflows the float range" in err

    def test_prefix_mean_sum_overflow_exits_two(self, capsys):
        # both prefix means are floats, but their weighted sum, taken for the lhs, is not
        code, out, err = run(capsys, "check", "--mean", "arithmetic",
                             "--x", "1.7976931348623157e308,1", "--w", "1,1")
        assert (code, out, err) == (2, "", "error: a weighted sum overflows the float range\n")

    def test_gini_log_form_overflow_exits_two(self, capsys):
        code, out, err = run(capsys, "check", "--mean", "gini:-1e-300:1",
                             "--x", "1.7976931348623157e308,5e-324,2.2250738585072014e-308,0.5,3/7",
                             "--w", "0.5,1/3,5e-324,1e-300,1/3")
        assert (code, out) == (2, "")
        assert err == ("error: gini:-1e-300:1: the mean of [1.7976931348623157e+308, 5e-324] "
                       "overflows the float range\n")

    @pytest.mark.parametrize("x, w", [("1e400,2", "1,1"), ("1,2", "1e400,1")])
    def test_literal_beyond_float_range_exits_two(self, capsys, x, w):
        code, _, err = run(capsys, "check", "--mean", "power:0", "--x", x, "--w", w)
        assert code == 2
        assert err == "error: 1e400 is beyond the float range\n"


@pytest.mark.parametrize("argv, literal", [
    (("check", "--mean", "power:0", "--x", "1,2/0", "--w", "1,1"), "2/0"),
    (("check", "--mean", "power:0", "--x", "1,2", "--w", "1,1/0"), "1/0"),
    (("proof-fn", "--mean", "power:0", "--x", "1,2", "--w", "1,3/0", "--j", "2"), "3/0"),
    (("proportional", "--theta", "1/0", "--host", "0,1,0,1"), "1/0"),
    (("proportional", "--theta", "1/2", "--host", "0,1,0/0,1"), "0/0"),
])
def test_zero_denominator_names_the_literal(capsys, argv, literal):
    # Fraction alone says "Fraction(2, 0)", which names neither option nor cause
    assert run(capsys, *argv) == (2, "", f"error: {literal} has a zero denominator\n")


def test_homogeneous_deviation_on_a_wide_range(capsys):
    # the bisection cap follows the bracket: 1e-100..1e100 needs ~370 halvings
    code, out, err = run(capsys, "check", "--mean", "homdev:shifted-power:0",
                         "--x", "1e-100,1e100", "--w", "1,1", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    # lhs = (1e-100 + M) / 2 with M the mean of both entries, the geometric mean 1
    assert abs(2.0 * doc["lhs"] - 1.0) < 2e-12


@pytest.mark.parametrize("argv, message", [
    # numpy would say "low >= high" for these two
    (("sweep", "--mean", "power:0", "--n", "4", "--max-den", "1"), "--max-den must be >= 2, got 1"),
    (("axioms", "--mean", "power:0", "--n", "1"), "--n must be >= 2, got 1"),
    # no trial at all: an empty report, or every axiom marked ok on no evidence
    (("sweep", "--mean", "power:0", "--n", "4", "--trials", "0"), "--trials must be >= 1, got 0"),
    (("axioms", "--mean", "power:0", "--trials", "0"), "--trials must be >= 1, got 0"),
    (("axioms", "--mean", "power:0", "--trials", "-3"), "--trials must be >= 1, got -3"),
    # the library's own messages name no option
    (("sweep", "--mean", "power:0", "--n", "0"), "--n must be >= 1, got 0"),
    (("concavity", "--mean", "power:0", "--n", "0"), "--n must be >= 1, got 0"),
    (("proof-fn", "--mean", "power:0", "--x", "1,4,2", "--w", "2,1,1", "--j", "1"),
     "--j must be in [2, 3], got 1"),
    (("proof-fn", "--mean", "power:0", "--x", "1,4,2", "--w", "2,1,1", "--j", "4"),
     "--j must be in [2, 3], got 4"),
    # a search of no candidates would report a finding on no evidence
    (("refute", "--mean", "gini21", "--w", "1,1,4", "--budget", "0"), "--budget must be >= 1, got 0"),
    (("refute", "--mean", "gini21", "--w", "1,1,4", "--budget", "-5"),
     "--budget must be >= 1, got -5"),
    (("concavity", "--mean", "power:0", "--trials", "0"), "--trials must be >= 1, got 0"),
    # nan fails every comparison (every axiom FAIL), inf passes every gap
    (("axioms", "--mean", "power:0", "--tol", "nan"),
     "--tol must be positive and finite, got nan"),
    (("check", "--mean", "power:0", "--x", "1,4", "--w", "1,1", "--tol", "inf"),
     "--tol must be positive and finite, got inf"),
    # numpy would say "expected non-negative integer"
    (("sweep", "--mean", "power:0", "--n", "4", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("concavity", "--mean", "power:0", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("axioms", "--mean", "power:0", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("refute", "--mean", "arithmetic", "--w", "1,1,4", "--budget", "60", "--seed", "-1"),
     "--seed must be >= 0, got -1"),
    # the seed is checked where numpy took it, after the checks before that
    (("axioms", "--mean", "power:0", "--n", "1", "--seed", "-1"), "--n must be >= 2, got 1"),
    (("refute", "--mean", "gini21", "--w", "1,1,1", "--seed", "-1"),
     "weights are in V_n; the reversed inequality cannot fail"),
    # a witness found by the structured phase, before any draw, is no excuse
    (("refute", "--mean", "gini21", "--w", "1,1,4", "--budget", "100", "--seed", "-1"),
     "--seed must be >= 0, got -1"),
    # numpy would say "high is out of bounds for int64", and beyond 2**53
    # the float map from uniforms to denominators is no longer exact
    (("sweep", "--mean", "power:0", "--n", "4", "--max-den", str(2 ** 70)),
     f"--max-den must be <= 2**53, got {2 ** 70}"),
    (("sweep", "--mean", "power:0", "--n", "4", "--max-den", str(2 ** 53 + 1)),
     f"--max-den must be <= 2**53, got {2 ** 53 + 1}"),
])
def test_option_out_of_range_exits_two(capsys, argv, message):
    assert run(capsys, *argv, "--json") == (2, "", f"error: {message}\n")


_QA_400 = re.escape("qa:pow:400: generator overflows at entry ")
_HOMDEV_300 = r"homogeneous deviation: the total at y=[0-9.e-]+ is beyond the float range"


@pytest.mark.parametrize("argv, message", [
    # power terms beyond the float range, at an entry
    (("check", "--mean", "qa:pow:400", "--x", "50,90", "--w", "1,1"), _QA_400 + r"50\.0"),
    (("sweep", "--mean", "qa:pow:400", "--n", "3", "--trials", "5"), _QA_400 + "[0-9.e+]+"),
    (("concavity", "--mean", "qa:pow:400", "--trials", "10"), _QA_400 + "[0-9.e+]+"),
    # ... and inside a bisection, where the row fallback meets them
    (("axioms", "--mean", "homdev:shifted-power:300", "--trials", "50", "--n", "5",
      "--seed", "1"), _HOMDEV_300),
    (("concavity", "--mean", "homdev:shifted-power:300", "--trials", "10"), _HOMDEV_300),
    (("sweep", "--mean", "homdev:shifted-power:300", "--n", "3", "--trials", "5"), _HOMDEV_300),
    # numbers in a mean id that are no float
    *[(("check", "--mean", mean_id, "--x", "1,2", "--w", "1,1"),
       re.escape(f"bad parameter in mean id {mean_id!r}: 1e400 is beyond the float range"))
      for mean_id in ("power:1e400", "gini:1e400:0", "qa:pow:1e400",
                      "homdev:shifted-power:1e400")],
    (("check", "--mean", "power:1/0", "--x", "1,2", "--w", "1,1"),
     re.escape("bad parameter in mean id 'power:1/0': 1/0 has a zero denominator")),
    # a generator with fewer than two probe points of normal size, and one
    # that is constant in floats
    (("check", "--mean", "qa:pow:1e4", "--x", "1,2", "--w", "1,1"),
     re.escape("bad parameter in mean id 'qa:pow:1e4': qa:pow:10000: generator values are "
               "zero, subnormal or beyond the float range at all but 0 of 32 probe points")),
    (("check", "--mean", "qa:pow:1e-300", "--x", "1,2", "--w", "1,1"),
     re.escape("bad parameter in mean id 'qa:pow:1e-300': qa:pow:1e-300: "
               "generator is not strictly monotone")),
    # generator values below the normal floats, at an entry
    (("check", "--mean", "qa:pow:160", "--x", "0.001,0.002", "--w", "1,1"),
     re.escape("qa:pow:160: generator underflows at entry 0.001")),
    (("check", "--mean", "qa:pow:-160", "--x", "1000,2000", "--w", "1,1"),
     re.escape("qa:pow:-160: generator underflows at entry 1000.0")),
    # a homdev ratio x / y that underflows to 0 at y = hi, where 0.0 ** -2 raised
    # ZeroDivisionError and log(0.0) "math domain error"
    (("check", "--mean", "homdev:shifted-power:-2", "--x", "1e-170,1e170", "--w", "1,1"),
     re.escape("homogeneous deviation: the ratio of entry 1e-170 to y=1e+170 underflows to 0")),
    (("check", "--mean", "homdev:shifted-power:0", "--x", "1e-200,1e200", "--w", "1,1"),
     re.escape("homogeneous deviation: the ratio of entry 1e-200 to y=1e+200 underflows to 0")),
    # from p = 1024, f(2) = (2^p - 1) / p is beyond the float range; so is the total at
    # y = 1 on (1, 2), the ratio 2 taken to p = 2000
    (("check", "--mean", "homdev:shifted-power:2000", "--x", "1,2", "--w", "1,1"),
     re.escape("homogeneous deviation: the total at y=1.0 is beyond the float range")),
])
def test_numbers_beyond_the_float_range_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert re.fullmatch(f"error: {message}\n", err)


@pytest.mark.parametrize("argv, count", [
    # theta_2 = 961/1184 and its 3q - 1 pieces for weight denominators near 1000
    (("proof-fn", "--x", "1,2,3", "--w", "1,1/997,1/1009", "--j", "3"), 3020949),
    # a weight of exactly 10^-300: a denominator of 301 digits
    (("proof-fn", "--x", "1,2,3", "--w", "1,1e-300,1e-300", "--j", "3"), 3 * 10 ** 300 + 6),
    (("proportional", "--theta", "999/1000", "--host", "0,1,0,1"), 999000),
])
def test_constructions_past_the_piece_bound_exit_two_at_once(capsys, argv, count):
    # the piece count comes from the denominators before anything is built;
    # the first command had a MemoryError after 24 s under 3 GiB, the second no end
    if argv[0] == "proof-fn":
        argv = (*argv, "--mean", "qa:log")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(f" has {count} pieces, more than the bound of {stepfn.MAX_PIECES}\n")


def test_the_piece_counts_are_exact(monkeypatch):
    # each construction builds at its bound and raises one piece below it
    w = [1, Fraction(1, 31), Fraction(1, 37)]
    for bound, build in ((3555, lambda: stepfn.build_proof_function([1.0, 2.0, 3.0], w, 3)),
                         (1353, lambda: stepfn.proportional_set(stepfn.rect(0, 1, 0, 1),
                                                                Fraction(33, 41)))):
        monkeypatch.setattr(stepfn, "MAX_PIECES", bound)
        built = build()
        assert len(getattr(built, "pieces", None) or built.rectangles) == bound
        monkeypatch.setattr(stepfn, "MAX_PIECES", bound - 1)
        with pytest.raises(Overflow, match=f"has {bound} pieces"):
            build()


@pytest.mark.parametrize("p", ["160", "-160", "400"])
def test_large_generator_powers_evaluate_in_range(capsys, p):
    # x ** p overflows or underflows on most of the probe window, not on 1, 2;
    # on (1, 2) under weights (1, 1) the sides are (1 + M(1, 2)) / 2 and M(1, 3/2)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r = mpmath.mpf(p)
        mean = lambda a, b: ((mpmath.mpf(a) ** r + mpmath.mpf(b) ** r) / 2) ** (1 / r)
        want = float((1 + mean(1, 2)) / 2), float(mean(1, 1.5))
    for mean_id in (f"qa:pow:{p}", f"power:{p}"):
        report = json.loads(run(capsys, "check", "--mean", mean_id, "--x", "1,2", "--w", "1,1",
                                "--json")[1])
        assert report["inputs"]["mean"] == mean_id
        for side, exact in zip((report["lhs"], report["rhs"]), want):
            assert abs(side - exact) <= math.ulp(exact), (mean_id, side, exact)


@pytest.mark.parametrize("argv", [
    ("sweep", "--mean", "power:0", "--n", "4", "--max-den", "2", "--trials", "1"),
    ("axioms", "--mean", "power:0", "--n", "2", "--trials", "1"),
    ("concavity", "--mean", "power:0", "--trials", "1"),
    # one candidate, (0, 1, 1), which does not refute: exit 1 with no witness
    ("refute", "--mean", "gini21", "--w", "1,1,4", "--budget", "1"),
    ("sweep", "--mean", "power:0", "--n", "4", "--max-den", str(2 ** 53), "--trials", "3"),
])
def test_smallest_option_values_run(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1 if argv[0] == "refute" else 0, "")
    assert json.loads(out)["command"] == argv[0]


class TestParserCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        build = cli.build_parser

        def counting():
            count[0] += 1
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield count
        cli._parser.cache_clear()

    def test_built_once_per_process(self, capsys, builds):
        argv = ("check", "--mean", "power:0", "--x", "1,4", "--w", "1,1", "--json")
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        assert builds[0] == 1
        assert first[0] == 0 and json.loads(first[1])["verdict"] == "holds"

    def test_errors_still_exit_two(self, capsys, builds):
        for _ in range(2):
            code, _, err = run(capsys, "check", "--mean", "power:0",
                               "--x", "1,4", "--w", "1,1", "--tol", "0")
            assert (code, err) == (2, "error: --tol must be positive\n")
            with pytest.raises(SystemExit) as exc:
                main(["check", "--mean", "power:0"])  # --x and --w missing
            assert exc.value.code == 2
            with pytest.raises(SystemExit) as exc:
                main(["no-such-command"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        assert builds[0] == 1


def test_proportional_takes_no_tol(capsys):
    # proportional reads no tolerance, so it does not accept one
    with pytest.raises(SystemExit) as info:
        main(["proportional", "--theta", "1/2", "--host", "0,1,0,1", "--tol", "1e-9"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


class TestFormatChoices:
    @pytest.mark.parametrize("argv", [
        ["check", "--mean", "power:0", "--x", "1,4", "--w", "1,1"],
        ["refute", "--mean", "gini21", "--w", "1,3"],
        ["concavity", "--mean", "power:0", "--trials", "10"],
        ["axioms", "--mean", "power:0", "--trials", "2"],
        ["proof-fn", "--mean", "power:0", "--x", "1,4", "--w", "1,1", "--j", "2"],
        ["proportional", "--theta", "1/2", "--host", "0,1,0,1"],
    ])
    def test_csv_only_on_sweep(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--format", "csv"])
        assert info.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestRefute:
    def test_admissible_weights_exit_two(self, capsys):
        code, _, err = run(capsys, "refute", "--mean", "gini21", "--w", "1,1,1")
        assert code == 2
        assert "V_n" in err

    def test_a_domain_without_zero_is_refused_before_any_candidate(self, capsys, monkeypatch):
        # every candidate family has zero entries, which power:2 does not take
        checked = []
        monkeypatch.setattr(ineq, "check_kedlaya", lambda *a, **k: checked.append(a))
        code, out, err = run(capsys, "refute", "--mean", "power:2", "--w", "1,1,4,1")
        assert (code, out, checked) == (2, "", [])
        assert err == ("error: the search's candidates have zero entries, which lie "
                       "outside the domain of power:2\n")

    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "refute", "--mean", "gini21",
                           "--w", "1,1,4", "--budget", "1000", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"]["verdict"] == "violated"
        assert doc["witness"]["gap"] > 0

    def test_random_phase_without_a_witness_exits_one(self, capsys):
        # 41 structured candidates, then 19 random ones; the arithmetic mean
        # is linear, so none refutes
        code, out, err = run(capsys, "refute", "--mean", "arithmetic", "--w", "1,0.1,5",
                             "--budget", "60", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["witness"] is None


_SCI = r"[-+]?\d\.\d+e[-+]\d+"


@pytest.mark.parametrize("argv, lines", [
    (("sweep", "--mean", "power:0.5", "--n", "4", "--trials", "5", "--seed", "1"),
     [r"sweep power:0\.5 n=4 trials=5 seed=1", r"verdicts: \{'holds': 5\}", f"min gap: {_SCI}"]),
    (("refute", "--mean", "gini21", "--w", "1,0.1,5", "--budget", "1000"),
     [r"witness x = \[0\.0, 0\.5, 1\.0\]",
      rf"lhs = \S+  <=  rhs = \S+   gap = {_SCI}  \[violated\]"]),
    (("concavity", "--mean", "power:0.5", "--trials", "10"),
     [rf"power:0\.5 on 10 trials: concave \(worst violation {_SCI}\)"]),
    (("axioms", "--mean", "power:0.5", "--n", "3", "--trials", "10"),
     [r"axiom residuals for power:0\.5 over 10 trials:",
      *(rf"  {axiom:18s} {_SCI}  \[ok\]" for axiom in
        ("nullhomogeneity", "reduction", "mean-value", "elimination", "symmetry"))]),
], ids=["sweep", "refute", "concavity", "axioms"])
def test_text_reports(capsys, argv, lines):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == len(lines), out
    for line, pattern in zip(out.splitlines(), lines):
        assert re.fullmatch(pattern, line), (line, pattern)


class TestProportional:
    def test_half_theta(self, capsys):
        code, out, _ = run(capsys, "proportional", "--theta", "1/2",
                           "--host", "0,1,0,1")
        assert code == 0
        assert "rectangles=2" in out
        assert "verify=True" in out

    def test_json_lists_rectangles(self, capsys):
        code, out, _ = run(capsys, "proportional", "--theta", "2/3",
                           "--host", "0,1,0,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert len(doc["rectangles"]) == 6

    def test_bad_theta(self, capsys):
        code, _, err = run(capsys, "proportional", "--theta", "3/2",
                           "--host", "0,1,0,1")
        assert code == 2


class TestSweep:
    def test_csv_columns(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--mean", "power:0", "--n", "4",
                         "--trials", "20", "--seed", "7",
                         "--format", "csv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "trial,n,gap,verdict"
        assert len(lines) == 21

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--mean", "gini:0.5:0", "--n", "5",
                             "--trials", "25", "--seed", "42",
                             "--format", "json", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_expectation_enforced(self, capsys):
        code, out, _ = run(capsys, "sweep", "--mean", "gini21", "--n", "4",
                           "--trials", "25", "--seed", "3",
                           "--expect", "reversed", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["summary"]["counts"]) <= {"reversed", "equality"}


# sha256 of the JSON reports of fixed-seed sweeps: the four sweep means of
# the benchmark at n=8, and one long instance with large denominators.  A
# last-bit move of any gap or weight changes the bytes.  The draws run
# through numpy's exp and the power and Gini gaps through libm, so another
# platform may round differently.
# The first digest is the scalar sweep oracle's (tests/sweep_oracle.py),
# the loop the command once was, on the stream-block draws; the second is
# the command's, whose power, Gini and gini21 gaps come from the (rows, n)
# prefix driver.  Both were recorded when the draws moved to stream blocks,
# with every verdict the oracle's and every gap within 1e-13 |rhs| of it.
# The qa:log pair was re-recorded, still equal to each other, when its
# generator became kedlaya.elementary's log and exp in place of libm's; the
# gini:0.5:0 pair, still within 1e-13 |rhs| of each other, when Gini means of
# one scale became c (S_p / S_q)^(1/(p - q)) in place of logs and an exp.
GOLDEN_SWEEPS = [
    (("--mean", "power:0", "--n", "8", "--trials", "90", "--expect", "holds"),
     "6527c91b7894bebb581e171f36e452f78126dfebd4255807f72ab03c3785518b",
     "081754e3816154945e5d90daf3cc4ae7e31d5f35ec7adb09e31951fec7c38172"),
    (("--mean", "gini:0.5:0", "--n", "8", "--trials", "100", "--expect", "holds"),
     "58c51358b7f3b0aca1c9a54d07f0219d6c4c550becb513a8fc18bf4f28d46473",
     "1088f29309f0e5424ccb9c7f48ac67c1d80da5907129a73930e9983833aed76b"),
    (("--mean", "qa:log", "--n", "8", "--trials", "100", "--expect", "holds"),
     "647bf0d1979efa03ed169197c683cdc5b87a29a7b744e65ad6e968ed0750f89d",
     "647bf0d1979efa03ed169197c683cdc5b87a29a7b744e65ad6e968ed0750f89d"),
    (("--mean", "gini21", "--n", "8", "--trials", "110", "--expect", "reversed"),
     "fe43f2b4743c94fab51ecd3a2961f3d1743f5935e7d7b86b7e29ed744cbd2dc0",
     "ef372e346815dc057002be6b39b7db81395708d57a846c62c038ddcba9525c04"),
    (("--mean", "power:0", "--n", "40", "--max-den", "60", "--trials", "50",
      "--expect", "holds"),
     "c901f2ef680a116a53f3023a5a2f061014b589832dddfe38bb45879d11193b09",
     "8ddd8ccb5405eb888f279abb2e021f9968256238deb4b14a63079ae1197d589a"),
]
_GOLDEN_IDS = [" ".join(a[1:4:2]) for a, _, _ in GOLDEN_SWEEPS]


def _oracle_args(argv) -> dict:
    opts = dict(zip(argv[::2], argv[1::2]))
    return {"mean_id": opts["--mean"], "n": int(opts["--n"]), "trials": int(opts["--trials"]),
            "seed": 7, "max_den": int(opts.get("--max-den", 9)), "expect": opts["--expect"]}


@pytest.mark.parametrize("argv, digest, _", GOLDEN_SWEEPS, ids=_GOLDEN_IDS)
def test_golden_sweep_oracle_report_bytes(argv, digest, _):
    report = oracle_report(**_oracle_args(argv))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, _, digest", GOLDEN_SWEEPS, ids=_GOLDEN_IDS)
def test_golden_sweep_report_bytes(capsys, argv, _, digest):
    code, out, err = run(capsys, "sweep", *argv, "--seed", "7", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.kernel_parity
@pytest.mark.parametrize("argv", [a for a, _, _ in GOLDEN_SWEEPS], ids=_GOLDEN_IDS)
def test_golden_sweep_within_1e13_of_oracle(capsys, argv):
    """Same verdicts as the scalar oracle, every gap within 1e-13 |rhs|."""
    code, out, _ = run(capsys, "sweep", *argv, "--seed", "7", "--json")
    assert code == 0
    args = _oracle_args(argv)
    mean = mn.mean_from_id(args["mean_id"])
    for row in json.loads(out)["trials"]:
        want = oracle_trial(mean, args["n"], 7, row["trial"], expect=args["expect"],
                            max_den=args["max_den"])
        assert row["verdict"] == want.verdict
        assert abs(row["gap"] - want.gap) <= 1e-13 * abs(want.rhs)


def _long_check_argv(mean: str) -> tuple:
    """`check` at n = 200: uniform entries in [0.1, 10] and nonincreasing
    uniform weights, six digits each."""
    rng = random.Random(200)
    x = ",".join(f"{rng.uniform(0.1, 10.0):.6g}" for _ in range(200))
    w = sorted((rng.uniform(0.1, 10.0) for _ in range(200)), reverse=True)
    return ("check", "--mean", mean, "--x", x, "--w", ",".join(f"{v:.6g}" for v in w))


# sha256 of `check --json` reports at n = 200, whose prefix scans sum more
# than _FSUM_SCAN_MAX terms in the TwoSum kernel.  They were recorded while
# those scans ran a Python copy of fsum's partials.  The kernel runs IEEE adds
# alone, so the bytes do not depend on numpy's SIMD dispatch either.  The
# qa:log report was re-recorded, equal to the scan of one fsum per prefix,
# when its generator became kedlaya.elementary's log and exp, and the
# gini:0.5:0 one when Gini means of one scale became one power.
GOLDEN_LONG_CHECKS = [
    ("qa:log", "182a3f1f9d0fd9c408f3d6b4127c02a75edd07809305358288ab0c1a1368676c"),
    ("power:0", "053452cca2ea605fe684a73555a57c36d95533457caf3cea6571e5e87b9a52dc"),
    ("gini:0.5:0", "798655a72fabd864f1d2925372fa27c9c5a5958ba8825e9c2681005cf4a1c0de"),
    ("gini21", "b3a936e61d9279c10304b6543734e6c73800ea360a123793ee64c9bb0fce46cd"),
]


@pytest.mark.kernel_parity
@pytest.mark.parametrize("mean, digest", GOLDEN_LONG_CHECKS, ids=[m for m, _ in GOLDEN_LONG_CHECKS])
def test_golden_long_check_report_bytes(capsys, mean, digest):
    code, out, err = run(capsys, *_long_check_argv(mean), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _deferred_check_argv(mean: str) -> tuple:
    """`check` at n = 80 whose entries start 2, 0.5 under two equal weights, so
    that the second prefix sum of ``w log x`` is exactly 0: the TwoSum kernel
    leaves that sum uncertain and the scan takes one fsum per prefix."""
    rng = random.Random(80)
    x = ",".join(["2", "0.5"] + [f"{rng.uniform(0.1, 10.0):.6g}" for _ in range(78)])
    w = sorted((rng.uniform(0.1, 10.0) for _ in range(79)), reverse=True)
    return ("check", "--mean", mean, "--x", x, "--w", ",".join(f"{v:.6g}" for v in w[:1] + w))


# sha256 of `check --json` reports on _deferred_check_argv, recorded while
# long scans ran a Python copy of fsum's partials where the kernel deferred
GOLDEN_DEFERRED_CHECKS = [
    ("qa:log", "b0c47bff1b4916b0ba8a71e0893a8be0006270a3968f366844b5e5fd9e407642"),
    ("power:0", "dc5c1d5f07356cb354c56bc9c8183cda22197f76a69b0d0f28cccd9cd4ebfda9"),
]


@pytest.mark.kernel_parity
@pytest.mark.parametrize("mean, digest", GOLDEN_DEFERRED_CHECKS,
                         ids=[m for m, _ in GOLDEN_DEFERRED_CHECKS])
def test_golden_deferred_check_report_bytes(capsys, mean, digest):
    code, out, err = run(capsys, *_deferred_check_argv(mean), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _homdev_check_argv(mean: str, n: int = 56) -> tuple:
    """`check` at ``n`` entries from ``random.Random(n)``: uniform entries in
    [0.1, 10] and nonincreasing uniform weights, six digits each."""
    rng = random.Random(n)
    x = ",".join(f"{rng.uniform(0.1, 10.0):.6g}" for _ in range(n))
    w = sorted((rng.uniform(0.1, 10.0) for _ in range(n)), reverse=True)
    return ("check", "--mean", mean, "--x", x, "--w", ",".join(f"{v:.6g}" for v in w))


# sha256 of `check --json` reports on _homdev_check_argv.  They were recorded
# while the prefix scans ran the lockstep bisection and every sign came from a
# numpy row sum or the scalar total, before the certified root interval.  The
# roots are the scalar solver's, on libm, so the bytes do not depend on
# numpy's SIMD dispatch.
GOLDEN_HOMDEV_CHECKS = [
    ("homdev:shifted-power:0.5", "a4dfe3a34979dc4b33e6536ef9459b913bc1581b91cd5abf0c60be8b222371db"),
    ("homdev:shifted-power:-2", "1a29a0c284ac0e21f4601b3a38a8be5674b4f004733cfc91cae1952d133876c6"),
    ("homdev:shifted-power:3", "94472ac140f1615d0cbd744d0719692d7d6f68d468723e1a90b5e5c0a2bdb1d8"),
    ("homdev:shifted-power:0", "6707f16c27440b9f32432a888f19966fdca3fb3ca1ed95394840c5446fc13847"),
]


@pytest.mark.kernel_parity
@pytest.mark.parametrize("mean, digest", GOLDEN_HOMDEV_CHECKS,
                         ids=[m for m, _ in GOLDEN_HOMDEV_CHECKS])
def test_golden_homdev_check_report_bytes(capsys, mean, digest):
    code, out, err = run(capsys, *_homdev_check_argv(mean), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `check --json` reports on _homdev_check_argv at small n, recorded
# while prefix scans this small took one plain scalar solve per prefix, before
# the certified per-prefix solves.
GOLDEN_SMALL_HOMDEV_CHECKS = [
    ("homdev:shifted-power:0.5", 3, "89e7fa04ded2252b7c1d586600da612522b221a2638d9d18498c0497885c46ae"),
    ("homdev:shifted-power:0.5", 8, "31aa211d7b82c3c6c46e9f4a635a6944642e3c8bfedf7f7a059e6c7a8db6b270"),
    ("homdev:shifted-power:0.5", 10, "b85e8f7348314e269ac8b9ac0b6cd9c7f452089d0959df470312bd97a65b3bae"),
    ("homdev:shifted-power:0", 3, "338e5c85585a08494105d4f5facc740b0da0387ab1c152de2901d77476193c3e"),
    ("homdev:shifted-power:0", 8, "c1ee3e4c6e335871f572c1d08d40393870f248fea5e72e624d10ec50961692d2"),
    ("homdev:shifted-power:0", 10, "1eef0179889bc49dcf2363b5f6e9323ccfd6caac42208bc0871fdd541e03616f"),
]


@pytest.mark.kernel_parity
@pytest.mark.parametrize("mean, n, digest", GOLDEN_SMALL_HOMDEV_CHECKS,
                         ids=[f"{m} n={n}" for m, n, _ in GOLDEN_SMALL_HOMDEV_CHECKS])
def test_golden_small_homdev_check_report_bytes(capsys, mean, n, digest):
    code, out, err = run(capsys, *_homdev_check_argv(mean, n), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of proof geometry reports, recorded before the JSON writer replaced
# the indented json.dumps; the gini:0.5:0 one was re-recorded when Gini means
# of one scale became one power, which moved its two swap sides by an ulp.
# The qa:log cases come from the benchmark's proof stream: 987, 10412 and
# 31234 grid cells (134, 404 and 575 pieces).  The 33/41 set (1353
# rectangles) was recorded while proportional sets were built on Fractions.
GOLDEN_PROOF_REPORTS = [
    (("proof-fn", "--mean", "power:0", "--x", "1,4,2", "--w", "2,1,1", "--j", "3"),
     "203f294c9ae5593bb07f5ebe13fcd50bd9d5bdd7148d5ae00160295657f0c909"),
    (("proof-fn", "--mean", "gini:0.5:0", "--x", "2,3,5,1.5", "--w", "4,2,1,1", "--j", "3"),
     "6868156fc0a9bf198e244861764fdcfb5738339ce6ea3c9fddf8bb58bf6d849f"),
    (("proof-fn", "--mean", "qa:log",
      "--x", "1.00527,0.296203,9.55728,0.780057,2.56957,0.732431,0.177167",
      "--w", "1,4,10,15,30,20,16", "--j", "7"),
     "a336be1534ededad867ee25331630fea97189db4e6aeb861da6e53ebaf87f842"),
    (("proof-fn", "--mean", "qa:log",
      "--x", "0.101691,0.327985,1.65402,5.74859,0.597607,3.40383,0.185699",
      "--w", "1,10,11,22,176/7,242/7,968/35", "--j", "7"),
     "3e14bafa5466e5876b1a168e391e58b1f0233a1b3e492c3a6ccdaef84b04724a"),
    (("proof-fn", "--mean", "qa:log",
      "--x", "7.29545,5.44645,0.73326,0.38707,0.101514,0.188927,5.23669",
      "--w", "1,13,98,112,224,896/5,1176/5", "--j", "7"),
     "28bea0c921a4736a87c3425a2c0e21edf5b8c33c7e79da0e958987eaebd35d37"),
    # seed 1's first 1e5-cell and first 1e6-cell proof-fn ops of perfbench's proof workload
    (("proof-fn", "--mean", "qa:log", "--x", "0.2998,9.68872,1.21181,0.104694,2.19791,2.79535",
      "--w", "1,17/2,57/2,228/5,209/15,1463/195", "--j", "6"),
     "3ebda3a6eefd27b0ce20ba07df3ab9868ef33313fd4c7a2062e59f91ae5f3f07"),
    (("proof-fn", "--mean", "qa:log",
      "--x", "1.79909,0.102525,9.61345,9.0144,0.338522,1.96144,2.48435,7.34503,2.5842",
      "--w", "1,20/3,92/5,1173/20,10166/135,13294/135,46529/360,46529/540,511819/10440",
      "--j", "9"),
     "d4e72b938dc051cc915c5a24a3e1cf88df0845964e68c7633b21d26b16d65f18"),
    (("proportional", "--theta", "2/3", "--host", "0,1,0,1"),
     "8b42aa184a3ff246724416c446f281038ac2277ca5b2fdda5bf809eb3debfa5e"),
    (("proportional", "--theta", "6/19", "--host", "1/2,10,1/8,65/8"),
     "1c6a003b7fd12db960dbde60883ce8f36779417c6031f5bc06f6c492916997dc"),
    (("proportional", "--theta", "33/41", "--host", "5/9,109/18,2/3,7/6"),
     "c577b3cc2165e889d1157229344c086cf2dde0dd78a605e84ac765b42fbb229c"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_PROOF_REPORTS,
                         ids=["power:0 j=3", "gini:0.5:0 j=3", "qa:log 987 cells",
                              "qa:log 10412 cells", "qa:log 31234 cells",
                              "qa:log 101311 cells", "qa:log 1008680 cells",
                              "proportional 2/3", "proportional 6/19",
                              "proportional 33/41"])
def test_golden_proof_report_bytes(capsys, tmp_path, argv, digest):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--json", "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


# sha256 of csv and text reports, recorded before sweep trials and
# proportional rectangles reached the writer as column tables.  The csv
# report prints every gap with repr, so its digest moves with the draws, as
# the JSON sweep digests above do.
GOLDEN_TABLE_REPORTS = [
    (("sweep", "--mean", "qa:log", "--n", "8", "--trials", "100", "--seed", "3",
      "--format", "csv"),
     "f2013cc824e476765dac936240833866a86e5fcd59f43c186990a4e1be9eed34"),
    (("sweep", "--mean", "qa:log", "--n", "3", "--trials", "200", "--seed", "1", "--tol", "0.01"),
     "f1375fe4ed0fcabb56abee650feeed64f5885516758778806f39ad42bb67ad76"),
    (("proportional", "--theta", "33/41", "--host", "5/9,109/18,2/3,7/6"),
     "2e657ebaf7d1bd82cc20f67803bdadcf2450f527b3b99509352d0419f907a63c"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_TABLE_REPORTS,
                         ids=["sweep qa:log csv", "sweep qa:log text", "proportional 33/41 text"])
def test_golden_table_report_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestReportRoundTrip:
    @staticmethod
    def _round_trip(capsys, mean_id):
        # the inputs echo in a report is enough to rebuild and re-run it
        from kedlaya.inequality import check_kedlaya
        from kedlaya.means import mean_from_id
        from kedlaya.weights import weights_from_strings

        code, out, _ = run(capsys, "check", "--mean", mean_id,
                           "--x", "1.5,4,2", "--w", "3,2,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["mean"] == mean_id
        mean = mean_from_id(doc["inputs"]["mean"])
        w = weights_from_strings(doc["inputs"]["w"], cls="W0", exact=False)
        again = check_kedlaya(mean, doc["inputs"]["x"], w,
                              tol=doc["inputs"]["tol"])
        assert again.lhs == doc["lhs"]
        assert again.rhs == doc["rhs"]
        assert again.verdict == doc["verdict"]
        assert list(again.step_gaps) == doc["step_gaps"]

    def test_check_report_reproduces_itself(self, capsys):
        self._round_trip(capsys, "gini:0.5:0")

    @pytest.mark.parametrize("mean_id", [
        "arithmetic", "min", "max", "power:0.5", "gini21", "qa:log", "qa:pow:2",
        "homdev:shifted-power:0.5"])
    def test_every_family_reproduces_itself(self, capsys, mean_id):
        self._round_trip(capsys, mean_id)


class TestConcavity:
    def test_convex_family(self, capsys):
        code, out, _ = run(capsys, "concavity", "--mean", "gini:2:1",
                           "--n", "2", "--trials", "10000", "--seed", "42",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "convex"
        assert doc["witness"] is not None


class TestAxioms:
    def test_closed_form_family_passes(self, capsys):
        code, out, _ = run(capsys, "axioms", "--mean", "gini:2:1",
                           "--trials", "200", "--seed", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert all(v <= 1e-9 for v in doc["worst_residuals"].values())

    @pytest.mark.parametrize("mean", ["power:100", "power:-100"])
    def test_padded_entries_do_not_scale_a_row(self, capsys, mean):
        # an entry of weight 0 once set the scale of the power sums: the live
        # powers underflowed and elimination failed at 4e-2 and 6e-2
        code, out, _ = run(capsys, "axioms", "--mean", mean, "--trials", "2000", "--seed", "1",
                           "--json")
        assert code == 0
        assert json.loads(out)["worst_residuals"]["elimination"] < 1e-13


# sha256 of `axioms --json` reports.  The homdev reports have every residual
# 0 and were recorded before the sampler ran on the batch kernels.  The qa
# reports were re-recorded when trial i became row i of one
# random((trials, 4 n + 3)) stream, after the draws matched the row-by-row
# oracle of tests/test_means.py bit for bit; the qa:pow:2 --n 9 report kept
# its bytes, its worst residuals being the old ones.
AXIOM_GOLDEN = [
    ("qa:log", ("--trials", "300", "--seed", "11"),
     "a8416de14a8e9a2fb4b85783059ce50e590ae1214c7c3352da960b9f052c987e"),
    ("qa:log", ("--trials", "200", "--seed", "3", "--n", "9"),
     "49b784ea269aaea9afad05ce87a7c30baedcfe4681ee7cc49c7155a3f5188204"),
    ("qa:pow:2", ("--trials", "300", "--seed", "11"),
     "98a1a42f88880781b4b8558016eb0c86cf7cea6df2da5eaa6d81350a3adbc259"),
    ("qa:pow:2", ("--trials", "200", "--seed", "3", "--n", "9"),
     "729c906ab2986fde68e2ed65f691a4a1be3ac465579f4f3b58e64943dc9ba724"),
    ("homdev:shifted-power:0.5", ("--trials", "300", "--seed", "11"),
     "fe637d576b8146b6395f02dbeecc102259e55a94695333a2621d9d6aa2a3f65a"),
    ("homdev:shifted-power:0.5", ("--trials", "200", "--seed", "3", "--n", "9"),
     "acfc0bf8e95b5a322ac89c64ae40f11eebc1cd20486cab7a8fffb8eafa36f396"),
    ("homdev:shifted-power:-2", ("--trials", "300", "--seed", "11"),
     "125c02ba5cf233eb6098243878d3bcda0fe3b961e313379f966c662f15b36640"),
    ("homdev:shifted-power:-2", ("--trials", "200", "--seed", "3", "--n", "9"),
     "e5b5edb0c5d6ad950a36242c4aee85ab352be82971779bd7eaa51e01412dbd8f"),
    # Recorded while the qa rows were summed by one fsum per row, before they
    # took the exact prefix driver; 16 and 9 blocks of padded rows.  The draws
    # go through math.exp (deviation.elementwise) and the sums are exact, so
    # the bytes do not depend on numpy's SIMD dispatch.  The qa:log report
    # kept its bytes when its generator became kedlaya.elementary's.
    ("qa:log", ("--trials", "1000", "--seed", "29", "--n", "9"),
     "42c5539ba398b24545e98a3f39b4d1190262f1ac665c80bccb44a872d24c7573"),
    ("qa:pow:2", ("--trials", "1000", "--seed", "29"),
     "b7e20306eaf81e727d0f47bb3f5b96d0b71a01791e9990e6cd48722777731e15"),
]


@pytest.mark.kernel_parity
class TestAxiomSamplerReport:
    @staticmethod
    def _digest(capsys, mean, extra):
        code, out, err = run(capsys, "axioms", "--mean", mean, *extra, "--json")
        assert (code, err) == (0, "")
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("mean, extra, digest", AXIOM_GOLDEN)
    def test_golden_bytes(self, capsys, mean, extra, digest):
        assert self._digest(capsys, mean, extra) == digest

    @pytest.mark.parametrize("mean, extra, digest", AXIOM_GOLDEN[::2])
    def test_one_trial_per_block(self, capsys, monkeypatch, mean, extra, digest):
        monkeypatch.setattr(mn, "_AXIOM_BLOCK", 1)
        assert self._digest(capsys, mean, extra) == digest

    def test_block_size_moves_no_closed_form_report(self, capsys, monkeypatch):
        argv = ("axioms", "--mean", "gini:2:1", "--trials", "300", "--seed", "5", "--json")
        want = run(capsys, *argv)
        monkeypatch.setattr(mn, "_AXIOM_BLOCK", 1)
        assert run(capsys, *argv) == want


class TestProofFn:
    def test_emits_function_and_checks(self, capsys):
        code, out, _ = run(capsys, "proof-fn", "--mean", "power:0",
                           "--x", "1,4", "--w", "1,1", "--j", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["match"] is True
        assert doc["swap_sides"]["lhs"] == pytest.approx(1.5)
        assert {p["value"] for p in doc["function"]["pieces"]} == {1.0, 4.0}

    def test_alias(self, capsys):
        code, out, _ = run(capsys, "dump-proof-fn", "--mean", "arithmetic",
                           "--x", "2,3,5", "--w", "4,2,1", "--j", "3")
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_builds_proof_function_once(self, capsys, monkeypatch):
        from kedlaya import stepfn
        from kedlaya.means import mean_from_id

        build = stepfn.build_proof_function
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(stepfn, "build_proof_function", counting)
        code, out, _ = run(capsys, "proof-fn", "--mean", "power:0",
                           "--x", "1,4,2", "--w", "2,1,1", "--j", "3")
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        doc = json.loads(out)
        mean = mean_from_id("power:0")
        x, w = (1.0, 4.0, 2.0), (2, 1, 1)
        assert doc["match"] == stepfn.verify_proof_construction(mean, x, w, 3)
        lhs, rhs = stepfn.jensen_fubini_sides(
            mean, stepfn.build_proof_function(x, w, 3))
        assert doc["swap_sides"] == {"lhs": lhs, "rhs": rhs}

    def test_makes_no_interval_per_piece(self, capsys, monkeypatch):
        # the construction hands integers to the function and the report is
        # written from them: only the bounding rectangle's two intervals
        from kedlaya.stepfn import QInterval

        new, made = QInterval.__new__, []

        def counting(cls, lower, upper):
            made.append(1)
            return new(cls, lower, upper)

        monkeypatch.setattr(QInterval, "__new__", counting)
        counts = {}
        for argv, _ in (GOLDEN_PROOF_REPORTS[0], GOLDEN_PROOF_REPORTS[4]):
            made.clear()
            code, out, _ = run(capsys, *argv)
            counts[len(json.loads(out)["function"]["pieces"])] = len(made)
        assert counts == {12: 2, 575: 2}

    def test_round_trips_into_library(self, capsys):
        from proof_oracle import function_from_json
        code, out, _ = run(capsys, "proof-fn", "--mean", "power:0",
                           "--x", "1,4,2", "--w", "2,1,1", "--j", "3")
        assert code == 0
        f = function_from_json(json.loads(out)["function"])
        assert f.bounding.dx.upper == 4


# ---------------------------------------------------------------------------
# The JSON writer: json.dumps(doc, sort_keys=True, indent=2), byte for byte
# ---------------------------------------------------------------------------

def _reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def _outcome(write, doc):
    """The text ``write`` gives, or the type of the exception it raises."""
    try:
        return write(doc)
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)


_TEXTS = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "%s", "%%", "a%(b)s"])
# repr switches to exponent form at 1e16 and below 1e-4
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308,
     1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, -(10 ** 40), 10 ** 300]),
    _FLOATS, _FLOATS.map(np.float64), _TEXTS)
_KEYS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXTS)


@st.composite
def _record_lists(draw, values):
    """Lists of flat records, one of them broken in one of the ways the
    writer's column path must notice."""
    names = draw(st.lists(_TEXTS, max_size=4, unique=True))
    columns = {name: (draw(st.sampled_from([_TEXTS, _FLOATS, _SCALARS,
                                            st.floats(allow_nan=False, allow_infinity=False)])),
                      draw(st.sampled_from([None, 0, 1, 2])))
               for name in names}

    def record():
        return {name: draw(s) if width is None else draw(st.lists(s, min_size=width, max_size=width))
                for name, (s, width) in columns.items()}

    rows = [record() for _ in range(draw(st.integers(1, 5)))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    name = draw(st.sampled_from(names)) if names else None
    break_ = draw(st.sampled_from(
        ["none", "drop key", "add key", "retype", "ragged", "nest", "tuple", "not a dict"]))
    if break_ == "drop key" and name is not None:
        del row[name]
    elif break_ == "add key":
        row[draw(_TEXTS)] = draw(_SCALARS)
    elif break_ == "retype" and name is not None:
        row[name] = draw(values)
    elif break_ == "ragged" and isinstance(row.get(name), list):
        row[name].append(draw(_SCALARS))
    elif break_ == "nest" and name is not None:
        row[name] = [row[name]] if draw(st.booleans()) else {"k": row[name]}
    elif break_ == "tuple" and isinstance(row.get(name), list):
        row[name] = tuple(row[name])
    elif break_ == "not a dict":
        rows[-1] = draw(values)
    return rows


_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXTS, children, max_size=4),
        _record_lists(children)),
    max_leaves=30)


@st.composite
def _tables(draw):
    """The fields of a column table: 0, 1 or many records, each field a
    column of scalars or a tuple of 0 or 2 columns, some columns drawn from a
    few items so that they repeat."""
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 6))
    fields = {}
    for name in draw(st.lists(_TEXTS, max_size=4, unique=True)):
        items = draw(st.sampled_from([_TEXTS, _FLOATS, _SCALARS, st.integers(), st.booleans()]))
        if draw(st.booleans()):
            items = st.sampled_from(draw(st.lists(items, min_size=1, max_size=3)))
        column = st.lists(items, min_size=rows, max_size=rows)
        width = draw(st.sampled_from([None, 0, 2]))
        fields[name] = draw(column) if width is None else tuple(draw(column) for _ in range(width))
    return fields


def _record_view(fields: dict) -> list:
    """The records a table of ``fields`` stands for, one list per tuple of columns."""
    cols = [c for f in fields.values() for c in (f if isinstance(f, tuple) else [f])]
    return [{k: [c[i] for c in f] if isinstance(f, tuple) else f[i] for k, f in fields.items()}
            for i in range(len(cols[0]) if cols else 0)]


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS)
    def test_matches_json_dumps(self, doc):
        assert cli._dumps(doc) == _reference(doc)

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example({"x": ([], []), "value": []})
    @example({"%s": [0.0, -0.0, 0.0], "w0": (), "w2": ([1, True, 1], ["a", "a", "%"])})
    @example({"v": [math.nan, math.inf, -math.inf, 5e-324, 5e-324, 1.0], "\u00e9\"\\": ["\0"] * 6})
    def test_table_matches_json_dumps_of_its_records(self, fields):
        records = _record_view(fields)
        assert cli._dumps(cli._Table(fields)) == _reference(records)
        doc = {"a": {"t": cli._Table(fields)}, "b": [1.5]}
        assert cli._dumps(doc) == _reference({"a": {"t": records}, "b": [1.5]})

    @settings(deadline=None)
    @given(st.dictionaries(_KEYS, _SCALARS, max_size=4))
    def test_non_string_keys(self, doc):
        # same text, or the same exception type for keys that do not sort
        for value in (doc, [doc, dict(doc)], {"k": [doc]}):
            assert _outcome(cli._dumps, value) == _outcome(_reference, value)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, Fraction(1, 2), np.int64(1),
                                     np.bool_(True), b"x"],
                             ids=["object", "set", "Fraction", "np.int64", "np.bool_", "bytes"])
    @pytest.mark.parametrize("place", [
        lambda v: v,
        lambda v: {"a": v},
        lambda v: [1, v],
        lambda v: [{"a": 1.0}, {"a": v}],
        lambda v: [{"a": "s"}, {"a": v}],
        lambda v: [{"a": [1, 2]}, {"a": [3, v]}],
    ], ids=["bare", "dict", "list", "float column", "str column", "list column"])
    def test_unserializable_value_raises_type_error(self, bad, place):
        doc = place(bad)
        with pytest.raises(TypeError) as ours:
            cli._dumps(doc)
        with pytest.raises(TypeError) as theirs:
            _reference(doc)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("doc", [{(1, 2): 0}, {1: "a", "b": 2}, [{1: "a", "b": 2}] * 2,
                                     {None: 1, 0: 2}],
                             ids=["tuple key", "int and str keys", "int and str keys in records",
                                  "None and int keys"])
    def test_bad_keys_raise_type_error(self, doc):
        assert _outcome(cli._dumps, doc) is TypeError
        assert _outcome(_reference, doc) is TypeError

    @pytest.mark.parametrize("doc", [
        [{"a": 1.0, "b": [1, 2], "c": "s"}],
        {"k": [{"a": True, "b": []}]},
        [1, True, 2],
        [{"n": 1}, {"n": True}],
        [1.0, math.nan, math.inf, -math.inf, -0.0],
        [{"g": 1.5}, {"g": math.nan}],
        {"outer": {1: [{"a": 1.0}, {"a": 2.0}], 2: "x"}},
        {"a": [], "b": {}, "c": [[], {}], "d": (), "e": [{}], "f": {"g": []}},
        {"x": {"y": [[1, 2], {"z": {3: "line\nbreak"}}]}},
        [{1: "a", 2.5: [1]}, {1: "b", 2.5: [2]}],
        [0.0, -0.0, 1.5, 0.0, -0.0, 1.5],
        [{"v": -0.0}, {"v": 2.0}, {"v": 0.0}, {"v": 2.0}, {"v": -0.0}],
        [{"a": 1, "b": 2.0}, {"a": 3, "c": 4.0}],
    ], ids=["one record", "one record below a dict", "int column with a bool",
            "int record column with a bool", "float column with nan and inf",
            "float record column with nan", "int-keyed dict holding records",
            "empty containers", "nested lists below dicts", "records with an int key",
            "finite float column with repeated signed zeros",
            "float record column with repeated signed zeros",
            "records with as many keys but other ones"])
    def test_branches(self, doc):
        assert cli._dumps(doc) == _reference(doc)

    def test_circular_reference(self):
        loop = [1]
        loop.append({"a": loop})
        assert _outcome(cli._dumps, loop) is ValueError
        assert _outcome(_reference, loop) is ValueError


@st.composite
def _proof_argvs(draw):
    """``proportional`` at ``theta = p/q``, q <= 60, on a rational host, or
    ``proof-fn`` at j = n on 2-4 weights whose numerators and denominators
    are at most 12 (weights outside V exit 2)."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 60))
        host = draw(rational_hosts())
        corners = (host.dx.lower, host.dx.upper, host.dy.lower, host.dy.upper)
        return ["proportional", "--theta", str(Fraction(draw(st.integers(0, q)), q)),
                "--host=" + ",".join(map(str, corners))]  # a corner may start with "-"
    n = draw(st.integers(2, 4))
    weight = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    x = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    return ["proof-fn", "--mean", draw(st.sampled_from(["qa:log", "power:0.5", "arithmetic"])),
            "--x", ",".join(map(repr, x)),
            "--w", ",".join(map(str, draw(st.lists(weight, min_size=n, max_size=n)))),
            "--j", str(n)]


@seed(43)
@settings(max_examples=80, deadline=None)
@given(_proof_argvs())
def test_drawn_proof_reports_are_the_stdlibs_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--json"])
    assert code in (0, 2), argv
    if code == 0:
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The garbage collector pause
# ---------------------------------------------------------------------------

_HALF = ("proportional", "--theta", "1/2", "--host", "0,1,0,1")
# One small run of every command, and three that exit 2 (a bad mean, a theta
# outside [0, 1], weights outside V for the proof construction).
_EVERY_COMMAND = [
    ["check", "--mean", "gini:0.5:0", "--x", "1.5,4,2,0.3", "--w", "3,2,1,1/2"],
    ["sweep", "--mean", "qa:log", "--n", "8", "--trials", "50", "--seed", "3"],
    ["refute", "--mean", "gini21", "--w", "1,0.1,5", "--budget", "200"],
    ["concavity", "--mean", "power:0.5", "--trials", "300", "--seed", "3"],
    ["axioms", "--mean", "homdev:shifted-power:0.5", "--trials", "20", "--seed", "11"],
    ["proof-fn", "--mean", "qa:log", "--x", "1,4,2,3", "--w", "4,3,2,1", "--j", "4"],
    list(_HALF),
    ["check", "--mean", "nonsense", "--x", "1,4", "--w", "1,1"],
    ["proportional", "--theta", "3/2", "--host", "0,1,0,1"],
    ["proof-fn", "--mean", "qa:log", "--x", "1,4,2", "--w", "1,1,5", "--j", "3"],
]


class TestGarbageCollectorPause:
    """``main`` pauses Python's cyclic garbage collector while a command runs
    and restores the caller's setting after it."""

    @pytest.mark.parametrize("argv, code", [(_HALF, 0), (_EVERY_COMMAND[8], 2)],
                             ids=["exit 0", "exit 2"])
    def test_restored_after_a_command(self, capsys, argv, code):
        assert gc.isenabled()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled()

    def test_restored_after_a_raise(self, monkeypatch):
        def fail(host, theta):
            raise RuntimeError("construction failed")

        monkeypatch.setattr(stepfn, "proportional_set", fail)
        with pytest.raises(RuntimeError, match="construction failed"):
            main(list(_HALF))
        assert gc.isenabled()

    def test_a_callers_pause_survives(self, capsys):
        gc.disable()
        try:
            assert run(capsys, *_HALF)[0] == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_paused_while_the_command_runs(self, capsys, monkeypatch):
        seen, build = [], stepfn.proportional_set
        monkeypatch.setattr(stepfn, "proportional_set",
                            lambda host, theta: seen.append(gc.isenabled()) or build(host, theta))
        assert run(capsys, *_HALF)[0] == 0
        assert seen == [False]

    def test_a_warm_command_leaves_no_cyclic_garbage(self):
        # in a fresh process: the first run of a command imports and caches,
        # the second must leave nothing for the collector
        script = """if True:
            import contextlib, gc, io, json, sys
            from kedlaya.cli import main
            counts = []
            for argv in json.loads(sys.argv[1]):
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    codes = [main(argv), gc.collect(), main(argv)]
                counts.append([codes[0], codes[2], gc.collect()])
            print(json.dumps(counts))
        """
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script, json.dumps(_EVERY_COMMAND)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [[c, c, 0] for c in [0] * 7 + [2] * 3]
