"""Command-line interface: exit codes, report formats, determinism."""

import json

import pytest

from kedlaya.cli import main


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
        assert err.startswith("error: pow[2.0]:") and entry in err

    def test_usage_error_nonpositive_tol(self, capsys):
        code, _, err = run(capsys, "check", "--mean", "power:0",
                           "--x", "1,4", "--w", "1,1", "--tol", "0")
        assert code == 2
        assert "tol" in err


class TestRefute:
    def test_admissible_weights_exit_two(self, capsys):
        code, _, err = run(capsys, "refute", "--mean", "gini21", "--w", "1,1,1")
        assert code == 2
        assert "V_n" in err

    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "refute", "--mean", "gini21",
                           "--w", "1,1,4", "--budget", "1000", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"]["verdict"] == "violated"
        assert doc["witness"]["gap"] > 0


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

    def test_thread_cap_same_bytes(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "sweep", "--mean", "power:0", "--n", "4", "--trials", "16",
            "--seed", "1", "--format", "json", "--out", str(a))
        monkeypatch.setenv("KEDLAYA_THREADS", "4")
        run(capsys, "sweep", "--mean", "power:0", "--n", "4", "--trials", "16",
            "--seed", "1", "--format", "json", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestReportRoundTrip:
    def test_check_report_reproduces_itself(self, capsys):
        # the inputs echo in a report is enough to rebuild and re-run it
        from kedlaya.inequality import check_kedlaya
        from kedlaya.means import mean_from_id
        from kedlaya.weights import weights_from_strings

        code, out, _ = run(capsys, "check", "--mean", "gini:0.5:0",
                           "--x", "1.5,4,2", "--w", "3,2,1", "--json")
        assert code == 0
        doc = json.loads(out)
        mean = mean_from_id(doc["inputs"]["mean"])
        w = weights_from_strings(doc["inputs"]["w"], cls="W0", exact=False)
        again = check_kedlaya(mean, doc["inputs"]["x"], w,
                              tol=doc["inputs"]["tol"])
        assert again.lhs == doc["lhs"]
        assert again.rhs == doc["rhs"]
        assert again.verdict == doc["verdict"]
        assert list(again.step_gaps) == doc["step_gaps"]


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

    def test_round_trips_into_library(self, capsys):
        from kedlaya.stepfn import function_from_json
        code, out, _ = run(capsys, "proof-fn", "--mean", "power:0",
                           "--x", "1,4,2", "--w", "2,1,1", "--j", "3")
        assert code == 0
        f = function_from_json(json.loads(out)["function"])
        assert f.bounding.dx.upper == 4
