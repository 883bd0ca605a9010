"""The benchmark trajectory script: the schema of its rows and of the files
it writes."""

import importlib.util
import json
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
ROW_KEYS = {"name", "unit", "value", "median", "spread", "k"}
# Every kind of micro row the script has written, as a pattern of its name.
# A file keeps the rows of its own commit: a kind added later extends this
# list, and older files need not have it.
KNOWN_ROWS = tuple(re.compile(pattern) for pattern in (
    r"check_kedlaya homdev:shifted-power:\S+ n=\d+",
    r"evaluate homdev:shifted-power:\S+ n=\d+",
    r"evaluate_rows \S+ \d+x\d+",
    r"check_kedlaya_rows \S+ \d+x\d+",
    r"evaluate_prefix_rows \S+ \d+x\d+( last)?",
    r"criterion 7 homdev:shifted-power:\S+ \d+ instances",
    r"(log|exp) scalar per call",
    r"(log|exp) array \d+",
    r"check_kedlaya (qa:log|power:\S+|gini:\S+) n=\d+",
    r"sample_jensen_concavity \S+ n=\d+ \d+",
    r"proportional_set\+verify_proportionality \d+/\d+",
    r"cli\.main proportional \d+/\d+",
    r"cli\.main proof-fn \S+ seed \d+",
    r"exact_prefix_sums \d+x\d+",
    r"cli\.main concavity \S+ \d+",
))


def _check_rows(rows: list) -> None:
    """Assert the keys and values of micro rows, and that their names are
    unique and of a known kind."""
    for row in rows:
        assert set(row) == ROW_KEYS
        assert row["unit"] == "ms" and row["k"] >= 1
        assert 0.0 <= row["value"] <= row["median"] and row["spread"] >= 0.0
        assert any(kind.fullmatch(row["name"]) for kind in KNOWN_ROWS), row["name"]
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))


def test_quick_micro_rows_have_the_schema():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rows = bench.micro_rows(quick=True)
    _check_rows(rows)
    # check_kedlaya at three p, evaluate, evaluate_rows at three p on two
    # shapes, of six other means on one and of five on an axioms block,
    # check_kedlaya_rows of four means, the two sides of a qa:log sweep
    # block, criterion 7, log and exp per scalar call and as arrays of four
    # sizes, exact_prefix_sums on four shapes, check_kedlaya of qa:log,
    # power:0 and gini:0.5:0, and sample_jensen_concavity of power:0.5 and
    # gini:2:1, a proportional set and its check, and whole proportional,
    # proof-fn and concavity commands
    assert len(rows) == 51


def test_committed_files_have_the_schema():
    files = sorted(BENCH.glob("BENCH_*.json"))
    assert files
    for path in files:
        report = json.loads(path.read_text())
        assert set(report) == {"checkout", "end_to_end", "micro"}
        assert path.name == f"BENCH_{report['checkout']}.json"
        assert [run["workload"] for run in report["end_to_end"]] == [
            "sweep", "scan", "probe", "proof"]
        for run in report["end_to_end"]:
            assert run["result"]["correct"] and set(run["result"]["metrics"]) == {
                "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
        assert report["micro"]
        _check_rows(report["micro"])
