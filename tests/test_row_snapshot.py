"""The row snapshot tool (tests/row_snapshot.py): a suite's rows as exact
text, and the comparison of two snapshots."""

import io
import json

import row_snapshot
from mjlab.verify import SUITES, run_suite


def test_snapshot_calls_every_suite_then_three_benchmark_rounds():
    calls = row_snapshot.calls()
    assert [(run, name) for run, name, _ in calls[:len(SUITES)]] == [
        ("defaults", name) for name in SUITES]
    runs = [run for run, _, _ in calls[len(SUITES):]]
    assert runs == ["seed %d" % seed for seed in (1, 2, 3) for _ in range(8)]


def test_snapshot_of_a_suite_is_its_rows_as_exact_text():
    rows = json.loads(json.dumps(row_snapshot.snapshot([("defaults", "factorizations", {})])))
    results = run_suite("factorizations")
    assert [(row["identity"], float.fromhex(row["max_residual"]), row["tol"], row["passed"],
             row["worst_point"]) for row in rows] == [
        (res.identity, res.max_residual, res.tol, res.passed, res.worst_point)
        for res in results]
    assert row_snapshot.compare(rows, rows, out=io.StringIO()) == 0
    moved = [dict(row) for row in rows]
    moved[3]["max_residual"] = (float.fromhex(rows[3]["max_residual"]) * 2).hex()
    text = io.StringIO()
    assert row_snapshot.compare(rows, moved[:-1], out=text) == 2
    assert rows[3]["identity"] in text.getvalue()
    assert "only in A: defaults / factorizations / %s" % rows[-1]["identity"] in text.getvalue()


def test_every_row_matches_the_committed_snapshot():
    """The row gate: every row of tests/verify_rows.json (the nine suites at
    their defaults and three benchmark rounds) is reproduced exactly, its
    max_residual to the last bit.  A change that moves rows regenerates the
    file with `PYTHONPATH=src python3 tests/row_snapshot.py
    tests/verify_rows.json` and lists the moves in CHANGES.md."""
    committed = json.loads((row_snapshot.ROOT / "tests" / "verify_rows.json").read_text())
    text = io.StringIO()
    assert row_snapshot.compare(committed, row_snapshot.snapshot(row_snapshot.calls()),
                                out=text) == 0, text.getvalue()
