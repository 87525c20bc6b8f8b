"""The CLI snapshot tool (tests/cli_snapshot.py): its runs are the command
lines of tests/cli_outputs.json, its file text is that file's form, and
the comparison of two snapshots names what moved."""

import io
import json
from pathlib import Path

import cli_snapshot

RECORDED = Path(__file__).resolve().parent / "cli_outputs.json"


def test_runs_are_the_recorded_command_lines_in_the_file_form():
    records = json.loads(RECORDED.read_text())
    assert [(r["argv"], r["stdin"]) for r in records] == cli_snapshot.RUNS
    assert cli_snapshot.dumps(records) == RECORDED.read_text()


def test_a_snapshot_is_what_each_run_prints():
    runs = [cli_snapshot.RUNS[0], cli_snapshot.RUNS[-1]]
    recorded = json.loads(RECORDED.read_text())
    assert cli_snapshot.snapshot(runs) == [recorded[0], recorded[-1]]


def test_compare_names_moved_values_lines_and_missing_runs():
    records = json.loads(RECORDED.read_text())
    assert cli_snapshot.compare(records, records, out=io.StringIO()) == 0
    moved = [dict(r) for r in records[:-1]]
    value = json.loads(moved[2]["stdout"])
    value["value"] = [part * (1 + 2 ** -50) for part in value["value"]]
    moved[2]["stdout"] = json.dumps(value) + "\n"
    grid = next(r for r in moved if r["argv"][0] == "grid")
    rows = grid["stdout"].split("\n")
    rows[1] += "0"
    grid["stdout"] = "\n".join(rows)
    text = io.StringIO()
    assert cli_snapshot.compare(records, moved, out=text) == 3
    lines = text.getvalue().splitlines()
    eval_line = next(line for line in lines if line.startswith(" ".join(records[2]["argv"])))
    assert 5e-16 < float(eval_line.rpartition("relative move ")[2].rstrip(")")) < 2e-15
    assert "  + " + rows[1] in lines
    assert "only in A: decompose" in lines
    assert lines[-1] == "3 of %d outputs moved or missing" % len(records)
