"""Recorded command lines' outputs as exact text, to compare two builds.

    PYTHONPATH=src python3 tests/cli_snapshot.py OUT.json
    python3 tests/cli_snapshot.py --compare A.json B.json

The first form runs each command line of RUNS in process (`mjlab.cli.main`
with its standard input) and writes its argv, stdin, stdout, exit code and
stderr, one record a line; a verify report is recorded without its wall
time (`seconds`).  tests/cli_outputs.json is that file, and
tests/test_cli_startup.py checks every output against it byte for byte.
The second prints every output that moved from A to B (an eval's value and
its relative move, any other output's lines that differ, its exit code and
stderr among them), every run only one of them has, and the number of
outputs that moved or are missing.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

AT_POINT = ("--tau", "0.13+1.1i", "--z", "0.21+0.17i")
KERNEL = ("--k", "0.5", "--m", "-1", "--n", "-1", "--r", "1")

SUITES = ("covariance", "kernels", "xi-images", "factorizations", "weil", "mu-transform",
          "mu-xi-theta", "decomposition-roundtrip", "hygiene")

# (argv, stdin): an eval of every catalog function at one point, two grids
# (negative values as separate tokens and as --opt=value), every verify
# suite at its defaults and once per option it reads, a --tol override, the
# errors of an unknown suite, an option the suite does not read and --tol 0,
# and two decompositions
RUNS = [
    (["eval", "E", "--w", "0.3", *AT_POINT], None),
    (["eval", "H", "--w", "0.7", "--k", "1.5", *AT_POINT], None),
    (["eval", "R", *AT_POINT], None),
    (["eval", "R_hat_ml", "--m", "1.5", "--l", "0.5", *AT_POINT], None),
    *((["eval", name, *KERNEL, *AT_POINT], None)
      for name in ("c1", "c1sk", "c2", "c2sk", "c3", "c3sk", "c4", "c4sk")),
    (["eval", "mu", "--m", "1", "--z2", "0.17-0.23i", *AT_POINT], None),
    (["eval", "mu_hat_2", *AT_POINT], None),
    (["eval", "mu_hat_ml", "--m", "1", "--l", "1", *AT_POINT], None),
    (["eval", "theta", *AT_POINT], None),
    (["eval", "theta_ml", "--m", "1", "--l", "1", *AT_POINT], None),
    (["grid", "mu_hat_ml", "--m", "1", "--l", "1", "--tau", "-0.41+1.1i", "--steps", "3", "2",
      "--min", "-0.25", "0.125", "--max", "0.5", "0.375"], None),
    (["grid", "theta", "--tau-grid", "--z=-0.1+0.2i", "--steps", "2", "3", "--min=-0.5", "0.75",
      "--max", "0.25", "1.5"], None),
    *((["verify", suite], None) for suite in SUITES),
    (["verify", "covariance", "--op", "X+"], None),
    (["verify", "covariance", "--gen", "S"], None),
    (["verify", "xi-images", "--k", "0.5", "--m", "1.5", "--n", "-1", "--r", "2"], None),
    (["verify", "xi-images", "--k", "1.5", "--m", "0.5"], None),
    (["verify", "xi-images", "--r", "1"], None),
    (["verify", "weil", "--two-m", "2"], None),
    (["verify", "mu-transform", "--two-m", "2"], None),
    (["verify", "decomposition-roundtrip", "--seed", "3"], None),
    (["verify", "weil", "--tol", "1e-30"], None),
    (["verify", "no-such-suite"], None),
    (["verify", "kernels", "--two-m", "2"], None),
    (["verify", "weil", "--tol", "0"], None),
    (["decompose"], "index 2m=2\n0 0 1 0\n1 2 1 0\n1 -2 1 0\n4 4 1 0\n"),
    (["decompose"], "index 2m=3\n0 0 1 0\n1 3 1 0\n0 1 0.5 -0.25\n1 -2 0.5 -0.25\n"
                    "2 4 0.5 -0.25\n1 2 -2 1\n"),
]


def run(argv, stdin):
    """The record of `mjlab ARGV...` run in process on the given standard
    input: argv, stdin, stdout, exit code and stderr."""
    from mjlab import cli

    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    stdout = out.getvalue()
    if argv[0] == "verify" and stdout:
        report = json.loads(stdout)
        del report["seconds"]
        stdout = json.dumps(report, indent=2) + "\n"
    return {"argv": argv, "stdin": stdin, "stdout": stdout, "exit": code or 0,
            "stderr": err.getvalue()}


def snapshot(runs=RUNS):
    """The records of the given runs."""
    return [run(argv, stdin) for argv, stdin in runs]


def dumps(records):
    """The records as the text of tests/cli_outputs.json, one a line."""
    return "[\n" + ",\n".join(json.dumps(record) for record in records) + "\n]\n"


def _value(stdout):
    """The complex value of an eval's JSON output, or None."""
    try:
        re, im = json.loads(stdout)["value"]
    except (ValueError, KeyError, TypeError):
        return None
    return complex(re, im)


def _lines(record):
    """A record's output as lines: its stdout's, its exit code, its
    stderr's (a record without the last two exited 0 and wrote none)."""
    return (record["stdout"].splitlines() + ["exit %d" % record.get("exit", 0)]
            + record.get("stderr", "").splitlines())


def compare(a, b, out=sys.stdout):
    """Print the outputs that moved from snapshot a to snapshot b and the
    runs only one of them has.  Returns the number of outputs that moved
    or are missing."""

    def keyed(records):
        return {(" ".join(r["argv"]), r["stdin"]): r for r in records}

    ka, kb = keyed(a), keyed(b)
    changed = 0
    for key in ka.keys() | kb.keys():
        if key not in ka or key not in kb:
            print("only in %s: %s" % ("B" if key in kb else "A", key[0]), file=out)
            changed += 1
    for key, ra in ka.items():
        rb = kb.get(key)
        if rb is None or _lines(ra) == _lines(rb):
            continue
        changed += 1
        va, vb = _value(ra["stdout"]), _value(rb["stdout"])
        if va is not None and vb is not None:
            move = abs(vb - va) / (abs(va) or 1.0)
            print("%s: %r -> %r (relative move %.3g)" % (key[0], va, vb, move), file=out)
            continue
        print("%s:" % key[0], file=out)
        sa, sb = _lines(ra), _lines(rb)
        for la, lb in zip(sa, sb):
            if la != lb:
                print("  - %s\n  + %s" % (la, lb), file=out)
        if len(sa) != len(sb):
            print("  %d lines -> %d lines" % (len(sa), len(sb)), file=out)
    print("%d of %d outputs moved or missing" % (changed, len(ka.keys() | kb.keys())), file=out)
    return changed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="the snapshot file to write")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two snapshots to compare")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        compare(a, b)
        return 0
    if not args.out:
        ap.error("give a snapshot file to write, or --compare A B")
    Path(args.out).write_text(dumps(snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
