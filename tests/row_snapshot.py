"""Every verify row as exact text, to compare two builds of the library.

    PYTHONPATH=src python3 tests/row_snapshot.py OUT.json
    python3 tests/row_snapshot.py --compare A.json B.json

The first form writes, for every row of the nine suites at their defaults
and of the first verify round of perfbench's seeds 1, 2 and 3 (the point
sets and decomposition seeds of perfbench/inputs.py, which it only reads),
the row's identity, its max_residual as float.hex(), tol, passed and
worst_point, under the name of its run ("defaults" or "seed N") and suite.
The second prints every row that moved from A to B, every row only one of
them has, per suite the rows that moved, their largest move and the
largest move as a share of the moved row's tol, and the number of rows
whose pass/fail flipped.
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _perfbench_inputs():
    """perfbench/inputs.py as a module (standard library only)."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calls(seeds=SEEDS):
    """(run, suite, kwargs) of every suite call a snapshot makes: each
    suite at its defaults, then the first verify round of each seed, its
    points as EvalPoints."""
    from mjlab.core import EvalPoint
    from mjlab.verify import SUITES

    out = [("defaults", name, {}) for name in SUITES]
    inputs = _perfbench_inputs()
    for seed in seeds:
        for name, kwargs in next(inputs.verify_rounds(seed)):
            kw = dict(kwargs)
            if "points" in kw:
                kw["points"] = [EvalPoint(*p) for p in kw["points"]]
            if "point" in kw:
                kw["point"] = EvalPoint(*kw["point"])
            out.append(("seed %d" % seed, name, kw))
    return out


def snapshot(calls):
    """The rows of the given (run, suite, kwargs) calls, as exact text."""
    from mjlab.verify import run_suite

    return [
        {"run": run, "suite": name, "identity": res.identity,
         "max_residual": float(res.max_residual).hex(), "tol": res.tol,
         "passed": res.passed, "worst_point": res.worst_point}
        for run, name, kwargs in calls for res in run_suite(name, **kwargs)
    ]


def compare(a, b, out=sys.stdout):
    """Print the rows that moved from snapshot a to snapshot b, the rows
    only one of them has, and the largest move per suite.  Returns the
    number of rows that moved or are missing."""

    def keyed(rows):
        return {(row["run"], row["suite"], row["identity"]): row for row in rows}

    ka, kb = keyed(a), keyed(b)
    largest = {}
    changed = flipped = 0
    for key in ka.keys() | kb.keys():
        if key not in ka or key not in kb:
            print("only in %s: %s / %s / %s" % ("B" if key in kb else "A", *key), file=out)
            changed += 1
    for key, ra in ka.items():
        rb = kb.get(key)
        if rb is None or ra == rb:
            continue
        changed += 1
        flipped += ra["passed"] != rb["passed"]
        move = abs(float.fromhex(rb["max_residual"]) - float.fromhex(ra["max_residual"]))
        count, worst, share = largest.get(key[1], (0, 0.0, 0.0))
        largest[key[1]] = count + 1, max(worst, move), max(share, move / ra["tol"])
        print("%s / %s / %s: %s -> %s (move %.3g)%s%s" % (
            *key, float.fromhex(ra["max_residual"]), float.fromhex(rb["max_residual"]), move,
            "" if ra["passed"] == rb["passed"] else ", passed %s -> %s"
            % (ra["passed"], rb["passed"]),
            "" if ra["worst_point"] == rb["worst_point"] else ", worst point %s -> %s"
            % (ra["worst_point"], rb["worst_point"])), file=out)
    for suite, (count, worst, share) in sorted(largest.items()):
        print("suite %s: %d rows moved, largest move %.3g, largest share of a row's tol %.3g"
              % (suite, count, worst, share), file=out)
    print("%d of %d rows moved or missing, %d flipped pass/fail"
          % (changed, len(ka.keys() | kb.keys()), flipped), file=out)
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
    Path(args.out).write_text(json.dumps(snapshot(calls()), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
