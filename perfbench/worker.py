"""The workload process: runs the grid and verify workloads in-process, and
serves as the set-up probe of every workload.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: `setup` sets up and exits, `measure` runs the timed closed loop,
`trace` runs a fixed list of operations once with the tracer installed and
once without.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# rounds measured at least, so that >= 10 samples lie beyond the tail
# percentile: p90 of >= 14 x 15 requests, p75 of >= 5 x 8 suite calls and
# of >= 6 x 7 invocations
MIN_ROUNDS = {"grid": inputs.GRID_CYCLE, "verify": 5, "cli": 6}
TAIL_PERCENTILE = {"grid": 90, "verify": 75, "cli": 75}
# nominal length of a cli round; a cli run makes seconds / this many rounds
CLI_ROUND_SECONDS = 4.0
# rounds in the fixed operation list of a traced run
TRACE_ROUNDS = 1
# grid rows compared with the oracle per completed request
GRID_SAMPLES = 1

# Im(tau) >= 0.5 with |Im z| <= Im(tau) on grid and cli, and the verify
# region at twice the digits (hygiene), keep every lattice radius the
# workloads need at or below 10 (the Gaussian tail bound of mu_m_jet)
WARM_RADII = range(1, 11)
WARM_ORDERS = range(7)


def load_program():
    """Import mjlab.cli from the checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mjlab", "__init__.py")):
        raise SystemExit("perfbench: %s holds no mjlab sources" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mjlab.cli

    if not os.path.abspath(mjlab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported mjlab from %s" % mjlab.cli.__file__)
    return mjlab.cli


def warm_up():
    """Fill the lru_cache tables the timed operations read: monomials and
    multiplication and derivative tables of every jet order used, and the
    lattice multiplicities of every rank and radius the inputs need."""
    from mjlab.jets import Jet
    from mjlab.mu import MAX_RANK, lattice_multiplicities

    for order in WARM_ORDERS:
        j = Jet.variable(0, 0.5, order)
        (j * j).exp()
        for var in range(4 if order else 0):
            j.deriv(var)
    for rank in range(1, MAX_RANK + 1):
        for radius in WARM_RADII:
            lattice_multiplicities(rank, radius)


def rounds_of(workload, seed):
    return {"grid": inputs.grid_rounds, "verify": inputs.verify_rounds,
            "cli": inputs.cli_rounds}[workload](seed)


# ----------------------------------------------------------------------
# one operation


def run_grid(cli, req):
    """One in-process `mjlab grid` call.  Returns (error or None, CSV)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raw error fails the request, not the run
        return "raised %s" % type(exc).__name__, ""
    if code not in (0, None):
        return "exit %s" % code, ""
    return None, out.getvalue()


def run_verify(call):
    """One run_suite call.  Returns (error or None, checks)."""
    from mjlab import verify
    from mjlab.core import EvalPoint

    name, kwargs = call
    kw = dict(kwargs)
    if "points" in kw:
        kw["points"] = [EvalPoint(*p) for p in kw["points"]]
    if "point" in kw:
        kw["point"] = EvalPoint(*kw["point"])
    try:
        results = verify.run_suite(name, **kw)
    except Exception as exc:  # a raw error fails the call, not the run
        return "raised %s" % type(exc).__name__, 0
    failed = sum(1 for r in results if not r.passed)
    if failed:
        return "%d of %d checks failed" % (failed, len(results)), 0
    return None, len(results)


def run_ops(workload, cli, batch, tracer=None):
    """Run a list of operations, timing each.  Returns records (error,
    rows, seconds) and the grid outputs to check."""
    records, outputs = [], []
    for i, item in enumerate(batch):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        if workload == "grid":
            error, text = run_grid(cli, item)
            rows = 0
        else:
            error, rows = run_verify(item)
            text = None
        seconds = time.perf_counter() - t0
        records.append({"error": error, "rows": rows, "seconds": seconds})
        outputs.append(text)
    return records, outputs


# ----------------------------------------------------------------------
# output checks, after the timed region


def parse_grid(req, text):
    """The (tau, z, value or None at a pole) rows of a grid CSV, or None if
    the CSV does not answer the request."""
    lines = text.rstrip("\n").splitlines()
    points = inputs.grid_points(req)
    if not lines or lines[0] != "x,y,u,v,re,im,pole" or len(lines) != len(points) + 1:
        return None
    rows = []
    for (tau, z), line in zip(points, lines[1:]):
        f = line.split(",")
        if len(f) != 7:
            return None
        want = (tau.real, tau.imag, z.real, z.imag)
        if any(abs(float(a) - b) > 1e-9 * max(1.0, abs(b)) for a, b in zip(f[:4], want)):
            return None
        if f[6] == "1" and not f[4] and not f[5]:
            rows.append((tau, z, None))
        elif f[6] == "0":
            rows.append((tau, z, complex(float(f[4]), float(f[5]))))
        else:
            return None
    return rows


def check_grid(records, outputs, batch, seed):
    """Mark completed requests whose output is wrong; count delivered rows.

    Every row must be finite or a pole row, and a seeded sample of rows
    must pass the oracle."""
    import oracle

    for i, (rec, text, req) in enumerate(zip(records, outputs, batch)):
        if rec["error"] is not None:
            continue
        rows = parse_grid(req, text)
        cause = oracle.WRONG
        if rows is not None:
            valued = [row for row in rows if row[2] is not None]
            rng = random.Random("check:%d:%d" % (seed, i))
            sample = rng.sample(valued, min(GRID_SAMPLES, len(valued)))
            if all(oracle.finite(w) for _, _, w in valued):
                causes = [oracle.check_value(req["function"], req, tau, z, w)
                          for tau, z, w in sample]
                cause = oracle.WRONG if oracle.WRONG in causes else next(
                    (c for c in causes if c), None)
        if cause is None:
            rec["rows"] = len(rows)
        else:
            rec["error"] = cause
            rec["wrong"] = cause == oracle.WRONG


# ----------------------------------------------------------------------
# modes


def setup(workload, seed):
    """Everything before the first timed operation; returns the program
    module, the round stream and the instant set-up ended."""
    cli = load_program()
    rounds = rounds_of(workload, seed)
    if workload != "cli":
        warm_up()
    return cli, rounds, time.monotonic()


def measure(workload, seed, seconds, cli, rounds):
    """The timed closed loop: at least MIN_ROUNDS rounds, ending at the end
    of the round nearest `seconds` (on grid, of the stratification cycle)."""
    whole = inputs.GRID_CYCLE if workload == "grid" else 1
    records, outputs, batch, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        if len(walls) >= MIN_ROUNDS[workload] and len(walls) % whole == 0:
            now = time.perf_counter()
            unit = (now - start) * whole / len(walls)
            if now + unit / 2 >= start + seconds:
                break
        ops = next(rounds)
        t0 = time.perf_counter()
        recs, outs = run_ops(workload, cli, ops)
        walls.append(time.perf_counter() - t0)
        for rec in recs:
            rec["round"] = len(walls) - 1
        records += recs
        outputs += outs
        batch += ops
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "grid":
        check_grid(records, outputs, batch, seed)
    return {"records": records, "walls": walls, "peak_rss_mb": peak}


def trace(workload, seed, cli, rounds):
    import tracer

    batch = [op for _ in range(TRACE_ROUNDS) for op in next(rounds)]
    t = tracer.Tracer()
    t.install()
    try:
        t0 = time.perf_counter()
        records, outputs = run_ops(workload, cli, batch, tracer=t)
        traced = time.perf_counter() - t0
    finally:
        t.uninstall()
    raw = t.raw()
    t0 = time.perf_counter()
    run_ops(workload, cli, batch)
    untraced = time.perf_counter() - t0
    probe = tracer.casimir_probe()
    if workload == "grid":
        check_grid(records, outputs, batch, seed)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "spans-%s-%d.json" % (workload, seed)), "w") as fh:
        json.dump(t.spans, fh)
    return {"records": records, "raw": raw, "probe": probe,
            "overhead_ratio": traced / untraced}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(MIN_ROUNDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()
    cli, rounds, ready = setup(args.workload, args.seed)
    result = {"ready": ready}
    if args.mode == "measure":
        result.update(measure(args.workload, args.seed, args.seconds, cli, rounds))
    elif args.mode == "trace":
        result.update(trace(args.workload, args.seed, cli, rounds))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
