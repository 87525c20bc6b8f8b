"""The cli workload: one cold `python -m mjlab.cli ...` process per
operation, started from this process one at a time (a closed loop with one
client)."""

import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import inputs
import tracer
from worker import (CLI_ROUND_SECONDS, MIN_ROUNDS, ROOT, SRC, TRACE_ROUNDS, WORK,
                    load_program)

CLITRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clitrace.py")
TIMEOUT = 60


def invoke(op, trace_path=None):
    """Run one invocation.  Returns (record, stdout, stderr)."""
    argv = op["argv"]
    if op["kind"] == "decompose":
        path = os.path.join(WORK, "decompose-input.txt")
        with open(path, "w") as fh:
            fh.write(op["text"])
        argv = argv + ["--in", path]
    if trace_path is None:
        cmd = [sys.executable, "-m", "mjlab.cli"] + argv
    else:
        cmd = [sys.executable, "-X", "importtime", CLITRACE, trace_path] + argv
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": "timeout", "rows": 0, "seconds": time.perf_counter() - t0}, "", ""
    seconds = time.perf_counter() - t0
    error = None
    if p.returncode != 0 or "Traceback" in p.stderr:
        error = "exit %d" % p.returncode
        if "Traceback" in p.stderr:
            error += ", " + p.stderr.strip().splitlines()[-1].split(":")[0]
    return {"error": error, "rows": 0, "seconds": seconds}, p.stdout, p.stderr


def check_output(op, out):
    """None if a completed invocation's output is right, else the cause."""
    import oracle

    try:
        obj = json.loads(out)
        if op["kind"] == "eval":
            w = complex(*obj["value"])
            return oracle.check_value(op["function"], op, op["tau"], op["z"], w)
        if op["kind"] == "verify":
            checks = obj["checks"]
            ok = obj["passed"] and checks and all(
                c["passed"] and math.isfinite(c["max_residual"]) for c in checks)
            return None if ok else oracle.WRONG
        two_m = op["two_m"]
        want = {
            str(l): [[Fraction(D, 2 * two_m).numerator, Fraction(D, 2 * two_m).denominator,
                      c.real, c.imag] for D, c in op["expected"].get(l, [])]
            for l in range(two_m)
        }
        return None if obj == want else oracle.WRONG
    except (ValueError, KeyError, TypeError):
        return oracle.WRONG


def check(records, outputs, ops):
    """Fail completed invocations whose output fails its check; each of the
    others delivers one answer."""
    import oracle

    load_program()  # the identity checks evaluate the library
    for rec, out, op in zip(records, outputs, ops):
        if rec["error"] is None:
            cause = check_output(op, out)
            if cause is None:
                rec["rows"] = 1
            else:
                rec["error"] = cause
                rec["wrong"] = cause == oracle.WRONG


def measure(seed, seconds):
    """A fixed number of rounds for the given seconds, so that a run meets
    the same ranks of mu_hat_ml on every seed."""
    os.makedirs(WORK, exist_ok=True)
    rounds = inputs.cli_rounds(seed)
    # one untimed invocation warms the bytecode and page caches
    invoke({"kind": "eval", "argv": ["eval", "theta"]})
    records, outputs, done, walls = [], [], [], []
    n_rounds = max(MIN_ROUNDS["cli"], round(seconds / CLI_ROUND_SECONDS))
    for _ in range(n_rounds):
        ops = next(rounds)
        t0 = time.perf_counter()
        for op in ops:
            rec, out, _ = invoke(op)
            rec["round"] = len(walls)
            records.append(rec)
            outputs.append(out)
        walls.append(time.perf_counter() - t0)
        done += ops
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    check(records, outputs, done)
    return {"records": records, "walls": walls, "peak_rss_mb": peak}


def trace(seed):
    """Each invocation of a fixed list once plain and once traced."""
    os.makedirs(WORK, exist_ok=True)
    rounds = inputs.cli_rounds(seed)
    ops = [op for _ in range(TRACE_ROUNDS) for op in next(rounds)]
    invoke({"kind": "eval", "argv": ["eval", "theta"]})
    trace_path = os.path.join(WORK, "clitrace-op.json")
    records, outputs, raws, spans, imports = [], [], [], [], []
    plain = traced = 0.0
    for i, op in enumerate(ops):
        plain += invoke(op)[0]["seconds"]
        if os.path.exists(trace_path):
            os.remove(trace_path)
        rec, out, err = invoke(op, trace_path)
        traced += rec["seconds"]
        records.append(rec)
        outputs.append(out)
        imports.append((op["kind"], tracer.import_times(err)))
        if os.path.exists(trace_path):
            with open(trace_path) as fh:
                data = json.load(fh)
            raws.append(data["raw"])
            spans += [[i] + s[1:] for s in data["spans"]]
    check(records, outputs, ops)
    with open(os.path.join(WORK, "spans-cli-%d.json" % seed), "w") as fh:
        json.dump(spans, fh)
    return {"records": records, "raws": raws, "imports": imports,
            "overhead_ratio": traced / plain}
