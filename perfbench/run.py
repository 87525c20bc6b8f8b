"""Layered benchmark of mjlab.

    python3 perfbench/run.py --workload grid|verify|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/mjlab`.  With `--trace 0`
it measures the end-to-end metrics of one workload with tracing off; with
`--trace 1` it runs a fixed list of the workload's operations once with the
per-layer tracer installed and once without, and reports the per-layer
metrics, with the counts of the defects the workloads' domains leave out.
Every operation's output is checked outside the timed region.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cliwork  # noqa: E402
import defects  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# fresh set-up processes per run, besides the measuring process itself
SETUP_PROBES = 2
WORKER_TIMEOUT = 150

UNITS = {
    "setup_s": "s", "points_per_s": "points/s", "wall_s": "s", "p50_ms": "ms",
    "tail_ms": "ms", "peak_rss_mb": "MB",
}


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spawn_worker(workload, seed, seconds, mode, importtime=False):
    """Run worker.py in a fresh interpreter.  Returns (result, stderr,
    seconds from spawn to the end of its set-up)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=worker.ROOT, capture_output=True, text=True,
                       timeout=WORKER_TIMEOUT)
    result = last_json(p.stdout)
    if p.returncode != 0 or result is None:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit("perfbench: %s worker exited %d" % (mode, p.returncode))
    return result, p.stderr, result["ready"] - t0


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[max(0, int(rank) - 1)]


def end_to_end(workload, result, setups):
    """The end-to-end metrics from a measuring run's records."""
    records = result["records"]
    samples = sorted(r["seconds"] for r in records)
    pct = worker.TAIL_PERCENTILE[workload]
    values = {
        "setup_s": statistics.median(setups),
        "points_per_s": sum(r["rows"] for r in records) / sum(samples),
        "wall_s": statistics.median(result["walls"]),
        "p50_ms": statistics.median(samples) * 1e3,
        "tail_ms": percentile(samples, pct) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    beyond = sum(1 for t in samples if t > percentile(samples, pct))
    print("perfbench %s: %d operations in %d rounds; tail_ms is p%d of %d samples "
          "(%d beyond it); setup_s is the median of %d set-ups"
          % (workload, len(records), len(result["walls"]), pct, len(samples), beyond,
             len(setups)))
    return values


def per_layer(raws, probe, overhead, imports, defect_counts):
    values = tracer.layer_metrics(raws)
    values.update(defect_counts)
    values["operators.base_evals"] = probe["base_evals"]
    values["operators.casimir_mul_calls"] = probe["mul_calls"]
    values["trace.overhead_ratio"] = overhead

    def scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    values["cli.import_s"] = statistics.median(
        sum(cum for name, _, cum, _ in t if name == "mjlab.cli") for _, t in imports)
    # every import of scipy made from outside scipy, with what it imports
    values["cli.import_scipy_s"] = statistics.median(
        sum(cum for name, _, cum, by in t if scipy(name) and not (by and scipy(by)))
        for _, t in imports)
    evals = [t for kind, t in imports if kind in ("eval", "worker")]
    values["cli.mjlab_modules_loaded"] = statistics.median(
        sum(1 for name, _, _, _ in t if name.startswith("mjlab.")) for t in evals)
    return values


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_op")):
        return "ratio"
    return "count"


def run(workload, seed, seconds, traced):
    if traced:
        if workload == "cli":
            result = cliwork.trace(seed)
            imports, raws = result["imports"], result["raws"]
            probe = tracer.casimir_probe()
        else:
            result, stderr, _ = spawn_worker(workload, seed, seconds, "trace",
                                             importtime=True)
            imports = [("worker", tracer.import_times(stderr))]
            raws, probe = [result["raw"]], result["probe"]
        worker.load_program()
        values = per_layer(raws, probe, result["overhead_ratio"], imports,
                           defects.probe())
        units = {name: layer_unit(name) for name in values}
    else:
        if workload == "cli":
            result = cliwork.measure(seed, seconds)
            setups = []
            n_probes = SETUP_PROBES + 1
        else:
            result, _, first = spawn_worker(workload, seed, seconds, "measure")
            setups = [first]
            n_probes = SETUP_PROBES
        for _ in range(n_probes):
            setups.append(spawn_worker(workload, seed, seconds, "setup")[2])
        values = end_to_end(workload, result, setups)
        units = UNITS
    records = result["records"]
    causes = {}
    for r in records:
        if r["error"] is not None:
            causes[r["error"]] = causes.get(r["error"], 0) + 1
    print("perfbench %s: output checks %s; failures by cause: %s"
          % (workload, "passed" if not any(r.get("wrong") for r in records)
             else "found wrong answers", json.dumps(causes, sort_keys=True)))
    return {
        "correct": not any(r.get("wrong") for r in records),
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("grid", "verify", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(worker.SRC, "mjlab", "__init__.py")):
        print("perfbench: %s holds no mjlab sources" % worker.SRC, file=sys.stderr)
        return 2
    os.makedirs(worker.WORK, exist_ok=True)
    out = run(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
