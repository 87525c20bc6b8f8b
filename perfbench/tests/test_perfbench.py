"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import cliwork  # noqa: E402
import defects  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

CLI = worker.load_program()
worker.warm_up()

from mjlab import special, verify  # noqa: E402
from mjlab.jets import Jet  # noqa: E402
from mjlab.kernels import KernelParams, kernel_term_handle  # noqa: E402
from mjlab.mu import mu_hat_2_jet, mu_hat_component_jet  # noqa: E402
from mjlab.core import EvalPoint  # noqa: E402

STREAMS = {"grid": inputs.grid_rounds, "verify": inputs.verify_rounds,
           "cli": inputs.cli_rounds}

# metrics this benchmark promises, by name
END_TO_END = ("setup_s", "points_per_s", "wall_s", "p50_ms", "tail_ms",
              "peak_rss_mb")


def first_rounds(workload, seed, n=2):
    stream = STREAMS[workload](seed)
    return json.dumps([next(stream) for _ in range(n)], default=repr, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


def in_domain(function, two_m, l, y, v_lo, v_hi):
    """Whether Im(tau) = y and Im(z) in [v_lo, v_hi] lie in the declared
    domain of a function, and every R-series it evaluates stays bounded."""
    ys, window = inputs.grid_domain(function, two_m, l)
    a_lo, a_hi = window(y)
    ok = ys[0] <= y <= ys[1] and a_lo * y - 1e-12 <= v_lo <= v_hi <= a_hi * y + 1e-12
    ok = ok and -inputs.A_MAX * y <= v_lo and v_hi <= inputs.A_MAX * y
    series = inputs.r_series_of(function, two_m, l)
    if series is not None:
        scale, offset = series
        ok = ok and scale * y <= inputs.Y_RANGE[1]
        ok = ok and all(
            inputs.r_exponent(scale * y, abs(v / y + offset)) <= inputs.R_EXPONENT_MAX
            for v in (v_lo, v_hi))
    return ok


def test_grid_rounds_keep_the_deck_and_the_declared_domain():
    stream = inputs.grid_rounds(3)
    for ops in [next(stream) for _ in range(inputs.GRID_CYCLE + 1)]:
        slots = [(r["function"], r["two_m"] if r["function"] == "mu_hat_ml" else 0)
                 for r in ops]
        assert sorted(slots) == sorted(inputs.GRID_DECK)
        for req in ops:
            y = req["tau"].imag
            assert in_domain(req["function"], req["two_m"], req["l"], y,
                             req["lo"][1], req["hi"][1])
            assert req["lo"][1] < req["hi"][1]
            assert len(inputs.grid_points(req)) == req["steps"][0] * req["steps"][1]
            assert inputs.clear_of_poles(req["function"], req["two_m"],
                                         inputs.grid_points(req))


def test_cli_evals_keep_the_declared_domain():
    stream = inputs.cli_rounds(5)
    evals = [op for _ in range(12) for op in next(stream) if op["kind"] == "eval"]
    ranks = {op["two_m"] for op in evals if op["function"] == "mu_hat_ml"}
    assert ranks == set(range(1, 7))
    for op in evals:
        v = op["z"].imag
        assert in_domain(op["function"], op.get("two_m", 0), op.get("l", 0.0),
                         op["tau"].imag, v, v)
        assert inputs.clear_of_poles(op["function"], op.get("two_m"),
                                     [(op["tau"], op["z"])])


@pytest.mark.parametrize("two_m", [1, 3, 6])
def test_appell_pole_distance_finds_the_zeros_of_theta_at_z2(two_m):
    # z2 = 1/(4m) - z - 1/2 runs through Z + Z tau
    tau = complex(0.13, 0.75)
    for k, j in [(0, 0), (1, 0), (-1, 1), (2, -1)]:
        pole = 1.0 / (2 * two_m) - 0.5 - k - j * tau
        assert inputs.appell_pole_distance(two_m, tau, pole) == pytest.approx(0, abs=1e-12)
        assert inputs.appell_pole_distance(two_m, tau, pole + 0.03j) == pytest.approx(0.03)


def test_r_exponent_follows_the_radius_the_library_chooses():
    # R = ceil(sqrt(log(1e14) / (pi y)) + shift) + 2, summed to R + 1/2
    y, shift = 1.3, 0.4
    n = math.ceil(math.sqrt(math.log(1e14) / (math.pi * y)) + shift) + 2.5
    assert inputs.r_exponent(y, shift) == pytest.approx(
        math.pi * y * n * n + 2 * math.pi * n * shift * y)
    s = inputs.r_shift_max(3.0)
    assert inputs.r_exponent(3.0, s) <= inputs.R_EXPONENT_MAX
    assert inputs.r_exponent(3.0, s + 1e-6) > inputs.R_EXPONENT_MAX


def test_verify_rounds_use_the_shipped_point_sets():
    shipped = {
        "covariance": verify.GENERIC_POINTS[:3],
        "kernels": verify.GENERIC_POINTS,
        "xi-images": verify.GENERIC_POINTS,
        "factorizations": verify.GENERIC_POINTS[:3],
        "mu-xi-theta": verify.GENERIC_POINTS_10,
    }
    calls = next(inputs.verify_rounds(4))
    names = [name for name, _ in calls]
    assert names == [name for name in verify.SUITES if name != "mu-transform"]
    for name, kwargs in calls:
        pts = kwargs.get("points") or [kwargs["point"]]
        if name in shipped:
            ref = [(p.x, p.y, p.u, p.v) for p in shipped[name]]
        else:
            ref = {"weil": [inputs.WEIL_POINT],
                   "decomposition-roundtrip": inputs.DECOMPOSITION_POINTS,
                   "hygiene": inputs.HYGIENE_POINTS}[name]
        assert len(pts) == len(ref)
        jitter = 0.0 if name == "covariance" else inputs.VERIFY_JITTER
        for p, q in zip(pts, ref):
            assert all(abs(a - b) <= jitter + 1e-15 for a, b in zip(p, q))


# ----------------------------------------------------------------------
# the oracle


def _c(w):
    return Jet.constant(complex(w), 0)


TAU, Z = complex(0.13, 1.1), complex(0.21, 0.17)
KERNEL = {"k": 0.5, "m": -1.0, "n": -1, "r": 1}


def library_value(function, params):
    if function == "theta":
        return special.jacobi_theta_jet(_c(TAU), _c(Z)).value
    if function == "theta_ml":
        return special.theta_ml_jet(params["two_m"], params["l"], _c(TAU), _c(Z)).value
    if function == "R":
        return special.zwegers_R_jet(_c(TAU), _c(Z)).value
    if function == "E":
        return complex(special.error_completion_E(params["w"]))
    if function == "H":
        return complex(special.H_function(params["w"], params["k"]))
    if function == "mu_hat_ml":
        return mu_hat_component_jet(params["two_m"], params["l"], _c(TAU), _c(Z)).value
    if function == "mu_hat_2":
        return mu_hat_2_jet(_c(TAU), _c(Z)).value
    p = KernelParams.of(params["k"], params["m"], params["n"], params["r"])
    return kernel_term_handle(int(function[1]), p, skew=function.endswith("sk")).eval(
        EvalPoint.from_tau_z(TAU, Z))


CASES = [
    ("theta", {}),
    ("theta_ml", {"two_m": 3, "l": 1.5}),
    ("R", {}),
    ("E", {"w": 0.7}),
    ("H", {"w": 1.3, "k": 1.5}),
    ("H", {"w": -0.4, "k": -0.5}),
    ("c2", KERNEL),
    ("c4sk", KERNEL),
    ("mu_hat_ml", {"two_m": 2, "l": 1.0}),
    ("mu_hat_2", {}),
]


@pytest.mark.parametrize("function,params", CASES)
def test_oracle_accepts_the_library_and_rejects_a_1e8_perturbation(function, params):
    value = library_value(function, params)
    assert oracle.check_value(function, params, TAU, Z, value) is None
    bad = value * (1 + 1e-8)
    assert oracle.check_value(function, params, TAU, Z, bad) == oracle.WRONG


def test_oracle_rejects_non_finite_values():
    assert oracle.check_value("theta", {}, TAU, Z, complex(math.nan, 0)) == oracle.WRONG


# ----------------------------------------------------------------------
# failure accounting

# the R-series of the completed component overflows here (2m = 3, y = 3)
OVERFLOWING = {"function": "mu_hat_ml", "two_m": 3, "l": 0.5, "tau": complex(0.1, 3.0),
               "lo": (0.0, 1.0), "hi": (0.5, 2.5), "steps": (2, 2)}
HEALTHY = {"function": "theta_ml", "two_m": 2, "l": 1.0, "tau": complex(0.1, 1.0),
           "lo": (0.0, -0.5), "hi": (0.5, 0.5), "steps": (3, 2)}


def grid_request(spec):
    req = dict(spec)
    req["argv"] = inputs.grid_argv(req)
    return req


def test_raw_exception_fails_the_operation_and_the_run_goes_on():
    batch = [grid_request(OVERFLOWING), grid_request(HEALTHY)]
    records, outputs = worker.run_ops("grid", CLI, batch)
    worker.check_grid(records, outputs, batch, seed=0)
    assert records[0]["error"] == "raised OverflowError"
    assert records[0]["rows"] == 0
    assert records[1]["error"] is None
    assert records[1]["rows"] == 6


def test_a_wrong_grid_value_fails_the_operation_and_marks_the_run():
    batch = [grid_request(HEALTHY)]
    records, outputs = worker.run_ops("grid", CLI, batch)
    lines = outputs[0].splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-6))
    lines[1] = ",".join(fields)
    worker.check_grid(records, ["\n".join(lines)], batch, seed=0)
    assert records[0]["error"] == oracle.WRONG and records[0]["wrong"]


def test_raising_suite_fails_the_call(monkeypatch):
    def boom(**kwargs):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.SUITES, "weil", boom)
    records, _ = worker.run_ops("verify", CLI, [("weil", {"point": (0.1, 1.0, 0.2, 0.1)}),
                                                ("weil", {"point": (0.1, 1.0, 0.2, 0.1)})])
    assert [r["error"] for r in records] == ["raised RuntimeError"] * 2


def test_defect_probe_counts_raises_identity_misses_and_failing_s_law_checks(
        monkeypatch):
    import mjlab.mu
    from mjlab.verify import SuiteResult

    real = mjlab.mu.mu_hat_component_jet

    def component(two_m, *args):
        if two_m == 6:
            raise OverflowError("math range error")
        return real(two_m, *args)

    def check_value(function, params, tau, z, got):
        return oracle.IDENTITY if params["two_m"] == 5 else None

    monkeypatch.setattr(mjlab.mu, "mu_hat_component_jet", component)
    monkeypatch.setattr(oracle, "check_value", check_value)
    monkeypatch.setattr(defects, "PROBE_YS", (0.5,))
    monkeypatch.setattr(defects, "PROBE_AS", (-0.5,))
    monkeypatch.setitem(verify.SUITES, "mu-transform", lambda: [
        SuiteResult("a", 0.0, 1.0), SuiteResult("b", 2.0, 1.0)])
    assert len(defects.probe_points()) == 21
    assert defects.probe() == {"defects.r_overflow": 6, "defects.identity_misses": 5,
                               "defects.s_law_failed": 1}


def test_cli_traceback_fails_the_invocation():
    op = inputs.cli_eval(__import__("random").Random(0), "mu_hat_ml", 0)
    op["argv"] = ["eval", "mu_hat_ml", "--m", "1.5", "--l", "0.5",
                  "--tau", "0.1+3i", "--z", "0.2+2i"]
    record, _, _ = cliwork.invoke(op)
    assert record["error"] == "exit 1, OverflowError"


# ----------------------------------------------------------------------
# tracing and metric names


def test_tracer_restores_every_binding_and_counts_casimir_base_evaluations():
    import mjlab.mu
    import mjlab.operators

    before = (mjlab.mu.zwegers_R_jet, mjlab.operators._OPERATORS["X+"][0],
              Jet.__mul__, verify.SUITES["weil"])
    probe = tracer.casimir_probe()
    assert probe == {"base_evals": 4, "mul_calls": probe["mul_calls"]}
    assert probe["mul_calls"] > 0
    assert (mjlab.mu.zwegers_R_jet, mjlab.operators._OPERATORS["X+"][0],
            Jet.__mul__, verify.SUITES["weil"]) == before


def benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    records = [{"round": i // 3, "error": None, "rows": 4, "seconds": 0.01 * (i + 1)}
               for i in range(12)]
    records[5].update(error="raised OverflowError", rows=0)
    result = {"records": records, "walls": [0.1, 0.2, 0.3, 0.4], "peak_rss_mb": 70.0}
    values = run.end_to_end("grid", result, [1.0, 1.1, 1.2])
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert set(values) == set(END_TO_END) == set(declared)
    assert {name: run.UNITS[name] for name in values} == declared
    assert values["points_per_s"] == pytest.approx(44 / 0.78)
    assert values["wall_s"] == pytest.approx(0.25)
    assert values["p50_ms"] == pytest.approx(65.0)
    assert values["tail_ms"] == pytest.approx(110.0)
    assert values["setup_s"] == 1.1


def traced(fn):
    t = tracer.Tracer()
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    return t.raw()


def test_every_per_layer_metric_is_emitted_with_its_unit():
    raw = traced(lambda: worker.run_ops("grid", CLI, [grid_request(HEALTHY)]))
    imports = [("worker", [("scipy", 0.1, 0.2, "mjlab.special"),
                           ("mjlab.special", 0.01, 0.3, "mjlab.mu"),
                           ("mjlab.cli", 0.01, 0.5, None)])]
    found = dict.fromkeys(("defects.r_overflow", "defects.identity_misses",
                           "defects.s_law_failed"), 0)
    values = run.per_layer([raw], tracer.casimir_probe(), 1.5, imports, found)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert set(values) == set(declared)
    assert {name: run.layer_unit(name) for name in values} == declared
    # one theta_ml series per grid point, at jet order 0
    assert values["special.theta_calls"] == 6
    assert values["special.terms"] >= 6
    assert values["jets.taylor_calls"] == values["special.terms"]
    assert values["cli.self_s"] > 0
    assert values["cli.import_s"] == 0.5
    assert values["cli.import_scipy_s"] == 0.2
    assert values["cli.mjlab_modules_loaded"] == 2


def test_import_times_attribute_each_module_to_its_importer():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        350 | mjlab.special",
    ])
    times = tracer.import_times(report)
    assert [(name, by) for name, _, _, by in times] == [
        ("scipy._lib", "scipy"), ("scipy", "mjlab.special"), ("mjlab.special", None)]
    assert [cum for _, _, cum, _ in times] == pytest.approx([1e-4, 3e-4, 3.5e-4])


def test_suite_checks_are_counted():
    raw = traced(lambda: verify.run_suite("weil", two_m_list=(2,)))
    values = tracer.layer_metrics([raw])
    assert values["verify.checks"] == 6
    assert values["verify.weil_s"] > 0
