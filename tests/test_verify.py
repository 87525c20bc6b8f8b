"""The verification suite registry and its result records."""

import cmath
import gc
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from mjlab import cli, group
from mjlab.catalog import build
from mjlab.core import EvalPoint, FunctionHandle, JetVars, WeightIndex, exp_qn_zeta_r
from mjlab.errors import DomainError
from mjlab.group import GEN_S, GEN_T, TaggedForm, apply_slash
from mjlab.kernels import kernel_term_handle, xi_image_rows
from mjlab.mu import mu_hat_ml_handle
from mjlab.operators import OperatorSpec, apply_operator, apply_to_tagged
from mjlab.special import theta_ml_handle, theta_ml_jet
from mjlab.verify import (
    COVARIANCE_OPS,
    GENERATORS,
    GENERIC_POINTS,
    GENERIC_POINTS_10,
    KERNEL_PARAMS,
    SUITES,
    XI_TABLE_PARAMS,
    SuiteResult,
    COVARIANCE_FORMS,
    _params_tag,
    _tau_test_handle,
    _yv_test_handle,
    run_suite,
    suite_covariance,
    suite_factorizations,
    suite_kernels,
    suite_mu_transform,
    suite_mu_xi_theta,
    suite_xi_images,
    verify_covariance,
    verify_factorizations,
    verify_hyperbolic_xi_factorization,
    verify_kernel_annihilation,
    verify_semimeromorphic_casimir,
    verify_x_factorization,
    verify_xi_image_table,
)
from mjlab.weil import labels, root_of_unity


def test_registry_contains_all_suites():
    assert set(SUITES) == {
        "covariance",
        "kernels",
        "xi-images",
        "factorizations",
        "weil",
        "mu-transform",
        "mu-xi-theta",
        "decomposition-roundtrip",
        "hygiene",
    }


def test_unknown_suite_raises():
    with pytest.raises((DomainError, KeyError)):
        run_suite("no-such-suite")


def test_suite_result_pass_logic():
    good = SuiteResult("x", 1e-9, 1e-6)
    bad = SuiteResult("x", 1e-3, 1e-6)
    assert good.passed and not bad.passed
    d = good.as_dict()
    assert d["identity"] == "x"
    assert d["max_residual"] == 1e-9
    assert d["tol"] == 1e-6


def test_weil_suite_runs_and_passes():
    results = run_suite("weil", two_m_list=[2])
    assert results
    assert all(res.passed for res in results)


def test_factorizations_suite_passes():
    results = run_suite("factorizations")
    assert all(res.passed for res in results), [
        res.as_dict() for res in results if not res.passed
    ]


def test_decomposition_roundtrip_suite_passes():
    results = run_suite("decomposition-roundtrip", seed=1)
    assert all(res.passed for res in results)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_returns_only_suite_results(name):
    results = run_suite(name)
    assert results
    assert all(type(res) is SuiteResult for res in results)


# the rows of each suite at its defaults: perfbench's verify workload counts
# rows per second, so a suite that dropped or repeated rows would read as a
# change of speed
SUITE_ROWS = {
    "covariance": 120, "kernels": 128, "xi-images": 32, "factorizations": 23, "weil": 20,
    "mu-transform": 8, "mu-xi-theta": 7, "decomposition-roundtrip": 3, "hygiene": 20,
}


def test_every_suite_keeps_its_row_count():
    assert {name: len(run_suite(name)) for name in SUITES} == SUITE_ROWS


@pytest.mark.parametrize("nan_at", [None, 0.9])
def test_nan_residual_fails_the_check(nan_at):
    """A NaN residual at any point (None: at every point) is the result."""

    def je(jv):  # one row per point of the stack
        bad = (jv.y.value.real == nan_at) | (nan_at is None)
        return jv.y * np.where(bad, math.nan, 1.0)

    h = FunctionHandle(jet_fn=je, label="nan")
    result = verify_hyperbolic_xi_factorization(1.5, h, GENERIC_POINTS[:3])
    assert math.isnan(result.max_residual)
    assert not result.passed


# ----------------------------------------------------------------------
# covariance: phi and phi|A evaluated once per point stack and jet order


def unshared_covariance_rows(points):
    """(identity, max residual) of every covariance check in the suite's
    order, each built from fresh catalog, operator and slash handles and
    evaluated on its own."""
    rows = []
    for op_name in COVARIANCE_OPS:
        for gname, A in GENERATORS.items():
            forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
            kind = OperatorSpec(op_name, WeightIndex(1, 2)).input_kind()
            for phi in (f for f in forms if f.action_kind == kind):
                lhs = apply_operator(
                    OperatorSpec(op_name, phi.weight_index), apply_slash(phi, A).f
                )
                rhs = apply_slash(apply_to_tagged(op_name, phi), A).f
                jv = JetVars.at(points, 0)
                gap = lhs.jet_at(jv).value - rhs.jet_at(jv).value
                rows.append(
                    ("covariance:%s|%s on %s" % (op_name, gname, phi.f.label),
                     float(np.max(np.abs(gap))))
                )
    return rows


def test_covariance_suite_equals_its_checks_built_unshared():
    got = [(res.identity, res.max_residual) for res in suite_covariance()]
    assert got == unshared_covariance_rows(GENERIC_POINTS[:3])


def test_covariance_cli_filter_prints_the_rows_of_the_full_suite(capsys):
    try:
        code = cli.main(["verify", "covariance", "--op", "xi", "--gen", "lambda"])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, None)
    report = json.loads(capsys.readouterr().out)
    want = [
        res.as_dict() for res in suite_covariance()
        if res.identity.startswith("covariance:xi|lambda on ")
    ]
    assert len(want) == 3
    assert report["checks"] == want


def test_two_covariance_suites_agree():
    first, second = suite_covariance(), suite_covariance()
    assert [res.as_dict() for res in first] == [res.as_dict() for res in second]


def test_covariance_builds_each_coordinate_jet_and_frame_once(monkeypatch):
    """One computation per suite call: the coordinate jets of each base
    (the points, or their image under a generator) and order are built
    once, and so is the slash frame of each generator, index and order."""
    builds, frames = [], []
    plain, frame = JetVars._plain, group._frame

    def counted_plain(base, order):
        builds.append((np.asarray(base).tobytes(), order))
        return plain(base, order)

    def counted_frame(A, m, jv, held):
        frames.append((A, m, jv.order, jv.plain))
        return frame(A, m, jv, held)

    monkeypatch.setattr(JetVars, "_plain", staticmethod(counted_plain))
    monkeypatch.setattr(group, "_frame", counted_frame)
    suite_covariance()
    assert len(builds) == len(set(builds)) == 15
    assert len(frames) == len(set(frames)) == 24
    assert all(on_plain for *_, on_plain in frames)


def test_weil_builds_one_slash_frame_per_generator_and_rank(monkeypatch):
    """The theta vector of each even rank and all its slashes are one
    computation at the point: one frame per word and index."""
    frames, frame = [], group._frame

    def counted_frame(A, m, jv, held):
        frames.append((A, m, jv.order, jv.plain))
        return frame(A, m, jv, held)

    monkeypatch.setattr(group, "_frame", counted_frame)
    run_suite("weil")
    assert len(frames) == len(set(frames)) == 4
    assert {(A, m) for A, m, *_ in frames} == {(A, m) for A in (GEN_T, GEN_S) for m in (1, 2)}


def test_suite_memos_are_freed_by_reference_counting():
    """Nothing a memo holds refers back to it, so a suite's computation is
    freed when the suite returns, with the cyclic collector off."""
    suites = (suite_covariance, suite_kernels)
    for suite in suites:  # fill the module-level caches of the jet tables
        suite()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for suite in suites:
            suite()
            assert tracemalloc.get_traced_memory()[0] - start < 0.1 * 2**20, suite.__name__
    finally:
        tracemalloc.stop()
        gc.enable()


# ----------------------------------------------------------------------
# row stacks: each suite row is its identity evaluated alone


def alone(value):
    """The max residual of one identity's values at a point stack."""
    return float(np.max(np.abs(value)))


def rows_of(results):
    return [(res.identity, res.max_residual, res.tol) for res in results]


def jittered(points, seed, by=0.02):
    """The points with every coordinate moved by a seeded amount of at most
    `by`."""
    rng = random.Random(seed)
    return tuple(EvalPoint(*(c + rng.uniform(-by, by) for c in (p.x, p.y, p.u, p.v)))
                 for p in points)


# the shipped points and three jittered copies (seeds 1-3)
POINT_SETS = (GENERIC_POINTS,) + tuple(jittered(GENERIC_POINTS, seed) for seed in (1, 2, 3))


def test_kernels_suite_rows_equal_their_identities_alone():
    """Each family is evaluated once and truncated, and each image stacks
    the terms of both parameter sets of a weight/index."""
    for points in POINT_SETS:
        jv = JetVars.at(points, 0)
        want = []
        for params in KERNEL_PARAMS:
            wi = params.weight_index()
            for skew in (False, True):
                for i in (1, 2, 3, 4):
                    f = kernel_term_handle(i, params, skew=skew)
                    tag = "c%d%s" % (i, "sk" if skew else "")
                    for name, op_name in (("Casimir", "CasimirSk" if skew else "Casimir"),
                                          ("LaplaceH", "LaplaceH")):
                        value = apply_operator(OperatorSpec(op_name, wi), f).jet_at(jv).value
                        want.append(("kernel-annihilation:%s(%s)@%s"
                                     % (name, tag, _params_tag(params)), alone(value), 1e-7))
        assert rows_of(suite_kernels(points=points)) == want
        assert rows_of(verify_kernel_annihilation([KERNEL_PARAMS[1]], points)) == want[16:32]


def test_xi_images_suite_rows_equal_their_identities_alone():
    for points in POINT_SETS:
        jv = JetVars.at(points, 0)
        want = []
        for params in XI_TABLE_PARAMS:
            wi = params.weight_index()
            for case, op_name, (i, skew), const, target in xi_image_rows(params):
                f = kernel_term_handle(i, params, skew=skew)
                value = apply_operator(OperatorSpec(op_name, wi), f).jet_at(jv).value
                if target is not None:
                    ti, tskew, tparams = target
                    value = value - const * kernel_term_handle(
                        ti, tparams, skew=tskew).jet_at(jv).value
                want.append(("xi-image:%s@%s" % (case, _params_tag(params)), alone(value), 1e-7))
        assert rows_of(suite_xi_images(points=points)) == want
        assert rows_of(verify_xi_image_table([XI_TABLE_PARAMS[1]], points)) == want[16:]


def test_verify_covariance_is_the_one_row_case_of_the_suite():
    full = {res.identity: res.as_dict() for res in suite_covariance()}
    points = GENERIC_POINTS[:3]
    for op_name in COVARIANCE_OPS:
        kind = OperatorSpec(op_name, WeightIndex(1, 2)).input_kind()
        forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
        for gname, A in GENERATORS.items():
            for phi in (f for f in forms if f.action_kind == kind):
                [res] = verify_covariance([op_name], [phi], {gname: A}, points)
                assert res.as_dict() == full[res.identity]


@pytest.mark.parametrize(
    "ops,gens",
    [(["X+"], ["S"]), (["xiSk"], ["T"]), (["Y-", "Xsk+"], None), (None, ["mu", "lambda"])],
)
def test_covariance_subsets_are_rows_of_the_full_suite_in_its_order(ops, gens):
    got = [res.as_dict() for res in suite_covariance(ops=ops, gens=gens)]
    want = [
        res.as_dict() for op_name in ops or COVARIANCE_OPS
        for gname in gens or GENERATORS
        for res in suite_covariance(ops=[op_name])
        if res.identity.startswith("covariance:%s|%s on " % (op_name, gname))
    ]
    assert got and got == want


def test_mu_xi_theta_rows_equal_their_identities_alone():
    want = []
    for two_m in (1, 2):
        wi = WeightIndex(1, -two_m)
        for l in labels(two_m):
            f = mu_hat_ml_handle(two_m, l)
            jv = JetVars.at(GENERIC_POINTS_10, 0)
            xi = apply_operator(OperatorSpec("xiH", wi), f).jet_at(jv).value
            theta = theta_ml_jet(two_m, l, jv.tau, jv.z).value
            lap = apply_operator(OperatorSpec("LaplaceH", wi), f)
            want.append(alone(xi - theta))
            want.append(alone(lap.jet_at(JetVars.at(GENERIC_POINTS, 0)).value))
    assert [res.max_residual for res in suite_mu_xi_theta()[:-1]] == want


def test_mu_transform_rows_equal_their_laws_per_component():
    """Criterion 5's S-law rows included: each component slashed alone."""
    jv = JetVars.at(GENERIC_POINTS, 0)
    want = []
    for two_m in (1, 2):
        ls = labels(two_m)
        tagged = {l: TaggedForm(mu_hat_ml_handle(two_m, l), WeightIndex(1, -two_m)) for l in ls}
        values = {l: phi.f.jet_at(jv).value for l, phi in tagged.items()}
        for l in ls:
            slashed_T = apply_slash(tagged[l], GEN_T).f.jet_at(jv).value
            slashed_S = apply_slash(tagged[l], GEN_S).f.jet_at(jv).value
            mixed = sum(root_of_unity(l * lp, two_m) * values[lp] for lp in ls)
            want.append(alone(slashed_T - root_of_unity(-l * l, 2 * two_m) * values[l]))
            want.append(alone(slashed_S - 1j / cmath.sqrt(1j * two_m) * mixed))
    got = [res.max_residual for res in suite_mu_transform() if "vector" not in res.identity]
    assert got == want


@pytest.mark.parametrize("two_m_list", [(1,), (2,), (1, 2)])
def test_mu_transform_vector_rows_follow_the_ranks(two_m_list):
    """One vector-S-law row per rank, after that rank's law rows: the
    components slashed alone at the first point against the S matrix,
    naming that point."""
    p = GENERIC_POINTS[0]
    rows = suite_mu_transform(two_m_list=two_m_list)
    vector = [res for res in rows if "vector" in res.identity]
    assert [res.identity for res in vector] == [
        "mu-transform:vector-S-law@2m=%d" % two_m for two_m in two_m_list]
    for two_m, res in zip(two_m_list, vector):
        ls = labels(two_m)
        comps = [TaggedForm(mu_hat_ml_handle(two_m, l), WeightIndex(1, -two_m)) for l in ls]
        slashed = np.array([apply_slash(phi, GEN_S).f.eval(p) for phi in comps])
        M = 1j / cmath.sqrt(1j * two_m) * np.array(
            [[root_of_unity(l * lp, two_m) for lp in ls] for l in ls])
        base = np.array([phi.f.eval(p) for phi in comps])
        assert res.max_residual == alone(slashed - M @ base)
        assert res.worst_point == [p.x, p.y, p.u, p.v]


def test_factorization_rows_equal_their_identities_alone():
    """The suite shares its probes' jets across checks on one computation;
    each verify_* call here has fresh probes and a computation of its own."""
    points = GENERIC_POINTS[:3]
    want = []
    for depth in (1, 2, 3):
        want += verify_factorizations(WeightIndex(1, 2), _yv_test_handle(1, 1), depth, points)
    want += verify_factorizations(WeightIndex(3, 1), theta_ml_handle(1, 0.5), 2, points)
    for depth in (1, 2):
        want.append(verify_x_factorization(2.5, _tau_test_handle(), depth, points))
    want.append(verify_hyperbolic_xi_factorization(1.5, _tau_test_handle(), points))
    for wi, n, r in ((WeightIndex(1, 2), 1, 1), (WeightIndex(3, 2), 0, 1)):
        for skew in (False, True):
            want.append(verify_semimeromorphic_casimir(wi, exp_qn_zeta_r(n, r), points,
                                                       skew=skew))
    assert [res.as_dict() for res in suite_factorizations()] == [res.as_dict() for res in want]
