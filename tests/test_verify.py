"""The verification suite registry and its result records."""

import cmath
import json
import math
import random

import numpy as np
import pytest

from mjlab import cli
from mjlab.catalog import build
from mjlab.core import EvalPoint, FunctionHandle, JetVars, WeightIndex
from mjlab.errors import DomainError
from mjlab.group import GEN_S, GEN_T, TaggedForm, apply_slash
from mjlab.kernels import kernel_term_handle, xi_image_rows
from mjlab.mu import mu_hat_ml_handle
from mjlab.operators import OperatorSpec, apply_operator, apply_to_tagged
from mjlab.special import theta_ml_jet
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
    _memoized,
    _params_tag,
    run_suite,
    suite_covariance,
    suite_kernels,
    suite_mu_transform,
    suite_mu_xi_theta,
    suite_xi_images,
    verify_covariance,
    verify_hyperbolic_xi_factorization,
    verify_kernel_annihilation,
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


def counting_form():
    """A tagged form whose handle counts its evaluations."""
    calls = []

    def je(jv):
        calls.append(jv.order)
        return jv.tau * jv.z

    phi = TaggedForm(FunctionHandle(jet_fn=je, label="tau z"), WeightIndex(1, 2))
    return phi, calls


def test_memo_serves_a_repeated_plain_evaluation():
    phi, calls = counting_form()
    memo = _memoized(phi)
    assert memo.f.label == phi.f.label and memo.weight_index == phi.weight_index
    stack = GENERIC_POINTS[:3]
    first = memo.f.jet_at(JetVars.at(stack, 2))
    again = memo.f.jet_at(JetVars.at(stack, 2))
    assert again is first and len(calls) == 1


def test_memo_misses_on_another_stack_or_order():
    phi, calls = counting_form()
    memo = _memoized(phi)
    stack = GENERIC_POINTS[:3]
    moved = stack[:2] + (EvalPoint(0.31, 1.6, -0.12, 0.24),)
    for jv in (
        JetVars.at(stack, 1),
        JetVars.at(stack, 2),
        JetVars.at(moved, 1),
        JetVars.at(stack[:1], 1),  # a stack of one point
        JetVars.at(stack[0], 1),  # the point itself
    ):
        want = phi.f.jet_at(jv)
        assert np.array_equal(memo.f.jet_at(jv).c, want.c)
    assert len(calls) == 2 * 5


def test_memo_never_serves_transformed_coordinates():
    phi, calls = counting_form()
    memo = _memoized(phi)
    plain = JetVars.at(GENERIC_POINTS[:3], 1)
    moved = JetVars.from_complex(plain.tau * 2.0, plain.taubar * 2.0, plain.z, plain.zbar)
    assert not moved.plain
    memo.f.jet_at(plain)
    out = [memo.f.jet_at(moved) for _ in range(2)]
    assert len(calls) == 3
    assert out[0] is not out[1]
    assert np.array_equal(out[1].c, phi.f.jet_at(moved).c)


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
        assert rows_of(verify_kernel_annihilation(KERNEL_PARAMS[1], points)) == want[16:32]


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
        assert rows_of(verify_xi_image_table(XI_TABLE_PARAMS[1], points)) == want[16:]


def test_verify_covariance_is_the_one_row_case_of_the_suite():
    full = {res.identity: res.as_dict() for res in suite_covariance()}
    points = GENERIC_POINTS[:3]
    for op_name in COVARIANCE_OPS:
        kind = OperatorSpec(op_name, WeightIndex(1, 2)).input_kind()
        forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
        for gname, A in GENERATORS.items():
            for phi in (f for f in forms if f.action_kind == kind):
                res = verify_covariance(op_name, phi, A, points)
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
    assert [res.max_residual for res in suite_mu_transform()[:-1]] == want
