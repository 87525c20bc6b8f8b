"""The verification suite registry and its result records."""

import json
import math

import numpy as np
import pytest

from mjlab import cli
from mjlab.core import EvalPoint, FunctionHandle, JetVars, WeightIndex
from mjlab.errors import DomainError
from mjlab.group import TaggedForm, apply_slash
from mjlab.operators import OperatorSpec, apply_operator, apply_to_tagged
from mjlab.verify import (
    COVARIANCE_OPS,
    GENERATORS,
    GENERIC_POINTS,
    SUITES,
    SuiteResult,
    _memoized,
    covariance_catalog,
    run_suite,
    suite_covariance,
    verify_hyperbolic_xi_factorization,
)


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
            std, skew = covariance_catalog()
            kind = OperatorSpec(op_name, WeightIndex(1, 2)).input_kind()
            for phi in std if kind == "standard" else skew:
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
