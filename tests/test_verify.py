"""The verification suite registry and its result records."""

import math

import numpy as np
import pytest

from mjlab.core import FunctionHandle
from mjlab.errors import DomainError
from mjlab.verify import (
    GENERIC_POINTS,
    SUITES,
    SuiteResult,
    run_suite,
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
