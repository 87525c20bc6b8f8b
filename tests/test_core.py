"""Points, weights, truncation policy, and finite-difference jets."""

import math

import pytest

from mjlab.core import (
    EvalPoint,
    FunctionHandle,
    JetVars,
    TruncationPolicy,
    WeightIndex,
    exp_qn_zeta_r,
    finite_difference_jet,
    principal_sqrt,
)
from mjlab.errors import (
    DomainError,
    JetUnavailable,
    StencilOutOfDomain,
    ZeroArgument,
)


class TestEvalPoint:
    def test_tau_z_roundtrip(self):
        p = EvalPoint(0.3, 1.4, -0.2, 0.7)
        q = EvalPoint.from_tau_z(p.tau, p.z)
        assert p == q

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            EvalPoint(0.0, -1.0)
        with pytest.raises(DomainError):
            EvalPoint(0.0, 0.0)

    def test_q_zeta(self):
        p = EvalPoint(0.0, 1.0, 0.5, 0.0)
        assert abs(p.q - math.exp(-2.0 * math.pi)) < 1e-15
        assert abs(p.zeta + 1.0) < 1e-15


class TestWeightIndex:
    def test_of_half_integers(self):
        wi = WeightIndex.of(0.5, -1.5)
        assert (wi.two_k, wi.two_m) == (1, -3)
        assert wi.k == 0.5 and wi.m == -1.5

    def test_rejects_zero_index_and_noninteger_numerators(self):
        with pytest.raises(DomainError):
            WeightIndex(1, 0)
        with pytest.raises(DomainError):
            WeightIndex(1.5, 2)

    def test_shift_and_negate(self):
        wi = WeightIndex.of(0.5, 1.0)
        assert wi.shift_k(2).k == 1.5
        assert wi.negate_m().m == -1.0


class TestTruncationPolicy:
    def test_defaults(self):
        policy = TruncationPolicy()
        assert policy.tail_bound == 1e-14
        assert policy.max_radius == 64

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            TruncationPolicy(tail_bound=0.0)
        with pytest.raises(DomainError):
            TruncationPolicy(max_radius=0)


def test_principal_sqrt_branch():
    assert abs(principal_sqrt(-1.0) - 1j) < 1e-15
    assert abs(principal_sqrt(4.0) - 2.0) < 1e-15
    with pytest.raises(ZeroArgument):
        principal_sqrt(0.0)


def test_exp_qn_zeta_r_value():
    p = EvalPoint(0.13, 1.1, 0.21, 0.17)
    h = exp_qn_zeta_r(2, -1)
    assert abs(h.eval(p) - p.q ** 2 * p.zeta ** -1) < 1e-13


def test_finite_difference_matches_exact_jet():
    p = EvalPoint(0.13, 1.1, 0.21, 0.17)
    h = exp_qn_zeta_r(1, 2)
    jv = JetVars.at(p, 2)
    exact = h.jet_at(jv).table()
    plain = FunctionHandle(fn=h.eval)
    approx = plain.jet_at(jv).table()
    for mon, w in exact.items():
        assert abs(approx[mon] - w) <= 1e-6 * max(1.0, abs(w)), mon


def test_finite_difference_limits():
    h = exp_qn_zeta_r(0, 1)
    with pytest.raises(JetUnavailable):
        finite_difference_jet(h, EvalPoint(0.0, 1.0), 4)
    with pytest.raises(StencilOutOfDomain):
        finite_difference_jet(h, EvalPoint(0.0, 1e-6), 2)


def test_jetvars_extend_only_plain():
    p = EvalPoint(0.0, 1.0)
    jv = JetVars.at(p, 1)
    assert jv.extend(1).order == 2
    mixed = JetVars.from_complex(jv.tau, jv.taubar, jv.z, jv.zbar)
    with pytest.raises(JetUnavailable):
        mixed.extend(1)


def test_handle_jet_at_transformed_coordinates():
    # composing the finite-difference Taylor table through a coordinate
    # change must agree with the exact-jet path
    p = EvalPoint(0.13, 1.1, 0.21, 0.17)
    h = exp_qn_zeta_r(1, 1)
    jv = JetVars.at(p, 2)
    shifted = JetVars.from_complex(
        jv.tau * 0.5 + 0.1, jv.taubar * 0.5 + 0.1, jv.z + 0.2, jv.zbar + 0.2
    )
    exact = h.jet_at(shifted)
    plain = FunctionHandle(fn=h.eval)
    approx = plain.jet_at(shifted)
    assert abs(exact.value - approx.value) < 1e-7
    for var in range(4):
        a = exact.deriv(var).value
        b = approx.deriv(var).value
        assert abs(a - b) <= 1e-5 * max(1.0, abs(a))
