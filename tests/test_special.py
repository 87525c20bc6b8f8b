"""Special functions against quadrature and closed-form oracles.

Every derived value is checked against an independent computation:
scipy quadrature and mpmath for gamma(1/2, x), E and the exponential
integrals, mpmath and closed forms for the half-integral H-kernel, and the
Jacobi triple product plus quasi-periodicity for the theta series.
"""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp

from mjlab.core import EvalPoint, JetVars, TruncationPolicy
from mjlab.errors import DomainError, HUndefined, TruncationOverflow, ValueOverflow
from mjlab.jets import Jet, d_z
from mjlab.mu import mu_m_jet
from mjlab.special import (
    H_derivatives,
    H_function,
    H_jet,
    error_completion_E,
    error_completion_derivatives,
    exp1,
    expi,
    gamma_half_cont,
    gamma_half_derivatives,
    jacobi_theta_jet,
    theta_ml_jet,
    zwegers_R_jet,
)

C = lambda w: Jet.constant(w, 0)


# ----------------------------------------------------------------------
# gamma(1/2, x) and the exponential integrals


@pytest.mark.parametrize("x", [-0.3, -1.7, -6.0])
def test_gamma_half_continuation_against_quadrature(x):
    # on the branch continued from the upper half plane,
    # gamma(1/2, x) = i * int_0^|x| s^(-1/2) e^s ds for x < 0;
    # substituting s = w^2 removes the endpoint singularity
    want, err = si.quad(lambda w: 2.0 * math.exp(w * w), 0.0, math.sqrt(-x))
    got = gamma_half_cont(x)
    assert abs(got.real) < 1e-12
    assert abs(got.imag - want) < 1e-10 * max(1.0, want)


def test_gamma_half_positive_axis_against_mpmath():
    """sqrt(pi) erf(sqrt(x)) is gamma(1/2, x) to 1e-14 relative on [0, 50]."""
    xs = [0.0, 1e-12, 1e-6, 1e-3] + [0.25 * i for i in range(1, 201)]
    for x in xs:
        want = complex(mpmath.gammainc(0.5, 0, x))
        assert abs(gamma_half_cont(x) - want) <= 1e-14 * abs(want), x
    # elementwise on arrays
    got = gamma_half_cont(np.array(xs).reshape(2, -1))
    assert got.shape == (2, len(xs) // 2)
    assert all(got.ravel()[i] == gamma_half_cont(x) for i, x in enumerate(xs))


def test_exponential_integrals_against_mpmath():
    """E1 to 1e-14 relative on (0, 700]; Ei to 1e-14 relative on (0, 700],
    absolute near its root x = 0.3725."""
    xs = [1e-12, 1e-6, 1e-3, 0.3725074107813666, 1.0, 2.0, 2.0000001, 36.04, 36.05, 40.0]
    xs += [0.05 * 1.03 ** i for i in range(323)]
    for x in xs:
        want = float(mpmath.e1(x))
        assert abs(exp1(x) - want) <= 1e-14 * want, x
        want = float(mpmath.ei(x))
        assert abs(expi(x) - want) <= 1e-14 * max(1.0, abs(want)), x
    with pytest.raises(OverflowError):
        expi(710.0)
    with pytest.raises(DomainError):
        exp1(0.0)
    with pytest.raises(DomainError):
        expi(-1.0)


@pytest.mark.parametrize("t0", [0.9, -1.1])
def test_gamma_half_derivatives_match_finite_differences(t0):
    ds = gamma_half_derivatives(t0, 2)
    h = 1e-4
    fd1 = (gamma_half_cont(t0 + h) - gamma_half_cont(t0 - h)) / (2.0 * h)
    fd2 = (
        gamma_half_cont(t0 + h) - 2.0 * gamma_half_cont(t0) + gamma_half_cont(t0 - h)
    ) / (h * h)
    assert abs(ds[1] - fd1) < 1e-6 * max(1.0, abs(fd1))
    assert abs(ds[2] - fd2) < 1e-4 * max(1.0, abs(fd2))


def test_gamma_half_jet_rejects_zero():
    with pytest.raises(DomainError):
        gamma_half_derivatives(0.0, 1)


# ----------------------------------------------------------------------
# the error completion E


@pytest.mark.parametrize("w", [0.4, 1.3, -0.8])
def test_error_completion_against_quadrature(w):
    want, err = si.quad(lambda t: 2.0 * math.exp(-math.pi * t * t), 0.0, w)
    assert abs(error_completion_E(w) - want) < 1e-12


def test_error_completion_is_odd_and_zero_at_origin():
    assert error_completion_E(0.0) == 0.0
    for w in (0.3, 2.1):
        assert abs(error_completion_E(-w) + error_completion_E(w)) < 1e-14


def test_error_completion_derivative_is_gaussian():
    w = 0.6
    ds = error_completion_derivatives(w, 2)
    assert abs(ds[1] - 2.0 * math.exp(-math.pi * w * w)) < 1e-14
    # second derivative: -2 pi w times the first
    assert abs(ds[2] + 2.0 * math.pi * w * ds[1]) < 1e-13


# ----------------------------------------------------------------------
# the H-kernel


@pytest.mark.parametrize("w", [0.3, -0.7, 1.2])
def test_H_closed_forms_low_weights(w):
    # exponent 1/2 - k = 0 gives e^w; exponent 1 gives (1 - 2w) e^w
    assert abs(H_function(w, 0.5) - math.exp(w)) < 1e-12
    assert abs(H_function(w, -0.5) - (1.0 - 2.0 * w) * math.exp(w)) < 1e-12


@pytest.mark.parametrize("w", [-0.6, -1.4])
def test_H_three_halves_against_quadrature(w):
    want, err = si.quad(lambda t: math.exp(-t) / t, -2.0 * w, math.inf, limit=200)
    assert abs(H_function(w, 1.5) - math.exp(-w) * want) < 1e-10


def test_H_recurrence_consistency():
    # integrating int t^(-2) e^(-t) by parts once relates k=5/2 to k=3/2
    w = -0.9
    x = -2.0 * w
    lhs = H_function(w, 2.5) * math.exp(w)
    rhs = (H_function(w, 1.5) * math.exp(w) - x ** -1.0 * math.exp(-x)) / -1.0
    assert abs(lhs - rhs) < 1e-11


def test_H_undefined_at_zero_and_integer_weight():
    with pytest.raises(HUndefined):
        H_function(0.0, 0.5)
    with pytest.raises(DomainError):
        H_function(0.5, 1.0)


def _H_oracle(w, k):
    """e^(-w) Gamma(3/2 - k, -2w) in mpmath, its real part (the principal
    value) where -2w < 0 and 3/2 - k <= 0."""
    with mpmath.workdps(40):
        w = mpmath.mpf(w)
        return mpmath.re(mpmath.exp(-w) * mpmath.gammainc(1.5 - k, -2 * w))


H_ARGS = [float(w) for w in np.geomspace(1e-3, 709.0, 120)] + [356.0, 360.0, 380.0, 400.0]


@pytest.mark.parametrize("k", [-0.5, 0.5, 1.5])
def test_H_against_mpmath_over_the_float_range(k):
    """1e-13 relative wherever |H| is a normal float, ValueOverflow exactly
    where |H| exceeds the floating-point range."""
    for w in H_ARGS + [-w for w in H_ARGS]:
        want = _H_oracle(w, k)
        if abs(want) > sys.float_info.max:
            with pytest.raises(ValueOverflow):
                H_function(w, k)
            continue
        want = float(want)
        got = H_function(w, k)
        assert abs(got - want) <= 1e-13 * max(abs(want), sys.float_info.min), (k, w)


def _H_jet_oracle(w, k, d):
    """The d-th derivative of H at w in mpmath."""
    with mpmath.workdps(40):
        f = lambda t: mpmath.re(mpmath.exp(-t) * mpmath.gammainc(1.5 - k, -2 * t))
        return float(mpmath.diff(f, mpmath.mpf(w), d))


@pytest.mark.parametrize("w", [700.0, 709.0, 710.0, 712.0, 716.0])
def test_H_jet_beyond_the_range_of_exp(w):
    """H and its derivatives are finite past w = 709.78, where e^w alone
    overflows; every order matches mpmath."""
    k = 1.5
    for order in (1, 2, 3):
        table = H_jet(Jet.variable(1, w, order), k).table()
        for d in range(order + 1):
            want = _H_jet_oracle(w, k, d)
            got = table[(0, d, 0, 0)]
            assert abs(got - want) <= 1e-13 * abs(want), (w, order, d)


def test_H_derivatives_match_finite_differences():
    w0, k = -0.8, 1.5
    hs = H_derivatives(w0, k, 2)
    h = 1e-5
    fd1 = (H_function(w0 + h, k) - H_function(w0 - h, k)) / (2.0 * h)
    assert abs(hs[1] - fd1) < 1e-6 * max(1.0, abs(fd1))


# ----------------------------------------------------------------------
# Jacobi theta


POINTS = [
    (0.13 + 1.1j, 0.21 + 0.17j),
    (-0.3 + 0.8j, 0.05 + 0.31j),
    (0.4 + 1.4j, -0.12 + 0.23j),
]


def triple_product(tau, z, terms=60):
    q = cmath.exp(2j * math.pi * tau)
    zeta = cmath.exp(2j * math.pi * z)
    out = q ** 0.125 * (zeta ** 0.5 - zeta ** -0.5)
    for n in range(1, terms):
        out *= (1 - q ** n) * (1 - q ** n * zeta) * (1 - q ** n / zeta)
    return out


@pytest.mark.parametrize("tau,z", POINTS)
def test_theta_triple_product(tau, z):
    got = jacobi_theta_jet(C(tau), C(z)).value
    want = -triple_product(tau, z)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("tau,z", POINTS)
def test_theta_quasi_periodicity(tau, z):
    th = jacobi_theta_jet(C(tau), C(z)).value
    q = cmath.exp(2j * math.pi * tau)
    zeta = cmath.exp(2j * math.pi * z)
    assert abs(jacobi_theta_jet(C(tau), C(z + 1)).value + th) < 1e-12 * abs(th)
    shifted = jacobi_theta_jet(C(tau), C(z + tau)).value
    assert abs(shifted + th / (q ** 0.5 * zeta)) < 1e-12 * abs(th)
    assert abs(jacobi_theta_jet(C(tau), C(-z)).value + th) < 1e-12 * abs(th)


def test_theta_derivative_at_origin_is_dedekind_eta_cubed():
    # theta'(0; tau) = -2 pi i eta(tau)^3
    for tau, _ in POINTS:
        jv = JetVars.at(EvalPoint.from_tau_z(tau), 1)
        dz0 = d_z(jacobi_theta_jet(jv.tau, jv.z)).value
        q = cmath.exp(2j * math.pi * tau)
        eta = q ** (1.0 / 24.0)
        for n in range(1, 80):
            eta *= 1 - q ** n
        want = -2j * math.pi * eta ** 3
        assert abs(dz0 - want) <= 1e-12 * abs(want)


def test_theta_truncation_overflow():
    policy = TruncationPolicy(max_radius=2)
    with pytest.raises(TruncationOverflow):
        jacobi_theta_jet(C(0.0 + 0.05j), C(0.0j), policy)


# ----------------------------------------------------------------------
# congruence theta components


def brute_theta_ml(two_m, l, tau, z, R=40):
    m = two_m / 2.0
    out = 0j
    t = 0
    total = 0j
    r = l - two_m * (R // two_m + 1)
    while r <= l + two_m * (R // two_m + 1):
        total += cmath.exp(
            2j * math.pi * (r * r / (4.0 * m)) * tau + 2j * math.pi * r * z
        )
        r += two_m
    return total


@pytest.mark.parametrize("two_m,l", [(1, 0.5), (2, 0), (2, 1), (3, 1.5), (4, 3)])
def test_theta_ml_against_direct_sum(two_m, l):
    for tau, z in POINTS:
        got = theta_ml_jet(two_m, l, C(tau), C(z)).value
        want = brute_theta_ml(two_m, l, tau, z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theta_ml_label_periodicity_and_elliptic_shift():
    two_m, l = 3, 0.5
    tau, z = POINTS[0]
    a = theta_ml_jet(two_m, l, C(tau), C(z)).value
    b = theta_ml_jet(two_m, l + two_m, C(tau), C(z)).value
    assert abs(a - b) < 1e-13 * abs(a)
    c = theta_ml_jet(two_m, l, C(tau), C(z + 1)).value
    phase = cmath.exp(2j * math.pi * l)
    assert abs(c - phase * a) < 1e-12 * abs(a)


def test_theta_ml_rejects_nonpositive_index():
    with pytest.raises(DomainError):
        theta_ml_jet(0, 0, C(1j), C(0j))


SERIES = {
    "theta": lambda tau, z: jacobi_theta_jet(tau, z),
    "theta_ml": lambda tau, z: theta_ml_jet(2, 1, tau, z),
    "R": lambda tau, z: zwegers_R_jet(tau, z),
    "Appell sum": lambda tau, z: mu_m_jet(1, tau, z, z + 0.1),
}


@pytest.mark.parametrize("name", sorted(SERIES))
@pytest.mark.parametrize("y", [-1.0, 0.0, float("nan")])
def test_series_reject_tau_off_the_upper_half_plane(name, y):
    z = C(0.2 + 0.1j)
    with pytest.raises(DomainError, match=r"requires Im\(tau\) > 0"):
        SERIES[name](C(complex(0.1, y)), z)
    # one bad point of a stack is enough
    stack = Jet.constant(np.array([0.1 + 1.1j, complex(0.1, y)]), 0)
    with pytest.raises(DomainError, match=r"requires Im\(tau\) > 0"):
        SERIES[name](stack, z)


# ----------------------------------------------------------------------
# the nonholomorphic R-series


def brute_R(tau, z, R=8):
    y = tau.imag
    total = 0j
    for k in range(-R, R):
        nu = k + 0.5
        w = (nu + z.imag / y) * math.sqrt(2.0 * y)
        amp = (1.0 if nu > 0 else -1.0) - float(sp.erf(math.sqrt(math.pi) * w))
        total += amp * (-1) ** k * cmath.exp(
            -1j * math.pi * nu * nu * tau - 2j * math.pi * nu * z
        )
    return total


@pytest.mark.parametrize("tau,z", POINTS)
def test_R_against_direct_sum(tau, z):
    got = zwegers_R_jet(C(tau), C(z)).value
    want = brute_R(tau, z)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("tau,z", POINTS)
def test_R_symmetries(tau, z):
    r = zwegers_R_jet(C(tau), C(z)).value
    assert abs(zwegers_R_jet(C(tau), C(z + 1)).value + r) < 1e-12 * abs(r)
    assert abs(zwegers_R_jet(C(tau), C(-z)).value - r) < 1e-12 * abs(r)


def test_R_truncation_invariance():
    tau, z = POINTS[0]
    a = zwegers_R_jet(C(tau), C(z), TruncationPolicy(tail_bound=1e-10)).value
    b = zwegers_R_jet(C(tau), C(z), TruncationPolicy(tail_bound=1e-15)).value
    assert abs(a - b) < 1e-9 * max(1.0, abs(b))
