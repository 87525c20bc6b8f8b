"""Special functions against quadrature and closed-form oracles.

Every derived value is checked against an independent computation:
scipy quadrature and mpmath for the Gaussian integral F_c (erf), the
Dawson factor D = e^(-b^2) F_-1 (erfi and gamma(1/2, x)), E and the
exponential integrals, mpmath and closed forms for the half-integral
H-kernel and its factor G = e^(-w) H, and the Jacobi triple product plus
quasi-periodicity for the theta series.
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
from mjlab.mu import (
    mu_hat_2_jet,
    mu_hat_component_jet,
    mu_m_jet,
    mu_two_variable_jet,
    r_hat_component_jet,
)
from mjlab.special import (
    G_jet,
    H_function,
    _exp1,
    _expi,
    dawson_jet,
    error_completion_E,
    gaussian_integral_derivatives,
    gaussian_integral_jet,
    jacobi_theta_jet,
    theta_ml_jet,
    zwegers_R_jet,
)

C = lambda w: Jet.constant(w, 0)


# ----------------------------------------------------------------------
# the Gaussian integral F_c and the exponential integrals


def F_jet(c, b):
    """F_c of a real jet b as the library forms it: `gaussian_integral_jet`
    for c > 0; for c < 0, as in the kernel terms, e^(|c| b^2) times the
    Dawson factor D(sqrt|c| b) / sqrt|c|, with D = e^(-b^2) F_-1."""
    if c > 0:
        return gaussian_integral_jet(c, b)
    root = math.sqrt(-c)
    return (-c * b * b).exp() * dawson_jet(root * b) * (1.0 / root)


def F(c, b):
    return F_jet(c, C(b)).value.real


def D(b):
    """The Dawson factor at a float b, or at each entry of an array b."""
    return dawson_jet(C(b)).value.real


def gamma_half(x):
    """gamma(1/2, x) through the Gaussian integral: F_1(sqrt(x)) for x >= 0,
    i e^(-x) D(sqrt(-x)) = i F_-1(sqrt(-x)) on the branch continued from the
    upper half plane."""
    return F(1.0, math.sqrt(x)) if x >= 0 else 1j * math.exp(-x) * D(math.sqrt(-x))


def test_gaussian_integral_against_mpmath_erf_and_erfi():
    """F_1 = sqrt(pi) erf to 1e-15, odd; F_pi = erf(sqrt(pi) .) is E; the
    Dawson factor D = e^(-b^2) sqrt(pi) erfi to 1e-13 relative, odd, from
    b = 0 to b^2 = 8100, far past b^2 = 709 where e^(b^2) overflows."""
    bs = [0.0, 1e-9, 1e-3, 0.3, 1.0, 2.5, 4.0, 6.0]
    with mpmath.workdps(30):
        sqrt_pi = mpmath.sqrt(mpmath.pi)
        for b in bs + [27.0] + [-b for b in bs]:
            want = float(sqrt_pi * mpmath.erf(b))
            assert abs(F(1.0, b) - want) <= 1e-15 * abs(want), b
            assert error_completion_E(b) == F(math.pi, b)
        squares = [0.25 * i for i in range(1, 400)] + list(range(100, 500, 7))
        squares += [500.0 + 0.5 * i for i in range(419)] + list(range(710, 8101, 97))
        for b2 in squares:
            for b in (math.sqrt(b2), -math.sqrt(b2)):
                want = float(sqrt_pi * mpmath.exp(-mpmath.mpf(b) ** 2) * mpmath.erfi(b))
                assert abs(D(b) - want) <= 1e-13 * abs(want), b2
    # elementwise on arrays
    b = np.array(bs[:6]).reshape(2, 3)
    got = D(b)
    assert got.shape == (2, 3)
    assert all(got.ravel()[i] == D(x) for i, x in enumerate(bs[:6]))


def test_dawson_factor_is_bounded_where_erfi_overflows():
    """|D| <= 1.09 everywhere, D(b) b -> 1 for large b, where F_-1 =
    e^(b^2) D is far beyond the floating-point range; e^(b^2) overflows as
    a jet exponential, with ValueOverflow."""
    for b in [0.1 * i for i in range(1, 300)] + [30.0, 90.0, 1e3, 1e8, 1e150]:
        assert 0.0 < D(b) <= 1.09 and D(-b) == -D(b), b
    assert abs(D(1e3) * 1e3 - 1.0) < 1e-6 and D(1e8) * 1e8 == 1.0
    assert math.isfinite(F(-1.0, math.sqrt(709.0)))
    with pytest.raises(ValueOverflow):
        F(-1.0, math.sqrt(712.0))


@pytest.mark.parametrize("c", [math.pi, 1.0, -1.0, -0.3])
def test_gaussian_integral_derivatives_against_mpmath(c):
    # F^(j) is the (j-1)-th derivative of the integrand 2 e^(-c b^2); for
    # c < 0, F_c is formed as e^(|c| b^2) D(sqrt|c| b) / sqrt|c|
    for b0 in (0.0, 0.7, -1.9, 3.1):
        jet = F_jet(c, Jet.variable(0, b0, 5))
        ds = [jet.partial((j, 0, 0, 0)).real for j in range(6)]
        for j, d in enumerate(ds[1:]):
            want = float(mpmath.diff(lambda b: 2 * mpmath.exp(-c * b * b), b0, j))
            assert abs(d - want) <= 1e-13 * max(1.0, abs(want)), (b0, j)


@pytest.mark.parametrize("c", [math.pi, 1.0])
def test_gaussian_integral_derivatives_at_zero(c):
    # F is odd with F' = 2 e^(-c b^2): the jet at 0 exists at every order
    assert gaussian_integral_derivatives(c, 0.0, 5) == [0.0, 2.0, 0.0, -4.0 * c, 0.0,
                                                        24.0 * c * c]


def test_dawson_factor_vanishes_with_its_even_derivatives_at_zero():
    # D is odd with D' = 2 - 2bD: at b = 0 the derivatives are 0, 2, 0, -8, 0, 64
    table = dawson_jet(Jet.variable(0, 0.0, 5)).table()
    assert [table[(j, 0, 0, 0)] for j in range(6)] == [0.0, 2.0, 0.0, -8.0, 0.0, 64.0]


def _scaled_erfi_derivatives(b, n):
    """e^(-b^2) F_-1^(i)(b) for i = 0..n in mpmath at 40 digits: sqrt(pi)
    e^(-b^2) erfi(b), then 2 p_(i-1)(b) with p_0 = 1, p_(i+1) = p_i' + 2b p_i
    (F_-1' = 2 e^(b^2))."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        out = [mpmath.sqrt(mpmath.pi) * mpmath.exp(-b * b) * mpmath.erfi(b)]
        p = [mpmath.mpf(1)]  # coefficients of p_i in powers of b
        for _ in range(n):
            out.append(2 * mpmath.polyval(p[::-1], b))
            p = [2 * (p[i - 1] if i else 0) + ((i + 1) * p[i + 1] if i + 1 < len(p) else 0)
                 for i in range(len(p) + 1)]
        return [float(d) for d in out]


def test_dawson_jet_against_mpmath():
    """The jet of e^(b^2 - b0^2) D(b), the c_3/c_4 factor of a kernel term
    for m > 0 with e^(b0^2) taken out, at orders 0-4 for b0 in [0, 90]: its
    Taylor coefficients match e^(-b0^2) F_-1 to 1e-13 of the largest."""
    for b0 in [0.0, 1e-3, 0.5, 0.924, 2.0, 6.3, 6.33, 10.0, 26.6, 40.0, 90.0]:
        for sign in (1.0, -1.0):
            b = Jet.variable(0, sign * b0, 4)
            table = ((b * b - b0 * b0).exp() * dawson_jet(b)).table()
            got = [table[(j, 0, 0, 0)].real / math.factorial(j) for j in range(5)]
            want = [d / math.factorial(j)
                    for j, d in enumerate(_scaled_erfi_derivatives(sign * b0, 4))]
            scale = max(abs(t) for t in want)
            assert max(abs(g - t) for g, t in zip(got, want)) <= 1e-13 * scale, sign * b0


@pytest.mark.parametrize("x", [-0.3, -1.7, -6.0])
def test_gamma_half_continuation_against_quadrature(x):
    # on the branch continued from the upper half plane,
    # gamma(1/2, x) = i * int_0^|x| s^(-1/2) e^s ds for x < 0;
    # substituting s = w^2 removes the endpoint singularity
    want, err = si.quad(lambda w: 2.0 * math.exp(w * w), 0.0, math.sqrt(-x))
    got = gamma_half(x)
    assert abs(got.real) < 1e-12
    assert abs(got.imag - want) < 1e-10 * max(1.0, want)


def test_gamma_half_positive_axis_against_mpmath():
    """F_1(sqrt(x)) is gamma(1/2, x) to 1e-14 relative on [0, 50], and
    i e^(-x) D(sqrt(-x)) is its continuation down to x = -709."""
    xs = [0.0, 1e-12, 1e-6, 1e-3] + [0.25 * i for i in range(1, 201)]
    for x in xs:
        want = complex(mpmath.gammainc(0.5, 0, x))
        assert abs(gamma_half(x) - want) <= 1e-14 * abs(want), x
    with mpmath.workdps(30):
        for x in [-1e-6, -0.5, -3.0, -40.0, -300.0, -550.0, -628.0, -700.0, -709.0]:
            # mpmath continues gamma(1/2, x) from the upper half plane
            want = complex(mpmath.gammainc(0.5, 0, mpmath.mpc(x, 1e-40)))
            # sqrt(-x) rounds to eps/2 relative, and D near b amplifies
            # a relative error of b by about 2 b^2 = 2|x|
            assert abs(gamma_half(x) - want) <= (1e-13 - x * 2.0 ** -53) * abs(want), x


def test_exponential_integrals_against_mpmath():
    """E1 to 1e-14 relative on (0, 700]; Ei to 1e-14 relative on (0, 700],
    absolute near its root x = 0.3725."""
    xs = [1e-12, 1e-6, 1e-3, 0.3725074107813666, 1.0, 2.0, 2.0000001, 36.04, 36.05, 40.0]
    xs += [0.05 * 1.03 ** i for i in range(323)]
    for x in xs:
        want = float(mpmath.e1(x))
        assert abs(_exp1(x) - want) <= 1e-14 * want, x
        want = float(mpmath.ei(x))
        assert abs(_expi(x) - want) <= 1e-14 * max(1.0, abs(want)), x
    with pytest.raises(OverflowError):
        _expi(710.0)
    with pytest.raises(DomainError):
        _exp1(0.0)
    with pytest.raises(DomainError):
        _expi(-1.0)


@pytest.mark.parametrize("t0", [0.9, -1.1])
def test_gamma_half_derivatives_match_finite_differences(t0):
    # gamma(1/2, t) as the Gaussian integral of the jet sqrt(+-t)
    sign = 1.0 if t0 > 0 else -1.0
    b = (sign * Jet.variable(0, t0, 2)).cpow(0.5)
    jet = F_jet(sign, b) * (1.0 if t0 > 0 else 1j)
    ds = [jet.partial((j, 0, 0, 0)) for j in range(3)]
    h = 1e-4
    fd1 = (gamma_half(t0 + h) - gamma_half(t0 - h)) / (2.0 * h)
    fd2 = (gamma_half(t0 + h) - 2.0 * gamma_half(t0) + gamma_half(t0 - h)) / (h * h)
    assert abs(ds[0] - gamma_half(t0)) < 1e-15 * abs(ds[0])
    assert abs(ds[1] - fd1) < 1e-6 * max(1.0, abs(fd1))
    assert abs(ds[2] - fd2) < 1e-4 * max(1.0, abs(fd2))


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
    ds = gaussian_integral_derivatives(math.pi, w, 2)
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
    # at w = 0 the integral of t^(1/2-k) e^(-t) diverges for k >= 3/2 only
    for k in (1.5, 2.5):
        with pytest.raises(HUndefined):
            H_function(0.0, k)
    with pytest.raises(DomainError):
        H_function(0.5, 1.0)


def _H_oracle(w, k):
    """e^(-w) Gamma(3/2 - k, -2w) in mpmath, its real part (the principal
    value) where -2w < 0 and 3/2 - k <= 0."""
    with mpmath.workdps(40):
        w = mpmath.mpf(w)
        return mpmath.re(mpmath.exp(-w) * mpmath.gammainc(1.5 - k, -2 * w))


@pytest.mark.parametrize("k", [0.5, -0.5, -1.5])
def test_H_at_zero_against_mpmath(k):
    """For k <= 1/2, H is entire: H(0) = Gamma(3/2 - k) = (1/2 - k)!."""
    assert H_function(0.0, k) == float(_H_oracle(0.0, k)) == math.factorial(int(0.5 - k))


H_ARGS = [float(w) for w in np.geomspace(1e-3, 709.0, 120)] + [356.0, 360.0, 380.0, 400.0]


@pytest.mark.parametrize("k", [-0.5, 0.5, 1.5, 2.5, 3.5])
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


@pytest.mark.parametrize("k,w", [(3.5, 3e-299), (3.5, -3e-299), (2.5, 5e-324), (2.5, 0.0)])
def test_G_near_w_0_for_k_at_least_5_2_is_a_value_overflow(k, w):
    """G_j(w) for j = 1/2 - k <= -2 diverges like 1 / w^(-j-1) at w = 0:
    beyond the float range (and at w = 0 itself) it is a ValueOverflow,
    not the OverflowError or ZeroDivisionError of a float power."""
    with pytest.raises(ValueOverflow, match="exceeds the floating-point range"):
        G_jet(Jet.constant(w, 0), k)


def _G_oracle(w, k, n):
    """G, G', ..., G^(n) at w in mpmath at 40 digits: G = e^(-w) H, then
    G^(i+1) = -2 G^(i) + 2 d^i/dw^i (-2w)^j with j = 1/2 - k."""
    j = int(0.5 - k)
    with mpmath.workdps(40):
        w = mpmath.mpf(w)
        gs = [mpmath.re(mpmath.exp(-2 * w) * mpmath.gammainc(1.5 - k, -2 * w))]
        fall = mpmath.mpf(1)
        for i in range(n):
            gs.append(-2 * gs[i] + 2 * fall * (-2) ** i * (-2 * w) ** (j - i))
            fall *= j - i
        return [float(g) for g in gs]


def _G_taylor(w, k, order):
    table = G_jet(Jet.variable(1, w, order), k).table()
    return [table[(0, d, 0, 0)].real / math.factorial(d) for d in range(order + 1)]


G_ARGS = [float(w) for w in np.geomspace(1e-3, 709.0, 40)] + [0.3725, 1.0, 20.0, 20.5]


@pytest.mark.parametrize("k", [-0.5, 0.5, 1.5, 2.5, 3.5])
def test_G_jet_against_mpmath(k):
    """The Taylor coefficients of G = e^(-w) H at orders 0-4 for w in
    +-[1e-3, 709], to 1e-13 of the jet's largest coefficient."""
    for w in G_ARGS + [-w for w in G_ARGS]:
        got = _G_taylor(w, k, 4)
        want = [g / math.factorial(d) for d, g in enumerate(_G_oracle(w, k, 4))]
        scale = max(abs(t) for t in want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * scale, (k, w)


@pytest.mark.parametrize("w", [700.0, 709.0, 710.0, 712.0, 716.0])
def test_G_jet_beyond_the_range_of_exp(w):
    """G and its derivatives are finite past w = 709.78, where e^w alone
    overflows (the factor H(-w') e^(w') of c_2^sk at w' = -w); every order
    matches mpmath's numerical derivatives to 1e-13 of the largest Taylor
    coefficient (G' = 2 (-2w)^j - 2G cancels to 1e-3 of G here)."""
    k = 1.5
    with mpmath.workdps(40):
        f = lambda t: mpmath.re(mpmath.exp(-2 * t) * mpmath.gammainc(1.5 - k, -2 * t))
        want = [float(mpmath.diff(f, mpmath.mpf(w), d)) / math.factorial(d) for d in range(4)]
    for order in (1, 2, 3):
        got = _G_taylor(w, k, order)
        assert all(math.isfinite(g) for g in got)
        for d in range(order + 1):
            assert abs(got[d] - want[d]) <= 1e-13 * abs(want[0]), (w, order, d)


def test_G_derivatives_match_finite_differences():
    w0, k = -0.8, 1.5
    gs = _G_taylor(w0, k, 2)
    G = lambda w: _G_taylor(w, k, 0)[0]
    h = 1e-5
    fd1 = (G(w0 + h) - G(w0 - h)) / (2.0 * h)
    assert abs(gs[0] - H_function(w0, k) * math.exp(-w0)) < 1e-15
    assert abs(gs[1] - fd1) < 1e-6 * max(1.0, abs(fd1))


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


# every series with argument values (tau first) at which it is finite
SERIES_AT = {
    "theta": (jacobi_theta_jet, (0.1 + 1.1j, 0.2 + 0.1j)),
    "theta_ml": (lambda tau, z: theta_ml_jet(2, 1, tau, z), (0.1 + 1.1j, 0.2 + 0.1j)),
    "R": (zwegers_R_jet, (0.1 + 1.1j, 0.2 + 0.1j)),
    "mu_m": (lambda tau, z1, z2: mu_m_jet(2, tau, z1, z2),
             (0.1 + 1.1j, 0.31 + 0.55j, 0.17 - 0.23j)),
    "mu_hat_component": (lambda tau, z: mu_hat_component_jet(2, 0.0, tau, z),
                         (0.1 + 1.1j, 0.2 + 0.1j)),
    "r_hat_component": (lambda tau, z: r_hat_component_jet(2, 0.0, tau, z),
                        (0.1 + 1.1j, 0.2 + 0.1j)),
    "mu_two_variable": (mu_two_variable_jet, (0.1 + 1.1j, 0.31 + 0.55j, 0.17 - 0.23j)),
    "mu_hat_2": (mu_hat_2_jet, (0.1 + 1.1j, 0.2 + 0.1j)),
}


@pytest.mark.parametrize("name", sorted(SERIES_AT))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_reject_a_non_finite_argument(name, bad):
    fn, args = SERIES_AT[name]
    assert np.isfinite(fn(*map(C, args)).value)
    for i, arg in enumerate(args):
        for off in (complex(bad, arg.imag), complex(arg.real, bad)):
            if i == 0 and off.imag != arg.imag:
                continue  # a non-finite Im(tau) is not Im(tau) > 0
            at = list(args)
            at[i] = off
            with pytest.raises(DomainError, match="must be finite"):
                fn(*map(C, at))
            # one bad row of a stack is enough
            stacks = [np.array([a, a, a]) for a in args]
            stacks[i][1] = off
            with pytest.raises(DomainError, match="must be finite"):
                fn(*(Jet.constant(c, 0) for c in stacks))


@pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf])
def test_theta_ml_rejects_a_non_finite_label(l):
    with pytest.raises(DomainError, match="label l must be finite"):
        theta_ml_jet(2, l, C(0.1 + 1.1j), C(0.2 + 0.1j))


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
