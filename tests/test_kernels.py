"""Fourier kernel terms, annihilation, images, and theta decomposition."""

import cmath
import json
import math
from fractions import Fraction

import pytest

from mjlab.core import EvalPoint, JetVars, TruncationPolicy, WeightIndex
from mjlab.errors import DomainError, JetUnavailable, NotThetaDecomposable
from mjlab.jets import Jet
from mjlab.kernels import (
    FourierData,
    KernelParams,
    h_from_json,
    h_series_handle,
    h_to_json,
    kernel_jet,
    kernel_term_handle,
    theta_decompose,
    theta_fourier_data,
    theta_recompose_handle,
)
from mjlab.mu import mu_hat_component_jet
from mjlab.operators import xi_H
from mjlab.special import gamma_half_cont, H_function, theta_ml_jet
from mjlab.verify import verify_kernel_annihilation, verify_xi_image_table
from mjlab.weil import labels as component_labels

C = lambda w: Jet.constant(w, 0)

POINTS = [
    EvalPoint(0.13, 1.1, 0.21, 0.17),
    EvalPoint(-0.40, 0.9, 0.05, 0.31),
    EvalPoint(0.31, 1.6, -0.12, 0.23),
]


# ----------------------------------------------------------------------
# kernel parameters


def test_kernel_params_discriminant():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    assert params.D == 2 * params.two_m * params.n - params.r ** 2
    assert params.D == 3  # two_m = -2, n = -1, r = 1
    assert KernelParams.of(0.5, 1.0, 0, 0).D == 0


def test_kernel_params_extend_weight_index():
    params = KernelParams.of(1.5, -0.5, 2, -1)
    assert isinstance(params, WeightIndex)
    assert (params.two_k, params.two_m, params.n, params.r) == (3, -1, 2, -1)
    assert (params.k, params.m) == (1.5, -0.5)
    assert params.weight_index() == WeightIndex(3, -1)


@pytest.mark.parametrize("k,m,n,r", [
    (0.74, -1.26, -1, 1), (0.5, 0, 0, 0), (0.5, 1, 0.7, 0), (0.5, 1, 0, 1.5),
])
def test_kernel_params_reject_values_outside_the_domain(k, m, n, r):
    with pytest.raises(DomainError):
        KernelParams.of(k, m, n, r)


def test_kernel_params_partners():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    xi_p = params.xi_partner()
    assert xi_p.k == 3.0 - params.k and xi_p.m == params.m
    assert (xi_p.n, xi_p.r) == (params.n, params.r)
    h_p = params.xi_H_partner()
    assert h_p.k == params.k and h_p.m == -params.m
    assert (h_p.n, h_p.r) == (-params.n, -params.r)


# ----------------------------------------------------------------------
# closed forms of the kernel factors


def test_first_kernel_factor_is_plane_wave():
    # c_1 is the pure exponential q^n zeta^r
    params = KernelParams.of(0.5, -1.0, -1, 1)
    h = kernel_term_handle(1, params)
    for p in POINTS:
        want = p.q ** params.n * p.zeta ** params.r
        assert abs(h.eval(p) - want) < 1e-12 * abs(want)


def test_second_kernel_factor_degenerate_closed_form():
    # at vanishing discriminant the H-factor degenerates to y^(3/2-k)
    params = KernelParams.of(0.5, 1.0, 0, 0)
    for p in POINTS:
        got = kernel_jet(2, params, False, JetVars.at(p, 0)).value
        want = p.y ** 1.0
        assert abs(got - want) < 1e-12 * want


def test_second_kernel_factor_uses_H_kernel():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    k, m, D = params.k, params.m, params.D
    for p in POINTS:
        arg = math.pi * D * p.y / (2.0 * m)
        want = H_function(arg, k) * math.exp(arg)
        got = kernel_jet(2, params, False, JetVars.at(p, 0)).value
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_third_kernel_factor_uses_incomplete_gamma():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    m, r = params.m, params.r
    for p in POINTS:
        a = r + 2.0 * m * p.v / p.y
        s = 1.0 if a > 0 else -1.0
        want = s * gamma_half_cont((-math.pi * p.y / m) * a * a)
        got = kernel_jet(3, params, False, JetVars.at(p, 0)).value
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_third_kernel_factor_vanishes_on_sign_locus():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    m, r = params.m, params.r
    y = 1.1
    v = -r * y / (2.0 * m)  # r + 2 m v / y = 0
    p = EvalPoint(0.13, y, 0.21, v)
    assert kernel_jet(3, params, False, JetVars.at(p, 0)).value == 0.0


def test_third_kernel_jet_unavailable_on_sign_locus():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    m, r = params.m, params.r
    y = 1.1
    v = -r * y / (2.0 * m)
    p = EvalPoint(0.13, y, 0.21, v)
    h = kernel_term_handle(3, params)
    with pytest.raises(JetUnavailable):
        h.jet_at(JetVars.at(p, 1))


def test_fourth_kernel_factor_is_product_of_factors():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    for p in POINTS:
        c2 = kernel_jet(2, params, False, JetVars.at(p, 0)).value
        c3 = kernel_jet(3, params, False, JetVars.at(p, 0)).value
        c4 = kernel_jet(4, params, False, JetVars.at(p, 0)).value
        # c4 carries both nonholomorphic factors
        assert abs(c4 - c2 * c3) <= 1e-10 * max(1.0, abs(c2 * c3))


def test_skew_degenerate_matches_standard():
    std = KernelParams.of(0.5, 1.0, 0, 0)
    for p in POINTS:
        a = kernel_jet(2, std, False, JetVars.at(p, 0)).value
        b = kernel_jet(2, std, True, JetVars.at(p, 0)).value
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


# ----------------------------------------------------------------------
# annihilation and image tables


def test_kernel_annihilation_report():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    results = verify_kernel_annihilation(params, POINTS)
    for res in results:
        assert res.max_residual < 1e-7, res.as_dict()


def test_xi_image_table_at_reference_parameters():
    for params in (KernelParams.of(0.5, -1.0, -1, 1),
                   KernelParams.of(0.5, -1.0, 0, 0)):
        results = verify_xi_image_table(params, POINTS)
        for res in results:
            assert res.max_residual < 1e-7, res.as_dict()


# ----------------------------------------------------------------------
# Fourier data and the class-function property


def test_fourier_text_roundtrip():
    data = FourierData(2, {(0, 0): 1.0, (1, 2): 1.0, (1, 0): 2.5 - 1j})
    back = FourierData.from_text(data.to_text())
    assert back.two_m == 2
    assert back.coefficients == data.coefficients


def test_fourier_text_rejects_bad_header():
    with pytest.raises(DomainError):
        FourierData.from_text("no header\n0 0 1 0\n")


@pytest.mark.parametrize("text,bad", [
    ("index 2m=abc\n", "index 2m=abc"),
    ("index 2m=2\n0 0 x 1\n", "0 0 x 1"),
    ("index 2m=2\n0 0.5 1 0\n", "0 0.5 1 0"),
    ("index 2m=2\n0 0 1\n", "0 0 1"),
])
def test_fourier_text_names_the_malformed_line(text, bad):
    with pytest.raises(DomainError, match=repr(bad)):
        FourierData.from_text(text)


def test_class_function_violation_raises():
    # (0,0) and (1,2) share discriminant 0 and residue 0 mod 2
    with pytest.raises(NotThetaDecomposable):
        FourierData(2, {(0, 0): 1.0, (1, 2): 2.0}, holomorphic=True)


def test_fourier_handle_is_generating_function():
    data = FourierData(2, {(0, 0): 1.0, (1, 1): 2.0 - 1j})
    h = data.handle()
    for p in POINTS:
        want = 1.0 + (2.0 - 1j) * p.q * p.zeta
        assert abs(h.eval(p) - want) < 1e-12 * abs(want)


# ----------------------------------------------------------------------
# decomposition


def test_theta_input_decomposes_to_delta():
    data = theta_fourier_data(2, 0)
    h = theta_decompose(data)
    assert h[0] == [(Fraction(0), (1 + 0j))]
    assert h[1] == []


def test_decomposition_collects_classes_once():
    # two coefficients of the same class must give one output term
    data = FourierData(2, {(0, 0): 2.0, (1, 2): 2.0}, holomorphic=True)
    h = theta_decompose(data)
    assert h[0] == [(Fraction(0), (2 + 0j))]


def test_h_json_roundtrip():
    data = FourierData(
        2, {(0, 0): 1.0, (1, 1): 0.5 + 0.25j, (1, 2): 1.0}, holomorphic=True
    )
    h = theta_decompose(data)
    back = h_from_json(h_to_json(h))
    assert set(back) == set(h)
    for l in h:
        assert len(back[l]) == len(h[l])
        for (fa, ca), (fb, cb) in zip(h[l], back[l]):
            assert fa == fb and abs(ca - cb) < 1e-15


def test_h_series_eval():
    series = [(Fraction(-1, 4), 2.0 + 0j), (Fraction(1, 2), 1j)]
    tau = 0.13 + 1.1j
    q = cmath.exp(2j * math.pi * tau)
    want = 2.0 * q ** complex(Fraction(-1, 4)) + 1j * q ** complex(Fraction(1, 2))
    got = h_series_handle(series).eval(EvalPoint.from_tau_z(tau))
    assert abs(got - want) < 1e-12 * abs(want)


def brute_class_sum(data, p):
    """Independent recomposition: group coefficients by class and sum
    c * q^(D/4m) * theta-term over integer-support representatives."""
    total = 0j
    for (n, r), c in data.coefficients.items():
        total += c * p.q ** n * p.zeta ** r
    return total


def test_decomposition_roundtrip_against_direct_sum():
    coeffs = {}
    two_m = 2
    rng_vals = [0.7 + 0.1j, -0.3 + 0.55j, 1.1 - 0.2j]
    classes = [(0, 0), (1, 1), (1, 0)]
    for (n0, r0), c in zip(classes, rng_vals):
        D = 2 * two_m * n0 - r0 * r0
        for t in range(-3, 4):
            r = r0 + two_m * t
            four_m_n = D + r * r
            if four_m_n % (2 * two_m):
                continue
            coeffs[(four_m_n // (2 * two_m), r)] = c
    data = FourierData(two_m, coeffs, holomorphic=True)
    h = theta_decompose(data)
    for p in POINTS:
        got = theta_recompose_handle(two_m, h).eval(p)
        want = brute_class_sum(data, p)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_theta_like_recomposition_shadow():
    # replacing each theta component by the completed component with the
    # same label must produce a function whose covariant image recovers
    # sum conj(h_l) theta_{m,l}
    from mjlab.core import WeightIndex, FunctionHandle
    from mjlab.kernels import theta_like_recompose_handle

    two_m = 2
    h = {0: [(Fraction(0), 0.5 + 0.25j)], 1: [(Fraction(1, 8), 1.0 + 0j)]}
    handle = theta_like_recompose_handle(two_m, h)
    image = xi_H(WeightIndex(1, -two_m), handle)
    for p in POINTS[:2]:
        want = 0j
        for l, series in h.items():
            th = theta_ml_jet(two_m, l, C(p.tau), C(p.z)).value
            for frac, c in series:
                qpow = cmath.exp(2j * math.pi * complex(frac) * p.tau)
                want += (c * qpow).conjugate() * th
        got = image.eval(p)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
