"""Fourier kernel terms, annihilation, images, and theta decomposition."""

import cmath
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from fd_reference import bits, reference_fd_jet
from hypothesis import given, settings
from hypothesis import strategies as st

from mjlab import kernels
from mjlab.core import EvalPoint, JetVars, TruncationPolicy, WeightIndex, finite_difference_jet
from mjlab.errors import DomainError, NotThetaDecomposable, ValueOverflow
from mjlab.fourier import FourierData, h_from_json, h_to_json, theta_decompose, theta_fourier_data
from mjlab.jets import Jet
from mjlab.kernels import (
    KERNEL_TERMS,
    KernelParams,
    h_series_handle,
    kernel_family_jet,
    kernel_jet,
    kernel_term_handle,
    theta_recompose_handle,
)
from mjlab.mu import mu_hat_component_jet
from mjlab.operators import xi_H
from mjlab.special import H_function, theta_ml_jet
from mjlab.verify import (
    GENERIC_POINTS,
    KERNEL_PARAMS,
    XI_TABLE_PARAMS,
    verify_kernel_annihilation,
    verify_xi_image_table,
)
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


def coefficient(i, params, skew, p):
    """c_i(n, r; y, v) (c_i^sk when skew): the kernel term at p divided by
    q^n zeta^r."""
    term = kernel_jet(i, params, skew, JetVars.at(p, 0)).value
    return term / (p.q ** params.n * p.zeta ** params.r)


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
        got = coefficient(2, params, False, p)
        want = p.y ** 1.0
        assert abs(got - want) < 1e-12 * want


def test_second_kernel_factor_uses_H_kernel():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    k, m, D = params.k, params.m, params.D
    for p in POINTS:
        arg = math.pi * D * p.y / (2.0 * m)
        want = H_function(arg, k) * math.exp(arg)
        got = coefficient(2, params, False, p)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_third_kernel_factor_uses_incomplete_gamma():
    for m in (-1.0, 1.0):
        params = KernelParams.of(0.5, m, -1, 1)
        for p in POINTS:
            a = params.r + 2.0 * m * p.v / p.y
            s = 1.0 if a > 0 else -1.0
            # gamma(1/2, .) continued from the upper half plane
            x = (-math.pi * p.y / m) * a * a
            want = s * complex(mpmath.gammainc(0.5, 0, mpmath.mpc(x, 1e-30)))
            got = coefficient(3, params, False, p)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (m, p)


def _on_sign_locus(params, y=1.1):
    """A point with r + 2 m v / y = 0."""
    return EvalPoint(0.13, y, 0.21, -params.r * y / (2.0 * params.m))


def test_third_kernel_factor_vanishes_on_sign_locus():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    p = _on_sign_locus(params)
    assert coefficient(3, params, False, p) == 0.0


@pytest.mark.parametrize("params", XI_TABLE_PARAMS + (KernelParams.of(0.5, 1, 0, 1),
                                                     KernelParams.of(1.5, 0.5, 0, 1)),
                         ids=repr)
def test_third_and_fourth_kernel_jets_are_smooth_on_sign_locus(params):
    """sgn(a) gamma(1/2, -pi y a^2 / m) is entire in a = r + 2mv/y: on
    a = 0 the exact jets of c_3, c_4 (and skew) agree with finite
    differences, and the annihilation identities (and the xi-image table,
    at its parameters) hold there."""
    p = _on_sign_locus(params)
    for i in (3, 4):
        for skew in (False, True):
            h = kernel_term_handle(i, params, skew=skew)
            for order in (1, 2, 3):
                exact = h.jet_at(JetVars.at(p, order)).table()
                fd = finite_difference_jet(h, p, order)
                assert bits(fd) == bits(reference_fd_jet(h, p, order))
                approx = fd.table()
                scale = max(abs(v) for v in exact.values())
                worst = max(abs(exact[mon] - approx[mon]) for mon in exact)
                assert worst <= 1e-5 * scale, (i, skew, order, worst / scale)
    results = verify_kernel_annihilation([params], [p])
    if params in XI_TABLE_PARAMS:
        results += verify_xi_image_table([params], [p])
    assert all(res.passed for res in results), [
        (res.identity, res.max_residual) for res in results if not res.passed
    ]


@pytest.mark.parametrize("skew", [False, True], ids=["standard", "skew"])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_kernel_term_fd_jets_are_the_per_sample_jets(i, skew):
    """Every kernel term is evaluated point by point on a stack: its
    stacked finite-difference jet is the per-sample one bit for bit."""
    params = XI_TABLE_PARAMS[0]
    h = kernel_term_handle(i, params, skew=skew)
    for p in GENERIC_POINTS[:2]:
        for order in (1, 2, 3):
            assert bits(finite_difference_jet(h, p, order)) == bits(reference_fd_jet(h, p, order))


def test_fourth_kernel_factor_is_product_of_factors():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    for p in POINTS:
        c2 = coefficient(2, params, False, p)
        c3 = coefficient(3, params, False, p)
        c4 = coefficient(4, params, False, p)
        # c4 carries both nonholomorphic factors
        assert abs(c4 - c2 * c3) <= 1e-10 * max(1.0, abs(c2 * c3))


def test_skew_degenerate_matches_standard():
    std = KernelParams.of(0.5, 1.0, 0, 0)
    for p in POINTS:
        a = coefficient(2, std, False, p)
        b = coefficient(2, std, True, p)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


# ----------------------------------------------------------------------
# kernel families: the terms of one parameter set share their pieces


def _family_params():
    """Every KERNEL_PARAMS and XI_TABLE_PARAMS entry with its xi and xi^H
    partners."""
    out = []
    for params in KERNEL_PARAMS + XI_TABLE_PARAMS:
        for p in (params, params.xi_partner(), params.xi_H_partner()):
            if p not in out:
                out.append(p)
    return out


FAMILY_PARAMS = _family_params()
# every term, the reverse order, and a subset that shares nothing in order
FAMILY_TERMS = (KERNEL_TERMS, KERNEL_TERMS[::-1], ((4, True), (1, False), (4, False), (3, True)))


def test_family_parameters_cover_both_discriminant_kinds_and_signs_of_m():
    assert {p.D == 0 for p in FAMILY_PARAMS} == {True, False}
    assert {p.m > 0 for p in FAMILY_PARAMS} == {True, False}
    assert {(p.D == 0, p.m > 0) for p in FAMILY_PARAMS} == {
        (True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("params", FAMILY_PARAMS, ids=repr)
def test_family_rows_are_their_terms_alone(params, order):
    """Each row of a family is, bit for bit, the one-term kernel_jet of its
    term: at one point and at a point stack, in any term order."""
    for points in (GENERIC_POINTS[0], GENERIC_POINTS):
        jv = JetVars.at(points, order)
        for terms in FAMILY_TERMS:
            family = kernel_family_jet(params, terms, jv)
            assert family.order == order and family.c.shape[0] == len(terms)
            for row, (i, skew) in zip(family.c, terms):
                assert np.array_equal(row, kernel_jet(i, params, skew, jv).c), (i, skew)


@pytest.mark.parametrize("params", FAMILY_PARAMS, ids=repr)
def test_a_truncated_family_is_the_family_at_the_lower_order(params):
    """The lower-order jets of kernel terms are truncations of an order-4
    jet, bit for bit, so verify may serve them from one evaluation."""
    for points in (GENERIC_POINTS[0], GENERIC_POINTS):
        top = kernel_family_jet(params, KERNEL_TERMS, JetVars.at(points, 4))
        for order in range(4):
            want = kernel_family_jet(params, KERNEL_TERMS, JetVars.at(points, order))
            assert np.array_equal(top.truncate(order).c, want.c), order


def test_a_family_raises_what_its_first_failing_term_raises():
    jv = JetVars.at(GENERIC_POINTS, 1)
    integer_k = KernelParams.of(1, 1, 0, 1)  # c_2 and c_4 need a half-integer k
    family = kernel_family_jet(integer_k, ((1, False), (3, True)), jv)
    assert family.c.shape[0] == 2
    for terms in (((1, False), (2, False)), ((3, True), (4, True), (2, False))):
        i, skew = terms[1]  # the first term that fails
        with pytest.raises(DomainError) as alone:
            kernel_jet(i, integer_k, skew, jv)
        with pytest.raises(DomainError) as stacked:
            kernel_family_jet(integer_k, terms, jv)
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(DomainError):
        kernel_family_jet(KERNEL_PARAMS[0], ((1, False), (5, False)), jv)
    # c_2 at n = 50, tau = 0.1 + 3i is 2.1e409; c_1 there is finite
    big = KernelParams.of(0.5, 1, 50, 1)
    jv = JetVars.at(EvalPoint(0.1, 3.0, 0.2, 0.1), 1)
    assert np.isfinite(kernel_family_jet(big, ((1, False),), jv).c).all()
    with pytest.raises(ValueOverflow) as alone:
        kernel_jet(2, big, False, jv)
    with pytest.raises(ValueOverflow) as stacked:
        kernel_family_jet(big, ((1, False), (2, False), (4, False)), jv)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("order", (0, 1, 3))
@pytest.mark.parametrize("params", [KernelParams.of(-3.5, 1, 0, 1), KernelParams.of(-2.5, -1, 1, 1)],
                         ids=repr)
def test_a_family_with_log_g_folded_is_the_family(params, order, monkeypatch):
    """Where G leaves the float range, the c2/c4 terms fold log |G| into
    their exponent: forced where G is finite (G > 0 and G < 0, at x = -2w
    of both signs), that form is the family to 1e-13."""
    for points in (GENERIC_POINTS[0], GENERIC_POINTS):
        jv = JetVars.at(points, order)
        want = kernel_family_jet(params, KERNEL_TERMS, jv).c

        def overflow(arg, k):
            raise ValueOverflow("G")

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "G_derivatives", overflow)
            got = kernel_family_jet(params, KERNEL_TERMS, jv).c
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# the sets of a list family: all of them, and lists that hold one branch
# of each piece only (D = 0 or D != 0, m > 0 or m < 0)
SET_LISTS = (
    FAMILY_PARAMS,
    [p for p in FAMILY_PARAMS if p.D == 0],
    [p for p in FAMILY_PARAMS if p.D != 0],
    [p for p in FAMILY_PARAMS if p.m > 0],
    [p for p in FAMILY_PARAMS if p.m < 0][::-1],
)


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("sets", SET_LISTS, ids=["all", "D=0", "D!=0", "m>0", "m<0"])
def test_a_list_of_sets_gives_each_sets_rows_alone(sets, order):
    """A family over a list of parameter sets is, bit for bit, the families
    of its sets alone, set by set, at a point stack."""
    jv = JetVars.at(GENERIC_POINTS, order)
    for terms in FAMILY_TERMS:
        family = kernel_family_jet(sets, terms, jv)
        want = np.concatenate([kernel_family_jet(p, terms, jv).c for p in sets])
        assert family.order == order and family.c.shape == want.shape
        assert np.array_equal(family.c, want), terms


@st.composite
def family_requests(draw):
    """A list of one to four parameter sets of FAMILY_PARAMS (a set may
    repeat), a tuple of distinct kernel terms in any order, an order 0-3
    and a stack of one to four points with 0.5 <= y <= 2."""
    sets = draw(st.lists(st.sampled_from(FAMILY_PARAMS), min_size=1, max_size=4))
    terms = tuple(draw(st.lists(st.sampled_from(KERNEL_TERMS), min_size=1, max_size=8,
                                unique=True)))
    coordinate = st.floats(-0.5, 0.5)
    points = draw(st.lists(st.builds(EvalPoint, coordinate, st.floats(0.5, 2.0), coordinate,
                                     coordinate), min_size=1, max_size=4))
    return sets, terms, draw(st.integers(0, 3)), points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(request=family_requests())
def test_a_set_in_any_list_is_that_set_as_a_list_of_one(request):
    """On a point stack each set's rows of a list family are, bit for bit,
    that set's family as a list of one, which a lone KernelParams is; at
    one point each row is the point's stack-of-one row to 1e-15 of the
    row's largest coefficient."""
    sets, terms, order, points = request
    jv = JetVars.at(points, order)
    family = kernel_family_jet(sets, terms, jv).c.reshape((len(sets), len(terms), len(points), -1))
    for params, rows in zip(sets, family):
        alone = kernel_family_jet([params], terms, jv).c
        assert np.array_equal(rows, alone)
        assert np.array_equal(kernel_family_jet(params, terms, jv).c, alone)
    for j, point in enumerate(points):
        lone = kernel_family_jet(sets, terms, JetVars.at(point, order)).c
        stacked = family[:, :, j].reshape(lone.shape)
        scale = np.abs(stacked).max(axis=1, keepdims=True)
        assert (np.abs(lone - stacked) <= 1e-15 * scale).all()


def test_a_g_derivative_beyond_the_float_range_is_a_value_overflow():
    """G_-2 (k = 5/2) at w = -pi 1e-297 is finite, its first derivative
    (2 (-2w)^-2 in part) is not: at one point and on a stack of one the c2
    term raises ValueOverflow, with one message."""
    params = KernelParams.of(2.5, 1, -5, 0)
    point = EvalPoint(0, 1e-298, 0, 0)
    messages = set()
    for points in (point, [point]):
        with pytest.raises(ValueOverflow) as err:
            kernel_jet(2, params, False, JetVars.at(points, 1))
        messages.add(str(err.value))
    assert messages == {"a derivative of G_-2 at -3.1415926535897926e-297 exceeds the "
                        "floating-point range"}


def test_a_set_whose_g_leaves_the_float_range_folds_log_g_in_a_list(monkeypatch):
    """At Im tau near 200, G_171(w) of c2 at [-170.5, 1, 0, 1] is beyond the
    float range: that set takes G_log_jet alone, its rows and the other
    sets' still those of each set alone."""
    sets = [KernelParams.of(0.5, 1, 0, 1), KernelParams.of(-170.5, 1, 0, 1),
            KernelParams.of(0.5, -1, 0, 0)]
    terms = ((2, False), (1, False), (3, False), (1, True), (3, True))
    points = [EvalPoint(0.1, 200.0, 0.0, 0.0), EvalPoint(-0.2, 190.0, 0.1, 0.3)]
    folded = []
    real = kernels.G_log_jet
    monkeypatch.setattr(kernels, "G_log_jet", lambda arg, k: folded.append(k) or real(arg, k))
    for order in range(4):
        jv = JetVars.at(points, order)
        family = kernel_family_jet(sets, terms, jv)
        assert folded.pop() == -170.5 and folded == []
        want = np.concatenate([kernel_family_jet(p, terms, jv).c for p in sets])
        folded.clear()
        assert np.isfinite(family.c).all() and np.array_equal(family.c, want)


def test_a_list_family_names_its_first_failing_set_and_term():
    """c2 = c2sk at [-98.5, 1, 1, 2] (D = 0) is |q zeta^2| y^100 = 1e200 1e200
    at the first point, where its c1 is finite: the product of two finite
    pieces overflows, and the finite check names that set's first such
    term, as its family alone does."""
    steep = KernelParams.of(-98.5, 1, 1, 2)
    sets = [KernelParams.of(0.5, 1, 0, 0), steep, KernelParams.of(0.5, -1, 0, 0)]
    terms = ((1, False), (2, True), (2, False))
    for order in (0, 2):
        jv = JetVars.at([EvalPoint(0.1, 100.0, 0.0, -86.6), EvalPoint(0.1, 1.0, 0.0, 0.0)], order)
        with pytest.raises(ValueOverflow) as alone:
            kernel_family_jet(steep, terms, jv)
        with pytest.raises(ValueOverflow) as stacked:
            kernel_family_jet(sets, terms, jv)
        assert str(stacked.value) == str(alone.value) == (
            "c2sk[-98.5,1,1,2] overflows at jet order %d" % order)
    with pytest.raises(DomainError, match="needs a parameter set"):
        kernel_family_jet([], terms, jv)


# ----------------------------------------------------------------------
# annihilation and image tables


def test_kernel_annihilation_report():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    results = verify_kernel_annihilation([params], POINTS)
    for res in results:
        assert res.max_residual < 1e-7, res.as_dict()


def test_xi_image_table_at_reference_parameters():
    for params in (KernelParams.of(0.5, -1.0, -1, 1),
                   KernelParams.of(0.5, -1.0, 0, 0)):
        results = verify_xi_image_table([params], POINTS)
        for res in results:
            assert res.max_residual < 1e-7, res.as_dict()


# both signs of m, |m| from 1/2 to 2, k from 1/2 to 5/2 and D < 0, = 0, > 0;
# the xi^H and xi^{sk,H} constants -2 sqrt(pi) eps and -2 sqrt(pi) |m| eps
# (eps = i for m > 0, 1 for m < 0) hold at every one.  At [1/2,3/2,-1,2],
# [5/2,-3/2,1,2] and [3/2,-1,0,2] some rows miss the absolute tolerance at
# rounding level against jet coefficients up to 3e13; they wait for
# residuals relative to the operands' scale.
XI_TABLE_SETS = [(0.5, 1, 0, 1), (1.5, 0.5, 0, 1), (1.5, -0.5, 0, 1), (0.5, -2, -1, 1),
                 (0.5, 2, 1, 1), (1.5, 1, 1, -1), (2.5, 0.5, 1, 1), (0.5, 0.5, 1, 0),
                 (2.5, 2, -1, 1)]


@pytest.mark.parametrize("k,m,n,r", XI_TABLE_SETS)
def test_xi_image_table_away_from_the_shipped_parameters(k, m, n, r):
    for res in verify_xi_image_table([KernelParams.of(k, m, n, r)], GENERIC_POINTS):
        assert res.passed, res.as_dict()


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
