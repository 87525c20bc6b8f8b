"""Covariant operators: annihilation, commutators, covariance, images."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mjlab.core import EvalPoint, FunctionHandle, JetVars, WeightIndex, exp_qn_zeta_r
from mjlab.errors import DomainError
from mjlab.group import GEN_S, GEN_T, TaggedForm, apply_slash, heisenberg
from mjlab.jets import Jet
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.mu import mu_hat_2_handle, mu_hat_ml_handle
from mjlab.operators import (
    OPERATOR_NAMES,
    JetMap,
    apply_operator,
    casimir,
    casimir_skew_map,
    image,
    input_kind,
    laplace_heisenberg_map,
    laplace_hyperbolic,
    lower_X,
    lower_Y,
    lower_Y_skew,
    raise_X,
    raise_Y,
    xi,
    xi_H,
    xi_H_skew_map,
    xi_bruinier_funke,
)
from mjlab.special import jacobi_theta_handle, theta_ml_handle
from mjlab.verify import (
    heisenberg_factorizations,
    lapK_factorization,
    semimeromorphic_factorizations,
    verify_covariance,
    verify_identities,
    x_factorizations,
)

POINTS = [
    EvalPoint(0.13, 1.1, 0.21, 0.17),
    EvalPoint(-0.40, 0.9, 0.05, 0.31),
    EvalPoint(0.31, 1.6, -0.12, 0.23),
]


def max_abs(handle, points=POINTS):
    return max(abs(handle.eval(p)) for p in points)


def tau_probe():
    """A non-holomorphic function of tau alone: q + y^(3/2)."""

    def je(jv):
        return (2j * math.pi * jv.tau).exp() + jv.y.cpow(1.5)

    return FunctionHandle(jet_fn=je, label="q+y^1.5")


def on(maps, f):
    """The (name, map) pairs of an identity family as checks on the probe f."""
    return [(name, jmap, f) for name, jmap in maps]


# ----------------------------------------------------------------------
# annihilation of holomorphic forms


def test_lowering_operators_kill_holomorphic_theta():
    th = theta_ml_handle(2, 1)
    assert max_abs(image(lower_Y(0.5, 1.0), th)) < 1e-12
    assert max_abs(image(lower_X(0.5, 1.0), th)) < 1e-12


def test_casimir_kills_holomorphic_theta():
    wi = WeightIndex(1, 2)
    assert max_abs(casimir(wi, theta_ml_handle(2, 0))) < 1e-12


def test_xi_operators_kill_holomorphic_theta():
    wi = WeightIndex(1, 2)
    th = theta_ml_handle(2, 1)
    assert max_abs(xi(wi, th)) < 1e-12
    assert max_abs(image(xi_bruinier_funke(0.5), th)) < 1e-12


def test_hyperbolic_laplacian_kills_holomorphic_function():
    assert max_abs(image(laplace_hyperbolic(0.5), jacobi_theta_handle())) < 1e-12


# ----------------------------------------------------------------------
# commutators and factorizations (reports)


def test_heisenberg_commutator_is_constant_times_index():
    # [Y-, Y+] f = -2 pi m f on a generic probe
    m, k = 1.0, 0.5
    f = exp_qn_zeta_r(1, 1)
    up_down = image(lower_Y(k + 1, m), image(raise_Y(k, m), f))
    down_up = image(raise_Y(k - 1, m), image(lower_Y(k, m), f))
    for p in POINTS:
        com = up_down.eval(p) - down_up.eval(p)
        want = -2.0 * math.pi * m * f.eval(p)
        assert abs(com - want) < 1e-10


def test_factorization_reports_pass():
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    for report in verify_identities(on(heisenberg_factorizations(wi.k, wi.m, (2,)), f), POINTS):
        assert report.max_residual < 1e-9, report.as_dict()


def test_x_factorization_report_passes():
    [report] = verify_identities(on(x_factorizations(2.5, (2,)), tau_probe()), POINTS)
    assert report.max_residual < 1e-9, report.as_dict()


def test_hyperbolic_xi_factorization_report_passes():
    [report] = verify_identities(on(lapK_factorization(1.5), tau_probe()), POINTS)
    assert report.max_residual < 1e-9, report.as_dict()


@pytest.mark.parametrize("skew", [False, True])
def test_semimeromorphic_casimir_report_passes(skew):
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    report = verify_identities(on(semimeromorphic_factorizations(wi.k, wi.m), f), POINTS)[skew]
    assert report.max_residual < 1e-8, report.as_dict()


def test_skew_casimir_annihilates_skew_kernel_term():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    h = kernel_term_handle(1, params, skew=True)
    out = image(casimir_skew_map(params.k, params.m), h)
    assert max_abs(out) < 1e-7


# ----------------------------------------------------------------------
# covariance


@pytest.mark.parametrize("op_name", ["X+", "Y-", "xiH", "xi"])
@pytest.mark.parametrize("gen", [GEN_T, GEN_S, heisenberg(1, 0)])
def test_covariance_on_theta(op_name, gen):
    phi = TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")
    [report] = verify_covariance([op_name], [phi], {"A": gen}, POINTS[:2])
    assert report.max_residual < 1e-7, (op_name, report.as_dict())


def test_covariance_on_completed_component():
    phi = TaggedForm(mu_hat_ml_handle(2, 0), WeightIndex(1, -2), "standard")
    [report] = verify_covariance(["Y+"], [phi], {"T": GEN_T}, POINTS[:1])
    assert report.max_residual < 1e-7, report.as_dict()


# ----------------------------------------------------------------------
# image identities


def test_xi_H_maps_completed_component_to_theta():
    two_m = 2
    wi = WeightIndex(1, -two_m)
    for l in (0, 1):
        image = xi_H(wi, mu_hat_ml_handle(two_m, l))
        th = theta_ml_handle(two_m, l)
        for p in POINTS:
            a = image.eval(p)
            b = th.eval(p)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (l, p)


def test_hyperbolic_heisenberg_laplacian_kills_completed_component():
    two_m = 1
    wi = WeightIndex(1, -two_m)
    h = mu_hat_ml_handle(two_m, 0.5)
    lap = image(xi_H_skew_map(0.5, two_m / 2.0), xi_H(wi, h))
    assert max_abs(lap, POINTS[:2]) < 1e-9


def test_xi_kills_distinguished_completion():
    out = xi(WeightIndex(1, -1), mu_hat_2_handle())
    assert max_abs(out, POINTS[:2]) < 1e-8


# ----------------------------------------------------------------------
# application by name to tagged forms


def test_named_application_matches_direct_call():
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    got = apply_operator("Y+", TaggedForm(f, wi)).f
    want = image(raise_Y(wi.k, wi.m), f)
    for p in POINTS[:2]:
        assert abs(got.eval(p) - want.eval(p)) < 1e-12


def test_apply_operator_shifts_weight():
    phi = TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")
    out = apply_operator("X+", phi)
    assert out.weight_index.two_k == phi.weight_index.two_k + 4
    flipped = apply_operator("xiH", phi)
    assert flipped.weight_index.two_m == -phi.weight_index.two_m
    assert flipped.action_kind == "skew"


def test_unknown_operator_name_raises():
    with pytest.raises(DomainError):
        input_kind("Z+")
    with pytest.raises(DomainError):
        apply_operator("Z+", _tagged_input("standard"))


def test_operator_action_kind_mismatch_raises():
    phi = TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")
    with pytest.raises(DomainError):
        apply_operator("Ysk+", phi)


def test_heisenberg_laplacian_composition():
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    composite = image(laplace_heisenberg_map(wi.k, wi.m), f)
    direct = image(raise_Y(wi.k - 1.0, wi.m), image(lower_Y(wi.k, wi.m), f))
    for p in POINTS[:2]:
        assert abs(composite.eval(p) - direct.eval(p)) < 1e-10


def _tagged_input(kind):
    """A generic form of the given action kind at weight 1/2, index 1."""
    return TaggedForm(exp_qn_zeta_r(1, 1), WeightIndex(1, 2), kind)


@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_every_operator_name_applies_to_a_tagged_form(name):
    out = apply_operator(name, _tagged_input(input_kind(name)))
    assert out.action_kind in ("standard", "skew")
    assert math.isfinite(abs(out.f.eval(POINTS[0])))


@pytest.mark.parametrize("name", ["LaplaceK", "Heat"])
def test_removed_operator_names_raise_domain_error(name):
    with pytest.raises(DomainError):
        input_kind(name)
    with pytest.raises(DomainError):
        apply_operator(name, _tagged_input("standard"))


# ----------------------------------------------------------------------
# composites as jet maps: one operand evaluation, the values of nesting

FUSED = ("Casimir", "CasimirSk", "LaplaceH", "xi", "xiH", "xiSkH")


def yv_probe():
    """exp(2 pi i (tau + z)) y v, a smooth non-holomorphic probe."""

    def je(jv):
        return (2j * math.pi * (jv.tau + jv.z)).exp() * jv.y * jv.v

    return FunctionHandle(jet_fn=je, label="q zeta y v")


class CountingHandle(FunctionHandle):
    """A handle that counts the calls of its jet_at."""

    def __init__(self, f):
        super().__init__(jet_fn=f.jet_at, label=f.label)
        self.calls = 0

    def jet_at(self, jv):
        self.calls += 1
        return super().jet_at(jv)


def _lincomb(*terms):
    """sum of coeff * handle, evaluated handle by handle."""

    def je(jv):
        out = None
        for coeff, h in terms:
            piece = h.jet_at(jv) * coeff
            out = piece if out is None else out + piece
        return out

    return FunctionHandle(jet_fn=je)


def _times(coeff, h):
    return FunctionHandle(jet_fn=lambda jv: coeff(jv) * h.jet_at(jv))


def _y_power(alpha):
    return lambda jv: jv.y.cpow(alpha)


def _xi_H_factor(m, power):
    return lambda jv: (abs(m) * jv.y).cpow(0.5 * power) * (
        (-4.0 * math.pi * m) * jv.v * jv.v / jv.y
    ).exp()


def _conj(h):
    return FunctionHandle(jet_fn=lambda jv: h.jet_at(jv).conj())


def _nested_casimir(k, m, f):
    inv = 1.0 / (2.0 * math.pi * m)

    def up(op, kk, g):
        return image(op(kk, m), g)

    return _lincomb(
        (2.0, up(raise_X, k - 2, up(lower_X, k, f))),
        (-inv, up(raise_X, k - 2, up(lower_Y, k - 1, up(lower_Y, k, f)))),
        (inv, up(raise_Y, k - 1, up(raise_Y, k - 2, up(lower_X, k, f)))),
        (inv * (k - 2.0), up(raise_Y, k - 1, up(lower_Y, k, f))),
    )


# each composite as nested images of first-order maps, combined per handle
NESTED = {
    "Casimir": _nested_casimir,
    "CasimirSk": lambda k, m, f: _lincomb(
        (
            8j * math.pi * m,
            _times(
                _y_power(0.5 - k),
                _nested_casimir(1.0 - k, m, _times(_y_power(k - 0.5), f)),
            ),
        ),
        (8j * math.pi * m * (2.0 * k - 1.0), f),
    ),
    "LaplaceH": lambda k, m, f: image(raise_Y(k - 1, m), image(lower_Y(k, m), f)),
    "xi": lambda k, m, f: _times(
        _y_power(k - 2.5),
        _lincomb(
            (1.0, image(lower_X(k, m), f)),
            (-1.0 / (4.0 * math.pi * m), image(lower_Y(k - 1, m), image(lower_Y(k, m), f))),
        ),
    ),
    "xiH": lambda k, m, f: _times(_xi_H_factor(m, -1), _conj(image(lower_Y(k, m), f))),
    "xiSkH": lambda k, m, f: _times(
        _xi_H_factor(m, +1), _conj(image(lower_Y_skew(k, m), f))
    ),
}


FUSED_WI = WeightIndex(3, 2)


def _applied(name, f):
    """The named operator's image of f, tagged at FUSED_WI."""
    return apply_operator(name, TaggedForm(f, FUSED_WI, input_kind(name)))


def _slashed(phi):
    return apply_slash(phi, GEN_S).f


@pytest.mark.parametrize("name", FUSED)
def test_composite_calls_operand_jet_once_per_evaluation(name):
    f = CountingHandle(yv_probe())
    out = _applied(name, f)
    for h in (out.f, _slashed(out)):
        for order in (0, 1):
            f.calls = 0
            h.jet_at(JetVars.at(POINTS[0], order))
            assert f.calls == 1, (name, order)


@pytest.mark.parametrize("slash", [False, True])
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("name", FUSED)
def test_fused_composite_equals_nested_first_order_images(name, order, slash):
    f = yv_probe()
    out = _applied(name, f)
    fused, ref = out.f, NESTED[name](FUSED_WI.k, FUSED_WI.m, f)
    if slash:
        fused, ref = _slashed(out), _slashed(replace(out, f=ref))
    for p in POINTS:
        a = fused.jet_at(JetVars.at(p, order)).c
        b = ref.jet_at(JetVars.at(p, order)).c
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (name, p)


@pytest.mark.parametrize("order", [0, 1])
def test_casimir_applies_each_lowering_of_the_operand_once(order, monkeypatch):
    import mjlab.operators as operators

    calls = {}

    def counted(name, build):
        def factory(k, m):
            inner = build(k, m)

            def apply(F, jv):
                calls[name, k] = calls.get((name, k), 0) + 1
                return inner.apply(F, jv)

            return JetMap(inner.loss, apply)

        return factory

    monkeypatch.setattr(operators, "lower_X", counted("X-", lower_X))
    monkeypatch.setattr(operators, "lower_Y", counted("Y-", lower_Y))
    k, m = 3.0, 2.0
    image(operators.casimir_map(k, m), yv_probe()).jet_at(JetVars.at(POINTS[0], order))
    assert calls == {("X-", k): 1, ("Y-", k): 1, ("Y-", k - 1): 1}


# ----------------------------------------------------------------------
# a weight/index per row


def test_a_per_row_weight_index_needs_a_point_stack():
    """An operator on a stack whose rows differ in weight/index takes a
    constant per row: on one point's coordinates those would broadcast
    against the rows, so that raises DomainError, and on a one-point stack
    each row is its form's image alone on that stack."""
    pairs = (WeightIndex(1, 2), WeightIndex(3, -1))
    forms = [TaggedForm(exp_qn_zeta_r(1, 1), pairs[0]),
             TaggedForm(kernel_term_handle(3, KernelParams.of(1.5, -0.5, 0, 1)), pairs[1])]
    stack = TaggedForm(FunctionHandle(lambda jv: Jet(jv.order, np.stack(
        [phi.f.jet_at(jv).c for phi in forms]))), WeightIndex.of_rows(pairs))
    p = POINTS[0]
    for name in ("X+", "Casimir", "xi", "xiH"):
        out = apply_operator(name, stack)
        assert out.weight_index.per_row
        with pytest.raises(DomainError):
            out.f.jet_at(JetVars.at(p, 0))
        got = out.f.jet_at(JetVars.at([p], 1)).c
        want = [apply_operator(name, phi).f.jet_at(JetVars.at([p], 1)).c for phi in forms]
        assert np.array_equal(got, np.stack(want)), name


# ----------------------------------------------------------------------
# coefficient jets held per computation


def coefficient_builds(monkeypatch):
    """The coefficient jets operators._held makes (its memo misses), by
    name and order."""
    import mjlab.operators as operators

    made, held = [], operators._held

    def counted(jv, name, make, *consts):
        return held(jv, name, lambda: made.append((name, jv.order)) or make(), *consts)

    monkeypatch.setattr(operators, "_held", counted)
    return made


@pytest.mark.parametrize("name", ["X+", "Casimir", "xiH", "xi", "xiSk", "CasimirSk"])
def test_a_second_image_on_the_computation_builds_no_coefficient_jet(name, monkeypatch):
    made = coefficient_builds(monkeypatch)
    wi = WeightIndex(1, 2)
    forms = [TaggedForm(f, wi, input_kind(name)) for f in (yv_probe(), exp_qn_zeta_r(1, 2))]
    jv = JetVars.at(POINTS, 1)
    first = apply_operator(name, forms[0]).f.jet_at(jv)
    assert made and len(made) == len(set(made)), made
    count = len(made)
    second = apply_operator(name, forms[1]).f.jet_at(jv)
    assert len(made) == count
    # the images are those of a computation of their own
    for phi, got in zip(forms, (first, second)):
        alone = apply_operator(name, phi).f.jet_at(JetVars.at(POINTS, 1))
        assert np.array_equal(got.c, alone.c)


def test_a_per_row_index_scales_the_index_free_coefficient(monkeypatch):
    """X+ on rows of two indices: V^2 / Y^2 is built once on the points,
    shape (P, M), and each row is its form's image alone."""
    import mjlab.operators as operators

    shapes, held = {}, operators._held

    def recorded(jv, name, make, *consts):
        jet = held(jv, name, make, *consts)
        shapes[name] = jet.c.shape
        return jet

    monkeypatch.setattr(operators, "_held", recorded)
    pairs = (WeightIndex(1, 2), WeightIndex(1, -4))
    forms = [TaggedForm(yv_probe(), wi) for wi in pairs]
    stack = TaggedForm(FunctionHandle(lambda jv: Jet(jv.order, np.stack(
        [phi.f.jet_at(jv).c for phi in forms]))), WeightIndex.of_rows(pairs))
    jv = JetVars.at(POINTS, 1)
    got = apply_operator("X+", stack).f.jet_at(jv).c
    assert shapes["V^2/Y^2"] == jv.y.c.shape
    want = [apply_operator("X+", phi).f.jet_at(JetVars.at(POINTS, 1)).c for phi in forms]
    assert np.array_equal(got, np.stack(want))
