"""Covariant operators: annihilation, commutators, covariance, images."""

import math

import pytest

from mjlab.core import EvalPoint, FunctionHandle, WeightIndex, exp_qn_zeta_r
from mjlab.errors import DomainError
from mjlab.group import GEN_S, GEN_T, TaggedForm, heisenberg
from mjlab.jets import Jet
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.mu import mu_hat_2_handle, mu_hat_ml_handle
from mjlab.operators import (
    OPERATOR_NAMES,
    OperatorSpec,
    apply_operator,
    apply_to_tagged,
    casimir,
    casimir_skew,
    laplace_heisenberg,
    laplace_hyperbolic,
    lower_X,
    lower_Y,
    raise_Y,
    xi,
    xi_H,
    xi_H_skew,
    xi_bruinier_funke,
)
from mjlab.special import jacobi_theta_handle, theta_ml_handle
from mjlab.verify import (
    verify_covariance,
    verify_factorizations,
    verify_hyperbolic_xi_factorization,
    verify_semimeromorphic_casimir,
    verify_x_factorization,
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


# ----------------------------------------------------------------------
# annihilation of holomorphic forms


def test_lowering_operators_kill_holomorphic_theta():
    th = theta_ml_handle(2, 1)
    assert max_abs(lower_Y(th, 0.5, 1.0)) < 1e-12
    assert max_abs(lower_X(th, 0.5, 1.0)) < 1e-12


def test_casimir_kills_holomorphic_theta():
    wi = WeightIndex(1, 2)
    assert max_abs(casimir(wi, theta_ml_handle(2, 0))) < 1e-12


def test_xi_operators_kill_holomorphic_theta():
    wi = WeightIndex(1, 2)
    th = theta_ml_handle(2, 1)
    assert max_abs(xi(wi, th)) < 1e-12
    assert max_abs(xi_bruinier_funke(0.5, th)) < 1e-12


def test_hyperbolic_laplacian_kills_holomorphic_function():
    assert max_abs(laplace_hyperbolic(0.5, jacobi_theta_handle())) < 1e-12


# ----------------------------------------------------------------------
# commutators and factorizations (reports)


def test_heisenberg_commutator_is_constant_times_index():
    # [Y-, Y+] f = -2 pi m f on a generic probe
    m, k = 1.0, 0.5
    f = exp_qn_zeta_r(1, 1)
    up_down = lower_Y(raise_Y(f, k, m), k + 1, m)
    down_up = raise_Y(lower_Y(f, k, m), k - 1, m)
    for p in POINTS:
        com = up_down.eval(p) - down_up.eval(p)
        want = -2.0 * math.pi * m * f.eval(p)
        assert abs(com - want) < 1e-10


def test_factorization_reports_pass():
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    for report in verify_factorizations(wi, f, 2, POINTS):
        assert report.max_residual < 1e-9, report.as_dict()


def test_x_factorization_report_passes():
    report = verify_x_factorization(2.5, tau_probe(), 2, POINTS)
    assert report.max_residual < 1e-9, report.as_dict()


def test_hyperbolic_xi_factorization_report_passes():
    report = verify_hyperbolic_xi_factorization(1.5, tau_probe(), POINTS)
    assert report.max_residual < 1e-9, report.as_dict()


@pytest.mark.parametrize("skew", [False, True])
def test_semimeromorphic_casimir_report_passes(skew):
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    report = verify_semimeromorphic_casimir(wi, f, POINTS, skew=skew)
    assert report.max_residual < 1e-8, report.as_dict()


def test_skew_casimir_annihilates_skew_kernel_term():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    h = kernel_term_handle(1, params, skew=True)
    out = casimir_skew(params.weight_index(), h)
    assert max_abs(out) < 1e-7


# ----------------------------------------------------------------------
# covariance


@pytest.mark.parametrize("op_name", ["X+", "Y-", "xiH", "xi"])
@pytest.mark.parametrize("gen", [GEN_T, GEN_S, heisenberg(1, 0)])
def test_covariance_on_theta(op_name, gen):
    phi = TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")
    report = verify_covariance(op_name, phi, gen, POINTS[:2])
    assert report.max_residual < 1e-7, (op_name, report.as_dict())


def test_covariance_on_completed_component():
    phi = TaggedForm(mu_hat_ml_handle(2, 0), WeightIndex(1, -2), "standard")
    report = verify_covariance("Y+", phi, GEN_T, POINTS[:1])
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
    lap = xi_H_skew(WeightIndex(1, two_m), xi_H(wi, h))
    assert max_abs(lap, POINTS[:2]) < 1e-9


def test_xi_kills_distinguished_completion():
    out = xi(WeightIndex(1, -1), mu_hat_2_handle())
    assert max_abs(out, POINTS[:2]) < 1e-8


# ----------------------------------------------------------------------
# operator specs and tagged application


def test_operator_spec_application_matches_direct_call():
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    got = apply_operator(OperatorSpec("Y+", wi), f)
    want = raise_Y(f, wi.k, wi.m)
    for p in POINTS[:2]:
        assert abs(got.eval(p) - want.eval(p)) < 1e-12


def test_apply_to_tagged_shifts_weight():
    phi = TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")
    out = apply_to_tagged("X+", phi)
    assert out.weight_index.two_k == phi.weight_index.two_k + 4
    flipped = apply_to_tagged("xiH", phi)
    assert flipped.weight_index.two_m == -phi.weight_index.two_m
    assert flipped.action_kind == "skew"


def test_unknown_operator_name_raises():
    with pytest.raises(DomainError):
        OperatorSpec("Z+", WeightIndex(1, 2))


def test_operator_action_kind_mismatch_raises():
    phi = TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")
    with pytest.raises(DomainError):
        apply_to_tagged("Ysk+", phi)


def test_heisenberg_laplacian_composition():
    wi = WeightIndex(1, 2)
    f = exp_qn_zeta_r(1, 1)
    composite = laplace_heisenberg(wi, f)
    direct = raise_Y(lower_Y(f, wi.k, wi.m), wi.k - 1.0, wi.m)
    for p in POINTS[:2]:
        assert abs(composite.eval(p) - direct.eval(p)) < 1e-10


def _tagged_input(kind):
    """A generic form of the given action kind at weight 1/2, index 1."""
    return TaggedForm(exp_qn_zeta_r(1, 1), WeightIndex(1, 2), kind)


@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_every_operator_name_applies_to_a_tagged_form(name):
    kind = OperatorSpec(name, WeightIndex(1, 2)).input_kind()
    out = apply_to_tagged(name, _tagged_input(kind))
    assert out.action_kind in ("standard", "skew")
    assert math.isfinite(abs(out.f.eval(POINTS[0])))


@pytest.mark.parametrize("name", ["LaplaceK", "Heat"])
def test_removed_operator_names_raise_domain_error(name):
    with pytest.raises(DomainError):
        OperatorSpec(name, WeightIndex(1, 2))
    with pytest.raises(DomainError):
        apply_to_tagged(name, _tagged_input("standard"))
