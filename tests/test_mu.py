"""The Appell-type lattice sums and their completed component family.

The rank-one sum is pinned against the classically normalized two-variable
Appell function: multiplying the library sum by i yields the classical
normalization, whose completed version must satisfy the full modular law
set (an independent, textbook-grade oracle for both the sum and the
nonholomorphic series).
"""

import cmath
import math

import pytest

from mjlab.core import EvalPoint, TruncationPolicy, WeightIndex
from mjlab.errors import DomainError, EvaluationAtPole
from mjlab.jets import Jet, d_taubar, d_zbar
from mjlab.mu import (
    MuParameters,
    lattice_multiplicities,
    mu_hat_2_handle,
    mu_hat_component_jet,
    mu_hat_ml_handle,
    mu_m_jet,
    mu_two_variable_jet,
    r_hat_component_jet,
    R_hat_ml_handle,
)
from mjlab.special import theta_ml_handle, zwegers_R_jet
from mjlab.weil import labels as component_labels

C = lambda w: Jet.constant(w, 0)

CASES = [
    (0.13 + 1.1j, 0.23 + 0.11j, 0.37 - 0.08j),
    (-0.3 + 0.9j, 0.31 - 0.12j, 0.05 + 0.24j),
    (0.4 + 1.4j, -0.12 + 0.23j, 0.31 + 0.05j),
]


def classical_completion(tau, u, v):
    """i times the library rank-one sum, completed with (i/2) R(u - v)."""
    mu = 1j * mu_m_jet(1, C(tau), C(u), C(v)).value
    R = zwegers_R_jet(C(tau), C(u - v)).value
    return mu + 0.5j * R


# ----------------------------------------------------------------------
# classical modular laws of the completed rank-one function


@pytest.mark.parametrize("tau,u,v", CASES)
def test_classical_completion_t_law(tau, u, v):
    a = classical_completion(tau + 1, u, v)
    b = cmath.exp(-1j * math.pi / 4.0) * classical_completion(tau, u, v)
    assert abs(a - b) <= 1e-13 * abs(b)


@pytest.mark.parametrize("tau,u,v", CASES)
def test_classical_completion_s_law(tau, u, v):
    a = classical_completion(-1.0 / tau, u / tau, v / tau)
    b = (
        -cmath.sqrt(-1j * tau)
        * cmath.exp(-1j * math.pi * (u - v) ** 2 / tau)
        * classical_completion(tau, u, v)
    )
    assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("tau,u,v", CASES)
def test_rank_one_symmetry_and_ellipticity(tau, u, v):
    a = mu_m_jet(1, C(tau), C(u), C(v)).value
    assert abs(mu_m_jet(1, C(tau), C(v), C(u)).value - a) < 1e-13 * abs(a)
    assert abs(mu_m_jet(1, C(tau), C(u + 1), C(v)).value + a) < 1e-13 * abs(a)


def test_completed_two_variable_ellipticity():
    tau, u, v = CASES[0]
    a = mu_two_variable_jet(C(tau), C(u), C(v)).value
    b = mu_two_variable_jet(C(tau), C(u + 1), C(v)).value
    assert abs(b + a) < 1e-13 * abs(a)


# ----------------------------------------------------------------------
# parameters, labels, lattice enumeration


def test_component_labels_parity():
    assert component_labels(2) == [0, 1]
    assert component_labels(1) == [0.5]
    assert component_labels(3) == [0.5, 1.5, 2.5]


def test_mu_parameters_validation():
    MuParameters(1, 0.5)
    with pytest.raises(DomainError):
        MuParameters(0)
    with pytest.raises(DomainError):
        MuParameters(99)


def test_lattice_multiplicities_count_states():
    # rank 2, radius 1: 9 lattice points grouped by (entry sum, square sum)
    states = {(s1, s2): cnt for s1, s2, cnt in lattice_multiplicities(2, 1).tolist()}
    assert sum(states.values()) == 9
    assert states[(0, 2)] == 2  # (1, -1) and (-1, 1)
    assert states[(0, 0)] == 1


# ----------------------------------------------------------------------
# poles


def test_pole_detection_at_lattice_points():
    p = EvalPoint(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(EvaluationAtPole):
        mu_m_jet(1, C(p.tau), C(0.3 + 0.1j), C(0.0j))


def test_mu_hat_2_pole_at_half_half():
    with pytest.raises(EvaluationAtPole):
        mu_hat_2_handle().eval(EvalPoint(0.0, 1.0, 0.5, 0.5))


# ----------------------------------------------------------------------
# the completed component family


POINTS = [
    EvalPoint(0.13, 1.1, 0.21, 0.17),
    EvalPoint(-0.40, 0.9, 0.05, 0.31),
]


@pytest.mark.parametrize("two_m", [1, 2])
def test_component_t_law(two_m):
    # tau -> tau + 1 multiplies the label-l component by e(-l^2 / 4m)
    for l in component_labels(two_m):
        phase = cmath.exp(2j * math.pi * (-l * l) / (2.0 * two_m))
        for p in POINTS:
            a = mu_hat_component_jet(two_m, l, C(p.tau + 1.0), C(p.z)).value
            b = phase * mu_hat_component_jet(two_m, l, C(p.tau), C(p.z)).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (two_m, l)


@pytest.mark.parametrize("two_m", [1, 2])
def test_component_shadow_is_theta(two_m):
    # the weight bookkeeping: d_taubar and d_zbar of the completed
    # component combine into the covariant image checked in
    # test_operators; here the raw antiholomorphic derivative of the
    # completion part must match that of the R-summand alone
    for l in component_labels(two_m):
        th = theta_ml_handle(two_m, l)
        from mjlab.operators import xi_H

        image = xi_H(WeightIndex(1, -two_m), mu_hat_ml_handle(two_m, l))
        for p in POINTS:
            a = image.eval(p)
            b = th.eval(p)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (two_m, l)


def test_completion_splits_into_holomorphic_plus_r_part():
    two_m, l = 2, 1
    p = POINTS[0]
    from mjlab.core import JetVars

    jv = JetVars.at(p, 1)
    full = mu_hat_component_jet(two_m, l, jv.tau, jv.z)
    rpart = r_hat_component_jet(two_m, l, jv.tau, jv.z)
    holo = full - rpart
    assert abs(d_taubar(holo).value) < 1e-9
    assert abs(d_zbar(holo).value) < 1e-9


def test_component_point_evaluators_agree_with_jets():
    params = MuParameters(2, 1)
    p = POINTS[0]
    a = mu_hat_ml_handle(params.two_m, params.l).eval(p)
    b = mu_hat_component_jet(2, 1, C(p.tau), C(p.z)).value
    assert a == b
    h = R_hat_ml_handle(2, 1)
    c = r_hat_component_jet(2, 1, C(p.tau), C(p.z)).value
    assert abs(h.eval(p) - c) < 1e-15


def test_component_truncation_invariance():
    p = POINTS[0]
    a = mu_hat_component_jet(1, 0.5, C(p.tau), C(p.z),
                             TruncationPolicy(tail_bound=1e-10)).value
    b = mu_hat_component_jet(1, 0.5, C(p.tau), C(p.z),
                             TruncationPolicy(tail_bound=1e-15)).value
    assert abs(a - b) < 1e-9 * max(1.0, abs(b))


def test_mu_hat_2_matches_two_variable_completion_at_torsion_point():
    p = POINTS[0]
    tau, z = p.tau, p.z
    shift = 0.5 * (1.0 + tau)
    want = mu_two_variable_jet(C(tau), C(z + shift), C(shift)).value
    assert abs(mu_hat_2_handle().eval(p) - want) < 1e-13 * max(1.0, abs(want))


def test_handles_carry_labels():
    assert "mu_hat" in mu_hat_ml_handle(2, 0).label
    assert "mu_hat_2" in mu_hat_2_handle().label
