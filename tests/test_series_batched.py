"""The batched series evaluators against their term-by-term reference loops
(tests/series_reference.py): same jets to 1e-13 relative to the largest
coefficient at orders 0-3, and the same error type where either raises."""

import numpy as np
import pytest

import series_reference as ref
from mjlab.core import EvalPoint, JetVars, TruncationPolicy
from mjlab.errors import DomainError, PoleAtAppell, PoleAtTheta, TruncationOverflow
from mjlab.jets import Jet
from mjlab.mu import (
    COMPONENT_SHIFT,
    _r_argument,
    lattice_multiplicities,
    mu_hat_component_jet,
    mu_m_jet,
)
from mjlab.special import jacobi_theta_jet, theta_ml_jet, zwegers_R_jet
from mjlab.weil import labels

ORDERS = (0, 1, 2, 3)
# (x, y, u, v) of the comparison points; small and large Im(tau), both
# signs of Im(z)
POINTS = ((0.13, 1.1, 0.21, 0.17), (-0.3, 0.45, 0.4, -0.2), (0.41, 0.8, -0.35, 0.3))


def outcome(fn, *args):
    """The jet coefficients, or the type of the error raised."""
    try:
        return fn(*args).c
    except Exception as exc:  # compared by type below
        return type(exc)


def reference(fn, *args):
    """The outcome of a reference loop, with a silent overflow of a
    coefficient (inf or nan) counted as the OverflowError that the batched
    form raises there."""
    out = outcome(fn, *args)
    if isinstance(out, type) or np.isfinite(out).all():
        return out
    return OverflowError


def assert_same(got, want, label):
    if want is OverflowError and not isinstance(got, type):
        # where the loop overflows, a finite value is as good as the raise
        assert np.isfinite(got).all(), label
        return
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, (label, got, want)
        return
    assert got.shape == want.shape, label
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale, (label, scale)


def coordinates(point, order):
    jv = JetVars.at(EvalPoint(*point), order)
    return jv.tau, jv.z


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("point", POINTS)
def test_theta_and_R_match_reference(point, order):
    tau, z = coordinates(point, order)
    for name, fast, slow in (
        ("theta", jacobi_theta_jet, ref.jacobi_theta),
        ("R", zwegers_R_jet, ref.zwegers_R),
    ):
        assert_same(outcome(fast, tau, z), reference(slow, tau, z), name)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("two_m", range(1, 7))
def test_theta_ml_matches_reference(two_m, order):
    for point in POINTS:
        tau, z = coordinates(point, order)
        for l in labels(two_m):
            assert_same(
                outcome(theta_ml_jet, two_m, l, tau, z),
                reference(ref.theta_ml, two_m, l, tau, z),
                (two_m, l, point),
            )


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("two_m", range(1, 7))
def test_component_series_match_reference(two_m, order):
    """The Appell sum and the R-series at the arguments the completed
    component of every canonical label evaluates them at."""
    for point in POINTS:
        tau, z = coordinates(point, order)
        zs = z + COMPONENT_SHIFT
        for l in labels(two_m):
            lpm = l + two_m / 2.0
            mu_args = (two_m, tau, 0.5 + lpm * tau, 1.0 / (2.0 * two_m) - zs)
            r_args = (two_m * tau, _r_argument(two_m, l, tau, zs))
            assert_same(outcome(mu_m_jet, *mu_args), reference(ref.mu_m, *mu_args),
                        ("mu", two_m, l, point))
            assert_same(outcome(zwegers_R_jet, *r_args), reference(ref.zwegers_R, *r_args),
                        ("R", two_m, l, point))


def C(w):
    return Jet.constant(complex(w), 0)


TIGHT = TruncationPolicy(max_radius=3)
# (batched, reference, arguments, the error both raise)
ERROR_CASES = [
    (jacobi_theta_jet, ref.jacobi_theta, (C(0.3), C(0.1)), DomainError),
    (jacobi_theta_jet, ref.jacobi_theta, (C(1j), C(0.1), TIGHT), TruncationOverflow),
    (theta_ml_jet, ref.theta_ml, (0, 0, C(1j), C(0.1)), DomainError),
    (theta_ml_jet, ref.theta_ml, (2, 1, C(0.001j), C(0.1)), TruncationOverflow),
    (zwegers_R_jet, ref.zwegers_R, (C(-1j), C(0.1)), DomainError),
    (zwegers_R_jet, ref.zwegers_R, (C(0.02j), C(0.1 + 2j)), TruncationOverflow),
    (mu_m_jet, ref.mu_m, (7, C(1j), C(0.3), C(0.2)), DomainError),
    (mu_m_jet, ref.mu_m, (2, C(0.1), C(0.3), C(0.2)), DomainError),
    (mu_m_jet, ref.mu_m, (2, C(0.1 + 1j), C(0.3), C(1.1 + 1j)), PoleAtTheta),
    (mu_m_jet, ref.mu_m, (1, C(0.1 + 1j), C(2.0), C(0.2 + 0.1j)), PoleAtAppell),
    (mu_m_jet, ref.mu_m, (3, C(0.1 + 1j), C(-0.1 - 1j), C(0.2 + 0.1j)), PoleAtAppell),
    (mu_m_jet, ref.mu_m, (2, C(0.001j), C(0.3), C(0.2)), TruncationOverflow),
]


@pytest.mark.parametrize("fast,slow,args,error", ERROR_CASES)
def test_batched_and_reference_raise_the_same_error(fast, slow, args, error):
    with pytest.raises(error):
        slow(*args)
    with pytest.raises(error):
        fast(*args)


def test_lattice_multiplicities_match_reference_states():
    for rank in range(1, 7):
        for radius in range(1, 6):
            rows = lattice_multiplicities(rank, radius).tolist()
            assert rows == [[s1, s2, c] for (s1, s2), c in
                            sorted(ref.lattice_states(rank, radius).items())]


def test_no_silent_overflow_in_R():
    """R at a point whose Gaussian factor overflows raises or is finite."""
    try:
        value = zwegers_R_jet(C(0.1 + 10j), C(0.1 + 3j))
    except (OverflowError, ArithmeticError):
        return
    assert np.isfinite(value.c).all()


# the completed components at every rank and label, Im(tau) in {0.5, 1.2, 3}
# and Im(z) / Im(tau) in {-0.95, 0, 0.95}: 78 of these 189 points overflowed
# in the R-series of the term-by-term loop
COMPONENT_PROBES = [
    (two_m, l, complex(0.1, y), complex(0.2, a * y))
    for two_m in range(1, 7) for l in labels(two_m)
    for y in (0.5, 1.2, 3.0) for a in (-0.95, 0.0, 0.95)
]


def test_no_silent_overflow_in_completed_components():
    raised = 0
    for two_m, l, tau, z in COMPONENT_PROBES:
        try:
            value = mu_hat_component_jet(two_m, l, C(tau), C(z))
        except (OverflowError, ArithmeticError):
            raised += 1
            continue
        assert np.isfinite(value.c).all(), (two_m, l, tau, z)
    assert raised <= 78
