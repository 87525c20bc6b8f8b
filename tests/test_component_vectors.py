"""Component vectors: the theta components and the completed components of
one rank evaluated at all their labels at once, one row per label, each row
its component evaluated alone, bit for bit."""

import numpy as np
import pytest

from mjlab.core import EvalPoint, JetVars, labels
from mjlab.errors import DomainError
from mjlab.jets import Jet
from mjlab.kernels import component_at
from mjlab.mu import mu_hat_component_jet, mu_m_jet
from mjlab.special import theta_ml_jet

ORDERS = (0, 1, 2, 3)
# points inside every component's domain up to 2m = 4 (larger Im tau or v
# overflow the R-series of the last label at 2m = 3), with different radii
POINTS = (
    EvalPoint(0.13, 1.1, 0.21, 0.17),
    EvalPoint(-0.40, 0.9, 0.05, 0.31),
    EvalPoint(0.02, 0.8, 0.40, -0.27),
)
AT = [POINTS, POINTS[0]]  # a point stack and one point


def assert_rows_are_components(evaluate, two_m, jv):
    ls = labels(two_m)
    got = evaluate(two_m, ls, jv.tau, jv.z)
    assert got.c.shape == (len(ls),) + jv.tau.c.shape
    for row, l in zip(got.c, ls):
        assert row.tobytes() == evaluate(two_m, l, jv.tau, jv.z).c.tobytes(), (two_m, l)


@pytest.mark.parametrize("at", AT, ids=("stack", "point"))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("two_m", (1, 2, 3, 4))
def test_theta_vector_rows_are_its_components(two_m, order, at):
    assert_rows_are_components(theta_ml_jet, two_m, JetVars.at(at, order))


@pytest.mark.parametrize("at", AT, ids=("stack", "point"))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("two_m", (1, 2, 3))
def test_completed_vector_rows_are_its_components(two_m, order, at):
    assert_rows_are_components(mu_hat_component_jet, two_m, JetVars.at(at, order))


@pytest.mark.parametrize("order", (0, 2))
def test_appell_rows_over_z1_are_each_sum_alone(order):
    jv = JetVars.at(POINTS, order)
    z2 = 0.25 - jv.z
    z1s = [0.5 + s * jv.tau for s in (0.5, 1.5, 2.5)]
    got = mu_m_jet(3, jv.tau, z1s, z2)
    for row, z1 in zip(got.c, z1s):
        assert row.tobytes() == mu_m_jet(3, jv.tau, z1, z2).c.tobytes()


def test_a_label_vector_needs_a_label():
    jv = JetVars.at(POINTS[0], 0)
    for evaluate in (theta_ml_jet, mu_hat_component_jet):
        with pytest.raises(DomainError):
            evaluate(2, [], jv.tau, jv.z)
    with pytest.raises(DomainError):
        mu_hat_component_jet(2, [0.0, 0.5], jv.tau, jv.z)  # 0.5 is no label of 2m = 2


def test_component_at_holds_one_vector_per_label_tuple():
    jv = JetVars.at(POINTS, 1)
    calls = []

    def counted(two_m, ls, tau, z, policy):
        calls.append(ls)
        return theta_ml_jet(two_m, ls, tau, z, policy)

    first = component_at(counted, 2, (0, 1), jv)
    assert component_at(counted, 2, (0, 1), jv) is first
    assert calls == [(0, 1)]
    assert isinstance(first, Jet) and np.array_equal(
        first.c[1], theta_ml_jet(2, 1, jv.tau, jv.z).c)
