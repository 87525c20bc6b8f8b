"""A stack of points evaluates to its points: at orders 0-3 every catalog jet
evaluator, kernel term, operator image and slash gives, at a stack of
points, the rows it gives at each point alone (to 1e-13 of the largest
coefficient), and it raises the error type a point alone raises."""

import math

import numpy as np
import pytest

from mjlab.core import (
    EvalPoint,
    FunctionHandle,
    JetVars,
    TruncationPolicy,
    WeightIndex,
    _compose_taylor,
)
from mjlab.errors import (
    DomainError,
    PoleAtAppell,
    PoleAtTheta,
    TruncationOverflow,
    ValueOverflow,
)
from mjlab.group import TaggedForm, apply_slash
from mjlab.jets import Jet, monomials
from mjlab.kernels import KernelParams, kernel_jet, kernel_term_handle
from mjlab.mu import (
    _state_counts,
    lattice_multiplicities,
    mu_hat_2_jet,
    mu_hat_component_jet,
    mu_m_jet,
    mu_two_variable_jet,
    r_hat_component_jet,
)
from mjlab.operators import _OPERATORS, apply_operator, image
from mjlab.special import jacobi_theta_jet, theta_ml_handle, theta_ml_jet, zwegers_R_jet
from mjlab.verify import (
    GENERATORS,
    _rows,
    _stacked,
    lapK_factorization,
    verify_identities,
)
from mjlab.weil import labels

ORDERS = (0, 1, 2, 3)
# Im(tau) = 0.5 and 3 need different truncation radii in every series
STACK = (
    EvalPoint(0.13, 0.5, 0.21, 0.17),
    EvalPoint(-0.3, 3.0, 0.4, -0.2),
    EvalPoint(0.41, 1.1, -0.35, 0.3),
)


def outcome(fn, jv):
    """The jet coefficients of fn(jv), or the type of the error raised."""
    try:
        return fn(jv).c
    except Exception as exc:  # compared by type below
        return type(exc)


def assert_stack_equals_points(fn, order, points=STACK, parts=None):
    """fn at the point stack against fn at each point alone, to 1e-13 of
    the largest coefficient (of parts(jv) too, where fn is a cancellation
    of larger parts)."""
    stacked = outcome(fn, JetVars.at(points, order))
    singles = [outcome(fn, JetVars.at(p, order)) for p in points]
    failures = {s for s in singles if isinstance(s, type)}
    if failures:
        # the stack raises what a point alone raises
        if len(failures) == 1:
            assert stacked in failures, (stacked, failures)
        else:
            assert stacked in failures or not isinstance(stacked, type), (stacked, failures)
        return
    assert not isinstance(stacked, type), stacked
    rows = np.broadcast_to(stacked, (len(points),) + singles[0].shape)
    for p, row, single in zip(points, rows, singles):
        scale = np.max(np.abs(single))
        if parts is not None:
            scale = max(scale, np.max(np.abs(parts(JetVars.at(p, order)).c)))
        assert np.max(np.abs(row - single)) <= 1e-13 * scale, (p, scale)


# ----------------------------------------------------------------------
# catalog jet evaluators


def _component_args(two_m, l):
    lpm = l + two_m / 2.0

    def mu_args(jv):
        zs = jv.z + 0.5
        return two_m, jv.tau, 0.5 + lpm * jv.tau, 1.0 / (2.0 * two_m) - zs

    return mu_args


@pytest.mark.parametrize("order", ORDERS)
def test_theta_and_R_stacks(order):
    assert_stack_equals_points(lambda jv: jacobi_theta_jet(jv.tau, jv.z), order)
    assert_stack_equals_points(lambda jv: zwegers_R_jet(jv.tau, jv.z), order)
    for two_m in range(1, 7):
        for l in labels(two_m)[:2]:
            assert_stack_equals_points(lambda jv: theta_ml_jet(two_m, l, jv.tau, jv.z), order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("two_m", range(1, 7))
def test_appell_family_stacks(two_m, order):
    l = labels(two_m)[-1]
    args = _component_args(two_m, l)
    assert_stack_equals_points(lambda jv: mu_m_jet(*args(jv)), order)
    assert_stack_equals_points(lambda jv: mu_hat_component_jet(two_m, l, jv.tau, jv.z), order)
    assert_stack_equals_points(lambda jv: r_hat_component_jet(two_m, l, jv.tau, jv.z), order)


@pytest.mark.parametrize("order", ORDERS)
def test_completion_stacks(order):
    assert_stack_equals_points(lambda jv: mu_hat_2_jet(jv.tau, jv.z), order)
    assert_stack_equals_points(
        lambda jv: mu_two_variable_jet(jv.tau, jv.z + 0.3j, 0.2 + 0.1j * jv.tau), order
    )


# a loose tail target: the points of the stack drop different lattice
# states at the tail floor (1e-5), so a point that summed a state it drops
# alone would move its value far beyond 1e-13
LOOSE = TruncationPolicy(tail_bound=1e-3)


@pytest.mark.parametrize("order", (0, 1))
def test_each_point_sums_its_own_terms(order):
    assert_stack_equals_points(lambda jv: jacobi_theta_jet(jv.tau, jv.z, LOOSE), order)
    assert_stack_equals_points(lambda jv: zwegers_R_jet(jv.tau, jv.z, LOOSE), order)
    for two_m in (1, 2, 3):
        l = labels(two_m)[-1]
        assert_stack_equals_points(lambda jv: theta_ml_jet(two_m, l, jv.tau, jv.z, LOOSE), order)
        args = _component_args(two_m, l)
        assert_stack_equals_points(lambda jv: mu_m_jet(*args(jv), LOOSE), order)


def test_state_counts_are_each_points_own():
    """At a stack whose Appell radii differ each point reads the counts of
    its own radius (0 for a state outside its cube)."""
    radius = np.array([1, 3, 2, 3])
    s1, s2, counts = _state_counts(3, radius)
    for r, row in zip(radius.tolist(), counts):
        got = {(a, b): c for a, b, c in zip(s1.tolist(), s2.tolist(), row.tolist()) if c}
        assert got == {(a, b): c for a, b, c in lattice_multiplicities(3, r).tolist()}


KERNEL_PARAMS = (KernelParams.of(0.5, -1, -1, 1), KernelParams.of(1.5, 0.5, 0, 1),
                 KernelParams.of(0.5, -1, 0, 0))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("params", KERNEL_PARAMS)
def test_kernel_term_stacks(params, order):
    for skew in (False, True):
        for i in (1, 2, 3, 4):
            assert_stack_equals_points(lambda jv: kernel_jet(i, params, skew, jv), order)
            h = kernel_term_handle(i, params, skew=skew)
            assert_stack_equals_points(h.jet_at, order)


# ----------------------------------------------------------------------
# operators and slashes


def yv_probe():
    """exp(2 pi i (tau + z)) y v: smooth, neither holomorphic nor skew."""

    def je(jv):
        return (2j * math.pi * (jv.tau + jv.z)).exp() * jv.y * jv.v

    return FunctionHandle(jet_fn=je, label="yv")


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_every_operator_image_stacks(name, order):
    jmap = _OPERATORS[name][0](0.5, -1.0)
    assert_stack_equals_points(image(jmap, yv_probe()).jet_at, order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_every_generator_slash_stacks(gen, order):
    A = GENERATORS[gen]
    wi = WeightIndex(1, -2)
    for kind in ("standard", "skew"):
        slashed = apply_slash(TaggedForm(yv_probe(), wi, kind), A).f
        assert_stack_equals_points(slashed.jet_at, order)
    # an operator image on transformed coordinates (composed per point)
    img = image(_OPERATORS["Casimir"][0](0.5, -1.0), theta_ml_handle(2, 0))
    slashed = apply_slash(TaggedForm(img, wi, "standard"), A).f
    assert_stack_equals_points(slashed.jet_at, min(order, 2))


def test_taylor_composition_of_a_zero_table_keeps_its_batch_shape():
    """An all-zero table (two operand rows over the point stack) composes
    to zeros of its own batch shape, not to one unbatched zero."""
    plain = JetVars.at(STACK, 2)
    shift = (plain.x * 2.0, plain.y * 2.0, plain.u, plain.v)
    table = Jet(2, np.zeros((2, len(STACK), len(monomials(2))), dtype=complex))
    out = _compose_taylor(table, shift, 2)
    assert out.c.shape == table.c.shape and not out.c.any()


def test_slash_of_a_vanishing_image_keeps_the_operand_rows():
    """X- annihilates the holomorphic theta_ml[2,0]: its image, slashed by
    S, is one zero row per stacked operand and point."""
    rows = TaggedForm(_stacked([theta_ml_handle(2, 0)] * 2), WeightIndex(1, 2))
    slashed = apply_slash(apply_operator("X-", rows), GENERATORS["S"]).f
    value = slashed.jet_at(JetVars.at(STACK, 0)).value
    assert value.shape == (2, len(STACK)) and not value.any()


@pytest.mark.parametrize("order", (0, 2))
def test_a_row_stack_is_its_handles_alone(order):
    """Every row of a stacked handle, of its operator image and of its
    slash is bit for bit what the row's handle gives alone."""
    handles = [theta_ml_handle(2, 0), yv_probe(), kernel_term_handle(3, KERNEL_PARAMS[0])]
    jv = JetVars.at(STACK, order)
    wi = WeightIndex(1, -2)
    stacked = TaggedForm(_stacked(handles), wi)
    for build in (
        lambda phi: phi,
        lambda phi: apply_operator("Y+", phi),
        lambda phi: apply_slash(phi, GENERATORS["S"]),
        lambda phi: apply_slash(apply_operator("X+", phi), GENERATORS["lambda"]),
    ):
        rows = build(stacked).f.jet_at(jv).c
        assert rows.shape[0] == len(handles)
        for row, h in zip(rows, handles):
            assert np.array_equal(row, build(TaggedForm(h, wi)).f.jet_at(jv).c)


# ----------------------------------------------------------------------
# error parity


def C(values):
    """Order-0 constant jets, one row per value."""
    return Jet.constant(np.array(values, dtype=complex), 0)


@pytest.mark.parametrize(
    "fn,args,error",
    [
        # one row at a theta zero, one at an Appell pole
        (mu_m_jet, (2, C([0.1 + 1j, 0.1 + 1j]), C([0.3, 0.3]), C([0.2, 1.1 + 1j])), PoleAtTheta),
        (mu_m_jet, (1, C([0.1 + 1j, 0.1 + 1j]), C([0.3, 2.0]), C([0.2 + 0.1j] * 2)), PoleAtAppell),
        # one row overflows, one needs more terms than the cap allows
        (zwegers_R_jet, (C([0.13 + 1.1j, 0.1 + 10j]), C([0.2, 0.1 + 3j])), ValueOverflow),
        (zwegers_R_jet, (C([0.13 + 1.1j, 0.02j]), C([0.2, 0.1 + 2j])), TruncationOverflow),
        # one row needs a radius beyond the float range
        (jacobi_theta_jet, (C([1j, 1j]), C([0.1j, 1e300j])), TruncationOverflow),
    ],
)
def test_one_failing_row_raises_its_error(fn, args, error):
    rows = [tuple(Jet(a.order, a.c[i]) if isinstance(a, Jet) else a for a in args)
            for i in range(2)]
    fn(*rows[0])  # the first row alone succeeds
    with pytest.raises(error):
        fn(*rows[1])
    with pytest.raises(error):
        fn(*args)


@pytest.mark.parametrize("order", (0, 1))
def test_a_stack_reaching_huge_im_tau_is_its_one_point_stacks(order):
    """At Im(tau) = 1e308, pi Im(tau) is beyond the float range: a stack's
    radius arithmetic takes the inf without a warning (an error under the
    test filters), and that point's masked terms, whose exponents are
    -inf, are 0, not nan."""
    points = (EvalPoint(0.0, 1.0, 0.1, 0.0), EvalPoint(0.0, 1e308, 0.1, 0.0))
    for fn in (lambda jv: jacobi_theta_jet(jv.tau, jv.z),
               lambda jv: theta_ml_jet(2, 0.0, jv.tau, jv.z)):
        rows = fn(JetVars.at(points, order)).c
        for p, row in zip(points, rows):
            single = fn(JetVars.at([p], order)).c[0]
            assert np.max(np.abs(row - single)) <= 1e-13 * np.max(np.abs(single)), p


# the completed components at every rank and label, Im(tau) in {0.5, 1.2, 3}
# and Im(z) / Im(tau) in {-0.95, 0, 0.95}, many of which overflow alone
PROBE_POINTS = [EvalPoint(0.1, y, 0.2, a * y) for y in (0.5, 1.2, 3.0) for a in (-0.95, 0.0, 0.95)]


@pytest.mark.parametrize("two_m", range(1, 7))
def test_points_that_succeed_alone_never_raise_in_a_stack(two_m):
    for l in labels(two_m):
        fn = lambda jv: mu_hat_component_jet(two_m, l, jv.tau, jv.z)
        good = [p for p in PROBE_POINTS if not isinstance(outcome(fn, JetVars.at(p, 0)), type)]
        assert good
        # at some of these points the component is a cancellation of its
        # Appell and R parts (|R part| up to 5e3 against a value of 1e-4)
        r_part = lambda jv: r_hat_component_jet(two_m, l, jv.tau, jv.z)
        assert_stack_equals_points(fn, 0, good, parts=r_part)
        assert_stack_equals_points(fn, 0, PROBE_POINTS)


def reduced(results):
    """(max residual, worst point) of each row of `_rows`."""
    return [(res.max_residual, res.worst_point) for res in results]


def test_rows_is_nan_if_one_point_is_nan():
    points = STACK

    def residual(jv):
        return np.where(jv.y.value.real == 3.0, math.nan, 0.0)

    [(value, worst)] = reduced(_rows(["r"], residual, points, 1.0))
    assert math.isnan(value) and worst == [-0.3, 3.0, 0.4, -0.2]
    assert reduced(_rows(["r"], residual, points[:1], 1.0)) == [(0.0, [0.13, 0.5, 0.21, 0.17])]

    def je(jv):  # NaN on the second row only
        return jv.y * np.where(jv.y.value.real == 3.0, math.nan, 1.0)

    h = FunctionHandle(jet_fn=je, label="nan-row")
    [result] = verify_identities([(name, jmap, h) for name, jmap in lapK_factorization(1.5)],
                                 points)
    assert math.isnan(result.max_residual)
    assert not result.passed


def test_rows_reduces_each_operand_row_alone():
    """With operand rows, a NaN in one row makes that row NaN and no other,
    and a stack of no points gives 0.0 per row.  Each row names its own
    worst point: the first of equal maxima, the NaN point of a NaN row."""

    def residual(jv):
        y = jv.y.value.real
        return np.stack([y, np.where(y == 3.0, math.nan, -y), 0.0 * y])

    names = ["a", "b", "c"]
    first, second = [0.13, 0.5, 0.21, 0.17], [-0.3, 3.0, 0.4, -0.2]
    got = _rows(names, residual, STACK, 1.0)
    assert [res.identity for res in got] == names and all(res.tol == 1.0 for res in got)
    got = reduced(got)
    assert got[0] == (3.0, second) and got[2] == (0.0, first)
    assert math.isnan(got[1][0]) and got[1][1] == second
    assert reduced(_rows(names, residual, STACK[:1], 1.0)) == [(0.5, first), (0.5, first),
                                                                (0.0, first)]
    assert reduced(_rows(names, residual, [], 1.0)) == [(0.0, None)] * 3
    assert reduced(_rows(["r"], residual, [], 1.0)) == [(0.0, None)]


def test_rows_at_a_point_alone_name_that_point():
    """At one EvalPoint (not a stack of one), each row is one value and
    names the point."""

    def residual(jv):
        return [jv.y.value.real, 2.0 * jv.x.value.real]

    p = STACK[0]
    assert reduced(_rows(["y", "2x"], residual, p, 1.0)) == [
        (0.5, [0.13, 0.5, 0.21, 0.17]), (0.26, [0.13, 0.5, 0.21, 0.17])]


# ----------------------------------------------------------------------
# a tail target per point

TAILS = (1e-14, 1e-56)


def assert_per_point_tail_is_each_tail(fn, order, exact):
    """fn(jv, policy) on STACK taken twice, with one tail target per point
    (1e-14 on the first copy, 1e-56 on the second), against fn on STACK at
    each target: bit for bit where exact, else to 1e-14 of the largest
    coefficient; where fn raises at a target, the error type it raises."""
    n = len(STACK)
    policy = TruncationPolicy(tail_bound=(TAILS[0],) * n + (TAILS[1],) * n)
    both = outcome(lambda jv: fn(jv, policy), JetVars.at(STACK * 2, order))
    wants = [outcome(lambda jv: fn(jv, TruncationPolicy(tail_bound=tail)), JetVars.at(STACK, order))
             for tail in TAILS]
    failures = {want for want in wants if isinstance(want, type)}
    if failures:
        assert both in failures, (both, failures)
        return
    for half, want in zip((both[:n], both[n:]), wants):
        if exact:
            assert np.array_equal(half, want)
        else:
            assert np.max(np.abs(half - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("order", ORDERS)
def test_a_tail_per_point_gives_each_point_its_own_tail(order):
    """theta_ml, a plain sum over its terms, bit for bit.  theta and R
    weight their terms in one matrix product, and the Appell family
    contracts per-point weights over the states of the whole stack, whose
    rounding depends on how many terms the stack holds: to 1e-14."""
    assert_per_point_tail_is_each_tail(lambda jv, p: jacobi_theta_jet(jv.tau, jv.z, p), order, False)
    assert_per_point_tail_is_each_tail(lambda jv, p: zwegers_R_jet(jv.tau, jv.z, p), order, False)
    for two_m in (1, 2, 3):
        l = labels(two_m)[-1]
        assert_per_point_tail_is_each_tail(
            lambda jv, p: theta_ml_jet(two_m, l, jv.tau, jv.z, p), order, True)
        args = _component_args(two_m, l)
        assert_per_point_tail_is_each_tail(lambda jv, p: mu_m_jet(*args(jv), p), order, False)
        assert_per_point_tail_is_each_tail(
            lambda jv, p: mu_hat_component_jet(two_m, l, jv.tau, jv.z, p), order, False)
    assert_per_point_tail_is_each_tail(lambda jv, p: mu_hat_2_jet(jv.tau, jv.z, p), order, False)


def test_a_tail_per_point_needs_one_tail_per_point():
    policy = TruncationPolicy(tail_bound=TAILS)
    jv = JetVars.at(STACK, 0)
    for fn in (lambda: jacobi_theta_jet(jv.tau, jv.z, policy),
               lambda: zwegers_R_jet(jv.tau, jv.z, policy),
               lambda: mu_hat_component_jet(2, 0.0, jv.tau, jv.z, policy)):
        with pytest.raises(DomainError, match="2 targets for 3 points"):
            fn()
