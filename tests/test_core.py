"""Points, weights, truncation policy, coordinate jets and their memo, and
finite-difference jets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from fd_reference import bits, reference_fd_jet

from mjlab import catalog
from mjlab.core import (
    EvalPoint,
    FunctionHandle,
    JetVars,
    TruncationPolicy,
    WeightIndex,
    _compose_taylor,
    exp_qn_zeta_r,
    finite_difference_jet,
    fourier_sum_handle,
    half_integer,
    principal_sqrt,
    require_finite,
)
from mjlab.errors import (
    DomainError,
    JetUnavailable,
    NonFinite,
    StencilOutOfDomain,
    ZeroArgument,
)
from mjlab.fourier import FourierData
from mjlab.group import GEN_S, TaggedForm, _frame, slash
from mjlab.jets import monomials
from mjlab.kernels import h_series_handle
from mjlab.mu import mu_hat_ml_handle


class TestEvalPoint:
    def test_tau_z_roundtrip(self):
        p = EvalPoint(0.3, 1.4, -0.2, 0.7)
        q = EvalPoint.from_tau_z(p.tau, p.z)
        assert p == q

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            EvalPoint(0.0, -1.0)
        with pytest.raises(DomainError):
            EvalPoint(0.0, 0.0)

    def test_q_zeta(self):
        p = EvalPoint(0.0, 1.0, 0.5, 0.0)
        assert abs(p.q - math.exp(-2.0 * math.pi)) < 1e-15
        assert abs(p.zeta + 1.0) < 1e-15


class TestWeightIndex:
    def test_of_half_integers(self):
        wi = WeightIndex.of(0.5, -1.5)
        assert (wi.two_k, wi.two_m) == (1, -3)
        assert wi.k == 0.5 and wi.m == -1.5

    def test_rejects_zero_index_and_noninteger_numerators(self):
        with pytest.raises(DomainError):
            WeightIndex(1, 0)
        with pytest.raises(DomainError):
            WeightIndex(1.5, 2)

    def test_of_rejects_what_is_not_a_half_integer(self):
        # no rounding to the nearest half-integer
        for k, m in ((0.74, -1.26), (0.5, 1.2), (1 / 3, 1.0), (0.5, float("nan"))):
            with pytest.raises(DomainError):
                WeightIndex.of(k, m)

    def test_shift_and_negate(self):
        wi = WeightIndex.of(0.5, 1.0)
        assert wi.shift_k(2).k == 1.5
        assert wi.negate_m().m == -1.0


def test_half_integer():
    assert half_integer(1.5, "k") == 3
    assert half_integer(-2, "m") == -4
    assert half_integer(0.5 + 1e-12, "k") == 1
    for bad in (0.74, 0.25, 1.0 + 1e-6, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="m must be a half-integer"):
            half_integer(bad, "m")


class TestTruncationPolicy:
    def test_defaults(self):
        policy = TruncationPolicy()
        assert policy.tail_bound == 1e-14
        assert policy.max_radius == 64

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            TruncationPolicy(tail_bound=0.0)
        with pytest.raises(DomainError):
            TruncationPolicy(max_radius=0)

    @pytest.mark.parametrize("tail", [-1e-3, 1.0, 2.0, float("inf"), float("nan")])
    def test_tail_bound_lies_strictly_between_0_and_1(self, tail):
        # a tail target of 1 or more has log(1/tail) <= 0, which no radius meets
        with pytest.raises(DomainError, match="tail_bound must lie in"):
            TruncationPolicy(tail_bound=tail)

    def test_a_tuple_holds_one_tail_per_point(self):
        policy = TruncationPolicy(tail_bound=(1e-14, 1e-56))
        assert policy == TruncationPolicy(tail_bound=(1e-14, 1e-56))
        assert hash(policy) == hash(TruncationPolicy(tail_bound=(1e-14, 1e-56)))
        y0 = np.array([1.1, 1.5])
        assert policy.tail_at(y0).tolist() == [1e-14, 1e-56]
        assert policy.tail_at(y0, math.log).tolist() == [math.log(1e-14), math.log(1e-56)]
        assert TruncationPolicy(tail_bound=(1e-3,)).tail_at(1.1) == 1e-3
        assert TruncationPolicy().tail_at(y0) == 1e-14

    @pytest.mark.parametrize("tail", [(), (1e-14, 0.0), (1.0,), (1e-14, float("nan")),
                                      (float("inf"),), (-1e-3, 1e-14)])
    def test_every_tail_of_a_tuple_lies_strictly_between_0_and_1(self, tail):
        with pytest.raises(DomainError, match="every tail_bound must lie in"):
            TruncationPolicy(tail_bound=tail)

    @pytest.mark.parametrize("points", [1, 3])
    def test_a_tuple_needs_one_tail_per_point(self, points):
        """Two tails on a stack of one or three points, and on one point."""
        policy = TruncationPolicy(tail_bound=(1e-14, 1e-56))
        with pytest.raises(DomainError, match="2 targets for %d points" % points):
            policy.tail_at(np.ones(points))
        with pytest.raises(DomainError, match="2 targets for 1 points"):
            policy.tail_at(1.1)


def test_require_finite():
    assert require_finite(1.5, "w") == 1.5
    assert require_finite(0.1 + 2j, "z") == 0.1 + 2j
    for bad in (float("nan"), float("inf"), complex(0.1, float("nan")), complex(-float("inf"), 1)):
        with pytest.raises(DomainError, match="z must be finite"):
            require_finite(bad, "z")


def test_principal_sqrt_branch():
    assert abs(principal_sqrt(-1.0) - 1j) < 1e-15
    assert abs(principal_sqrt(4.0) - 2.0) < 1e-15
    with pytest.raises(ZeroArgument):
        principal_sqrt(0.0)


def test_exp_qn_zeta_r_value():
    p = EvalPoint(0.13, 1.1, 0.21, 0.17)
    h = exp_qn_zeta_r(2, -1)
    assert abs(h.eval(p) - p.q ** 2 * p.zeta ** -1) < 1e-13


def test_finite_difference_matches_exact_jet():
    p = EvalPoint(0.13, 1.1, 0.21, 0.17)
    h = exp_qn_zeta_r(1, 2)
    exact = h.jet_at(JetVars.at(p, 2)).table()
    approx = finite_difference_jet(h, p, 2).table()
    for mon, w in exact.items():
        assert abs(approx[mon] - w) <= 1e-6 * max(1.0, abs(w)), mon


FD_POINT = EvalPoint(0.13, 1.1, 0.21, 0.17)


def _points_of(jv):
    """The base points of plain coordinate jets, as (x, y, u, v) tuples of
    float.hex strings (a stack gives one per point)."""
    base = [np.atleast_1d(b) for b in jv.base]
    return [tuple(float(c).hex() for c in q) for q in zip(*base)]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_finite_difference_evaluates_its_stencil_once_at_the_reference_points(order):
    """One evaluation of the handle per jet, on a stack of exactly the
    points the per-sample loop visits, in its order, bit for bit; and the
    jet itself bit for bit (a plane wave is the same on a stack)."""
    inner = exp_qn_zeta_r(1, 2)
    calls = []

    def counted(jv):
        calls.append(_points_of(jv))
        return inner.jet_at(jv)

    h = FunctionHandle(counted)
    got = finite_difference_jet(h, FD_POINT, order)
    assert len(calls) == 1
    sampled = []
    want = reference_fd_jet(inner, FD_POINT, order, sampled)
    assert calls[0] == [tuple(float(c).hex() for c in (q.x, q.y, q.u, q.v)) for q in sampled]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("h", [catalog.build("theta_ml", m=1, l=0).f, catalog.build("theta"),
                               catalog.build("R"), mu_hat_ml_handle(2, 0.0)],
                         ids=lambda h: h.label)
@pytest.mark.parametrize("order", [1, 2])
def test_finite_difference_of_series_matches_the_per_sample_reference(h, order):
    # a stack sums a series' terms in sequence where one point may sum them
    # pairwise: each sample may move by an ulp, which a difference of
    # order d divides by step^d (about 1e-10 relative at order 2, 1e-7 at 3)
    got = finite_difference_jet(h, FD_POINT, order).c
    want = reference_fd_jet(h, FD_POINT, order).c
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_finite_difference_names_the_first_non_finite_sample():
    inner = exp_qn_zeta_r(1, 2)
    sampled = []
    reference_fd_jet(inner, FD_POINT, 2, sampled)
    bad = {_points_of(JetVars.at(q, 0))[0] for q in (sampled[9], sampled[4])}

    def poisoned(jv):
        hit = np.array([q in bad for q in _points_of(jv)])
        return inner.jet_at(jv) + np.where(hit, np.inf, 0.0).reshape(np.shape(jv.base[0]))

    h = FunctionHandle(poisoned)
    message = "non-finite sample at %r" % (sampled[4],)
    with pytest.raises(NonFinite) as ref:
        reference_fd_jet(h, FD_POINT, 2)
    assert str(ref.value) == message
    with pytest.raises(NonFinite) as got:
        finite_difference_jet(h, FD_POINT, 2)
    assert str(got.value) == message


@pytest.mark.parametrize("order", [1, 2, 3])
def test_finite_difference_of_a_point_list_is_one_evaluation_of_every_stencil(order):
    """One row per point, each the jet of that point alone bit for bit,
    from one evaluation of the handle on the points' stencils in turn (the
    points at different y take different default steps)."""
    points = [FD_POINT, EvalPoint(-0.3, 1.5, 0.11, 0.08), EvalPoint(0.2, 2.5, -0.1, 0.3)]
    for h in (catalog.build("theta_ml", m=1, l=0).f, exp_qn_zeta_r(1, 2)):
        calls = []

        def counted(jv, h=h):
            calls.append(_points_of(jv))
            return h.jet_at(jv)

        got = finite_difference_jet(FunctionHandle(counted), points, order)
        assert got.c.shape == (len(points), len(monomials(order)))
        alone = [finite_difference_jet(FunctionHandle(counted), p, order) for p in points]
        assert len(calls) == 1 + len(points)
        assert calls[0] == [q for lone in calls[1:] for q in lone]
        for row, jet in zip(got.c, alone):
            assert row.tobytes() == bits(jet)


def test_finite_difference_of_a_point_list_checks_every_stencil():
    h = exp_qn_zeta_r(0, 1)
    with pytest.raises(StencilOutOfDomain, match="y=1e-06"):
        finite_difference_jet(h, [FD_POINT, EvalPoint(0.0, 1e-6)], 2)


def test_finite_difference_limits():
    h = exp_qn_zeta_r(0, 1)
    with pytest.raises(JetUnavailable):
        finite_difference_jet(h, EvalPoint(0.0, 1.0), 4)
    with pytest.raises(StencilOutOfDomain):
        finite_difference_jet(h, EvalPoint(0.0, 1e-6), 2)


def test_finite_difference_steps_by_fd_step():
    # the default step at y = 0.5 keeps an order-2 stencil in the upper
    # half plane; a step of 0.3 leaves it
    h = exp_qn_zeta_r(1, 1)
    p = EvalPoint(0.1, 0.5, 0.2, 0.1)
    assert finite_difference_jet(h, p, 2).order == 2
    coarse = FunctionHandle(h.jet_at, fd_step=0.3)
    with pytest.raises(StencilOutOfDomain, match="h=0.3"):
        finite_difference_jet(coarse, p, 2)


# ----------------------------------------------------------------------
# the memo of a computation: JetVars.at starts one


STACK = (EvalPoint(0.13, 1.1, 0.21, 0.17), EvalPoint(-0.40, 0.9, 0.05, 0.31),
         EvalPoint(0.31, 1.6, -0.12, 0.23))


def counting_handle():
    """A handle whose jet function counts its calls."""
    calls = []

    def je(jv):
        calls.append(jv.order)
        return jv.tau * jv.z

    return FunctionHandle(jet_fn=je, label="tau z"), calls


def test_memo_serves_a_repeated_plain_evaluation():
    f, calls = counting_handle()
    jv = JetVars.at(STACK, 2)
    first = f.jet_at(jv)
    assert f.jet_at(jv) is first
    # every plain order of the computation shares its memo
    assert f.jet_at(jv.extend(1).at_base(2)) is first
    assert len(calls) == 1


def test_memo_holds_each_order_of_the_coordinate_jets_once():
    jv = JetVars.at(STACK, 1)
    assert jv.at_base(1).x is jv.x
    assert jv.extend(1).y is jv.extend(1).y and jv.extend(1).order == 2
    assert jv.at_base(0).v is jv.extend(2).at_base(0).v
    assert JetVars.at(STACK, 1).x is not jv.x


def test_memo_serves_no_other_order_stack_or_point():
    f, calls = counting_handle()
    jv = JetVars.at(STACK, 1)
    first = f.jet_at(jv)
    moved = STACK[:2] + (EvalPoint(0.31, 1.6, -0.12, 0.24),)
    others = (
        jv.extend(1),  # another order
        JetVars.at(STACK, 1),  # another computation at the same stack
        JetVars.at(moved, 1),
        JetVars.at(STACK[:1], 1),  # a stack of one point
        JetVars.at(STACK[0], 1),  # the point on its own
    )
    for other in others:
        assert f.jet_at(other) is not first
    assert len(calls) == 1 + len(others)
    assert np.array_equal(f.jet_at(others[1]).c, first.c)


def test_a_slash_composes_the_plain_jet_at_its_transformed_base():
    """A slashed jet is, bit for bit, the form's jet at the frame's base
    composed with the frame's shift, times the weight and index factors.
    That jet is made once, held in the memo of the transformed base, and
    serves every weight; the jet function sees only coordinate jets as
    `JetVars.at` builds them."""
    seen = []

    def je(jv):
        seen.append(jv)
        return jv.tau * jv.z

    f = FunctionHandle(jet_fn=je, label="tau z")
    jv = JetVars.at(STACK, 1)
    f.jet_at(jv)
    weights = (WeightIndex(1, -2), WeightIndex(3, -2))
    out = [slash(TaggedForm(f, wi), GEN_S).f.jet_at(jv) for wi in weights]
    assert len(seen) == 2
    frame = _frame(GEN_S, jv)
    assert frame.base.held is jv.held[GEN_S] and frame.base.held is not jv.held
    table = f.jet_at(frame.base)
    assert len(seen) == 2 and seen[1].x is frame.base.x
    for wi, jet in zip(weights, out):
        want = (_compose_taylor(table, frame.shift, 1) * frame.root ** (-wi.two_k)
                * (2j * math.pi * wi.m * frame.index).exp())
        assert jet.order == 1 and bits(jet) == bits(want)
    for coords in seen:
        plain = JetVars._plain(coords.base, coords.order)
        got = (coords.x, coords.y, coords.u, coords.v)
        assert [bits(c) for c in got] == [bits(c) for c in plain]


def test_a_lower_plain_order_is_evaluated_afresh_not_truncated():
    """A plain request at order n is always an evaluation at order n: a
    series' jets do not truncate bit for bit (its radius depends on the
    order), so the order-0 value after an order-1 request on the same
    computation is the one a computation of its own gives (mu_hat's
    truncated order-1 value differs from it in the last bits)."""
    f, calls = counting_handle()
    jv = JetVars.at(STACK, 0)
    f.jet_at(jv.extend(1))
    assert f.jet_at(jv).order == 0
    assert calls == [1, 0]
    h = mu_hat_ml_handle(2, 0.0)
    h.jet_at(jv.extend(1))
    assert bits(h.jet_at(jv)) == bits(h.jet_at(JetVars.at(STACK, 0)))


class TestPerRowWeightIndex:
    def test_of_rows_keeps_a_shared_numerator_plain(self):
        wi = WeightIndex.of_rows([WeightIndex(1, 2), WeightIndex(1, -2), WeightIndex(1, 2)])
        assert wi.two_k == 1 and isinstance(wi.two_k, int) and wi.k == 0.5
        assert wi.two_m.tolist() == [2, -2, 2] and wi.per_row
        assert wi.m.shape == (3, 1) and wi.m.ravel().tolist() == [1.0, -1.0, 1.0]
        same = WeightIndex.of_rows([WeightIndex(3, -1)] * 4)
        assert same == WeightIndex(3, -1) and not same.per_row

    def test_per_row_rules_keep_their_rows(self):
        wi = WeightIndex(np.array([1, 3]), np.array([2, -1]))
        assert wi.shift_k(4).two_k.tolist() == [5, 7]
        assert wi.negate_m().two_m.tolist() == [-2, 1]

    def test_rejects_a_zero_row_and_numerators_that_are_not_int_rows(self):
        for two_k, two_m in ((np.array([1, 1]), np.array([2, 0])), (np.array([1.0, 3.0]), 2),
                             (np.array([[1, 3]]), 2)):
            with pytest.raises(DomainError):
                WeightIndex(two_k, two_m)


def test_every_fourier_sum_handle_is_the_one_builder():
    """exp_qn_zeta_r, FourierData.handle and h_series_handle are
    fourier_sum_handle over their terms, bit for bit."""
    jv = JetVars.at([EvalPoint(0.1, 1.2, 0.3, 0.2), EvalPoint(-0.2, 0.9, 0.1, -0.1)], 2)
    data = FourierData(2, {(1, 1): 0.5 - 1j, (0, -1): 2.0})
    series = [(Fraction(-1, 8), 1.5j), (Fraction(3, 8), -0.25)]
    for handle, terms in ((exp_qn_zeta_r(2, -1), [(2, -1, 1.0)]),
                          (data.handle(), [(0, -1, 2.0), (1, 1, 0.5 - 1j)]),
                          (h_series_handle(series), [(-0.125, 0, 1.5j), (0.375, 0, -0.25)])):
        assert np.array_equal(handle.jet_at(jv).c, fourier_sum_handle(terms, "").jet_at(jv).c)
