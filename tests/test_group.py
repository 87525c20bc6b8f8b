"""Metaplectic Jacobi group arithmetic and slash-action cocycles."""

import random

import numpy as np
import pytest

from mjlab import group
from mjlab.catalog import build
from mjlab.core import EvalPoint, JetVars, WeightIndex
from mjlab.errors import DomainError
from mjlab.group import (
    GEN_S,
    GEN_T,
    IDENTITY,
    TaggedForm,
    _frame,
    _group_inverse,
    apply_slash,
    group_multiply,
    group_word,
    heisenberg,
    skew_slash,
    slash,
)
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.special import theta_ml_handle
from mjlab.verify import COVARIANCE_FORMS, GENERATORS, GENERIC_POINTS, _stacked

POINTS = [
    EvalPoint(0.13, 1.1, 0.21, 0.17),
    EvalPoint(-0.40, 0.9, 0.05, 0.31),
]


def random_elements(seed, count):
    rng = random.Random(seed)
    pool = [GEN_T, GEN_S, heisenberg(1, 0), heisenberg(0, 1), heisenberg(-1, 2)]
    return [rng.choice(pool) for _ in range(count)]


def test_group_multiplication_is_associative():
    els = random_elements(7, 9)
    for a, b, c in zip(els[0::3], els[1::3], els[2::3]):
        left = group_multiply(group_multiply(a, b), c)
        right = group_multiply(a, group_multiply(b, c))
        assert left == right


def test_inverse_and_identity():
    for a in random_elements(3, 6):
        assert group_multiply(a, _group_inverse(a)) == IDENTITY
        assert group_multiply(IDENTITY, a) == a


def test_group_word_folds_left_to_right():
    a, b, c = GEN_T, GEN_S, heisenberg(1, -1)
    assert group_word(a, b, c) == group_multiply(group_multiply(a, b), c)


def test_s_squared_is_central_and_order_four():
    s2 = group_multiply(GEN_S, GEN_S)
    s4 = group_multiply(s2, s2)
    s8 = group_multiply(s4, s4)
    assert s8 == IDENTITY
    assert s4 != IDENTITY  # the metaplectic double cover remembers the sign


def theta_form():
    return TaggedForm(theta_ml_handle(2, 1), WeightIndex(1, 2), "standard")


def skew_form():
    params = KernelParams.of(0.5, -1.0, -1, 1)
    return TaggedForm(
        kernel_term_handle(1, params, skew=True), params, "skew"
    )


@pytest.mark.parametrize("word", [(GEN_T, GEN_S), (GEN_S, GEN_S),
                                  (heisenberg(1, 0), GEN_S),
                                  (GEN_T, heisenberg(0, 1), GEN_S)])
def test_standard_slash_is_a_cocycle(word):
    phi = theta_form()
    product = group_word(*word)
    via_product = slash(phi, product)
    # slashing is a right action: (phi|A)|B = phi|(AB)
    step = phi
    for a in word:
        step = slash(step, a)
    for p in POINTS:
        a = via_product.eval(p)
        b = step.eval(p)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (word, p)


@pytest.mark.parametrize("word", [(GEN_T, GEN_S), (heisenberg(1, 0), GEN_S)])
def test_skew_slash_is_a_cocycle(word):
    phi = skew_form()
    product = group_word(*word)
    via_product = skew_slash(phi, product)
    step = phi
    for a in word:
        step = skew_slash(step, a)
    for p in POINTS:
        a = via_product.eval(p)
        b = step.eval(p)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (word, p)


def test_slash_by_identity_is_identity():
    phi = theta_form()
    out = slash(phi, IDENTITY)
    for p in POINTS:
        assert abs(out.eval(p) - phi.eval(p)) < 1e-13


def test_apply_slash_dispatches_on_action_kind():
    std = apply_slash(theta_form(), GEN_T)
    assert std.action_kind == "standard"
    sk = apply_slash(skew_form(), GEN_T)
    assert sk.action_kind == "skew"


def test_action_kind_mismatch_raises():
    with pytest.raises(DomainError):
        slash(skew_form(), GEN_T)
    with pytest.raises(DomainError):
        skew_slash(theta_form(), GEN_T)


def test_tagged_form_rejects_unknown_kind():
    with pytest.raises(DomainError):
        TaggedForm(theta_ml_handle(2, 0), WeightIndex(1, 2), "twisted")


def test_theta_is_invariant_under_integer_heisenberg_translations():
    # the weight 1/2, index m theta component picks up no factor under
    # integer (lambda, mu) translations scaled into its own index lattice
    phi = theta_form()
    for lam, mu in [(1, 0), (0, 1), (1, 1)]:
        out = slash(phi, heisenberg(lam, mu))
        for p in POINTS:
            a = phi.eval(p)
            b = out.eval(p)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (lam, mu)


# ----------------------------------------------------------------------
# slash frames: one per element, index and jet order of a computation


@pytest.mark.parametrize("order", (0, 1, 2))
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_slash_of_a_row_stack_is_the_stack_of_its_rows_slashes(gen, order):
    """slash and skew_slash of a row-stacked handle give, bit for bit, the
    rows each handle's own slash gives on a computation of its own, with
    the frame made by the first slash or held for the second."""
    A = GENERATORS[gen]
    params = KernelParams.of(0.5, -1, -1, 1)
    handles = [theta_ml_handle(2, 0), kernel_term_handle(1, params, skew=True),
               kernel_term_handle(4, params, skew=True)]
    wi = WeightIndex(1, -2)
    stack = GENERIC_POINTS[:3]
    for kind, slash_by in (("standard", slash), ("skew", skew_slash)):
        alone = [slash_by(TaggedForm(h, wi, kind), A).f.jet_at(JetVars.at(stack, order)).c
                 for h in handles]
        jv = JetVars.at(stack, order)
        for _ in range(2):
            rows = slash_by(TaggedForm(_stacked(handles), wi, kind), A).f.jet_at(jv).c
            assert rows.shape[0] == len(handles)
            for row, want in zip(rows, alone):
                assert np.array_equal(row, want)


def test_memo_holds_one_frame_per_element_and_order(monkeypatch):
    stack = GENERIC_POINTS[:3]
    jv = JetVars.at(stack, 1)
    first = _frame(GEN_S, jv)
    assert _frame(GEN_S, jv) is first
    assert _frame(GEN_S, jv.extend(1).at_base(1)) is first
    moved = stack[:2] + (EvalPoint(0.31, 1.6, -0.12, 0.24),)
    for A, other in (
        (GEN_T, jv),
        (GEN_S, jv.extend(1)),
        (GEN_S, JetVars.at(stack, 1)),  # another computation
        (GEN_S, JetVars.at(moved, 1)),
        (GEN_S, JetVars.at(stack[0], 1)),
    ):
        out = _frame(A, other)
        assert out is not first and out is _frame(A, other)
    # the frames of one element share the memo of the transformed base,
    # whatever the order, and hold no other
    assert _frame(GEN_S, jv.extend(1)).base.held is first.base.held
    assert _frame(GEN_T, jv).base.held is not first.base.held
    assert first.base.held is not jv.held
    # a slash of a slash builds the outer element's frame at the points and
    # the inner one's at their image under the outer element, where the
    # slashed form is evaluated and composed
    frames, frame = [], group._frame

    def counted_frame(A, jv):
        if (A, jv.order) not in jv.held:
            frames.append((A, jv.order, jv.base))
        return frame(A, jv)

    monkeypatch.setattr(group, "_frame", counted_frame)
    phi = TaggedForm(theta_ml_handle(2, 0.0), WeightIndex(1, 2))
    fresh = JetVars.at(stack, 1)
    apply_slash(apply_slash(phi, GEN_S), GEN_T).f.jet_at(fresh)
    assert [(A, order) for A, order, _ in frames] == [(GEN_T, 1), (GEN_S, 1)]
    assert all(np.array_equal(a, b) for a, b in zip(frames[0][2], fresh.base))
    image = frame(GEN_T, fresh).base.base
    assert all(np.array_equal(a, b) for a, b in zip(frames[1][2], image))


# ----------------------------------------------------------------------
# a slash by one element per point of a stack


def mixed_stack(seed):
    """GENERIC_POINTS[:3] once per generator, the (generator, point) pairs
    in a seeded order: the points of the stack and, per point, its
    element."""
    pairs = [(gen, p) for gen in GENERATORS for p in GENERIC_POINTS[:3]]
    random.Random(seed).shuffle(pairs)
    return [p for _, p in pairs], [gen for gen, _ in pairs]


@pytest.mark.parametrize("order", (0, 1, 2, 3))
@pytest.mark.parametrize("name", ("theta_ml", "mu_hat_ml", "c3", "c1sk"))
def test_slash_by_an_element_per_point_is_the_per_element_slashes(name, order):
    """On a stack that mixes the four generators, a slash by one element
    per point (slash for the standard forms, skew_slash for c1sk) equals
    each element's own slash on a computation at the points."""
    form = build(name, **dict(COVARIANCE_FORMS)[name])
    stack, gens = mixed_stack(order)
    jv = JetVars.at(stack, order)
    got = apply_slash(form, [GENERATORS[gen] for gen in gens]).f.jet_at(jv).c
    assert got.shape[0] == len(stack)
    for gen, A in GENERATORS.items():
        alone = apply_slash(form, A).f.jet_at(JetVars.at(GENERIC_POINTS[:3], order)).c
        at = [j for j, g in enumerate(gens) if g == gen]
        want = alone[[GENERIC_POINTS.index(stack[j]) for j in at]]
        assert np.abs(got[at] - want).max() <= 1e-13 * np.abs(want).max(), gen


@pytest.mark.parametrize("name", ("theta_ml", "c1sk"))
def test_slash_of_a_slash_by_elements_per_point_is_the_per_element_one(name):
    """Both slashes take one element per point, the outer one in another
    order: each point is the slash by its inner element, then its outer
    one, on a computation of its own."""
    form = build(name, **dict(COVARIANCE_FORMS)[name])
    stack, inner = mixed_stack(1)
    rng = random.Random(2)
    outer = [rng.choice(list(GENERATORS)) for _ in stack]
    twice = apply_slash(apply_slash(form, [GENERATORS[g] for g in inner]),
                        [GENERATORS[g] for g in outer])
    got = twice.f.jet_at(JetVars.at(stack, 2)).c
    for j, p in enumerate(stack):
        alone = apply_slash(apply_slash(form, GENERATORS[inner[j]]), GENERATORS[outer[j]])
        want = alone.f.jet_at(JetVars.at(p, 2)).c
        assert np.abs(got[j] - want).max() <= 1e-13 * np.abs(want).max(), j


def test_slash_by_elements_of_another_count_than_the_points_raises():
    form = build("theta_ml", m=1, l=0)
    for count, at in ((2, GENERIC_POINTS[:3]), (4, GENERIC_POINTS[:3]), (1, GENERIC_POINTS[0])):
        with pytest.raises(DomainError):
            apply_slash(form, [GEN_S] * count).f.jet_at(JetVars.at(at, 0))


# ----------------------------------------------------------------------
# a weight/index per row


def _per_index_stack():
    """theta_ml[2,0] (index 1) and c3 (index -1), both of weight 1/2, as one
    row stack with an index per row."""
    forms = [build("theta_ml", m=1, l=0), build("c3", k=0.5, m=-1, n=-1, r=1)]
    wi = WeightIndex.of_rows([phi.weight_index for phi in forms])
    assert wi.two_k == 1 and wi.two_m.tolist() == [2, -2]
    return forms, TaggedForm(_stacked([phi.f for phi in forms]), wi)


def test_a_slash_gives_each_row_its_own_index():
    """Slashed by a sequence of the generators, one per point, each row of
    the stack is its form slashed alone, bit for bit, at order 2."""
    forms, stack = _per_index_stack()
    elements = list(GENERATORS.values())
    points = GENERIC_POINTS[:len(elements)]
    got = apply_slash(stack, elements).f.jet_at(JetVars.at(points, 2)).c
    alone = [apply_slash(phi, elements).f.jet_at(JetVars.at(points, 2)).c for phi in forms]
    assert np.array_equal(got, np.stack(alone))


def test_a_slash_of_rows_that_differ_in_weight_raises():
    _, stack = _per_index_stack()
    mixed = TaggedForm(stack.f, WeightIndex(np.array([1, 3]), 2))
    for A in (GEN_S, [GEN_T, GEN_S]):
        with pytest.raises(DomainError):
            slash(mixed, A)
    with pytest.raises(DomainError):
        skew_slash(TaggedForm(stack.f, mixed.weight_index, "skew"), GEN_S)


def test_a_per_row_index_needs_a_point_stack():
    """On one point's coordinates the per-row index factor would broadcast
    against the rows: DomainError there, and on a one-point stack each row
    is its form slashed alone on that stack."""
    forms, stack = _per_index_stack()
    p = GENERIC_POINTS[0]
    with pytest.raises(DomainError):
        slash(stack, GEN_S).f.jet_at(JetVars.at(p, 1))
    got = slash(stack, GEN_S).f.jet_at(JetVars.at([p], 1)).c
    assert np.array_equal(got, np.stack([slash(phi, GEN_S).f.jet_at(JetVars.at([p], 1)).c
                                         for phi in forms]))


def test_the_fields_of_an_element_are_its_dataclass_fields_in_order():
    from dataclasses import astuple

    A = group.group_word(GEN_S, heisenberg(0.5, -1.0, 0.25), GEN_T)
    assert group._fields(A, None) == astuple(A)
    jv = JetVars.at(GENERIC_POINTS[:2], 0)
    got = group._fields([A, GEN_S], jv)
    assert [a.tolist() for a in got] == [list(col) for col in zip(astuple(A), astuple(GEN_S))]
