"""Metaplectic Jacobi group arithmetic and slash-action cocycles."""

import random

import numpy as np
import pytest

from mjlab.core import EvalPoint, JetVars, WeightIndex
from mjlab.errors import DomainError
from mjlab.group import (
    GEN_S,
    GEN_T,
    IDENTITY,
    TaggedForm,
    apply_slash,
    group_inverse,
    group_multiply,
    group_word,
    _slash_frame,
    heisenberg,
    skew_slash,
    slash,
)
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.special import theta_ml_handle
from mjlab.verify import GENERATORS, GENERIC_POINTS, _stacked

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
        assert group_multiply(a, group_inverse(a)) == IDENTITY
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
        kernel_term_handle(1, params, skew=True), params.weight_index(), "skew"
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


def test_memo_holds_one_frame_per_element_index_and_order():
    stack = GENERIC_POINTS[:3]
    jv = JetVars.at(stack, 1)
    first = _slash_frame(GEN_S, -1.0, jv)
    assert _slash_frame(GEN_S, -1.0, jv) is first
    assert _slash_frame(GEN_S, -1.0, jv.extend(1).at_base(1)) is first
    moved = stack[:2] + (EvalPoint(0.31, 1.6, -0.12, 0.24),)
    for A, m, other in (
        (GEN_T, -1.0, jv),
        (GEN_S, 1.0, jv),
        (GEN_S, -1.0, jv.extend(1)),
        (GEN_S, -1.0, JetVars.at(stack, 1)),  # another computation
        (GEN_S, -1.0, JetVars.at(moved, 1)),
        (GEN_S, -1.0, JetVars.at(stack[0], 1)),
    ):
        out = _slash_frame(A, m, other)
        assert out is not first and out is _slash_frame(A, m, other)
    # the frames of one element share the memo of the transformed base,
    # whatever the index and the order, and hold no other
    assert _slash_frame(GEN_S, 1.0, jv.extend(1)).jv.held is first.jv.held
    assert _slash_frame(GEN_T, -1.0, jv).jv.held is not first.jv.held
    assert first.jv.held is not jv.held
    # frames on transformed coordinates are computed afresh
    transformed = first.jv
    assert not transformed.plain
    again = _slash_frame(GEN_T, -1.0, transformed)
    assert again is not _slash_frame(GEN_T, -1.0, transformed)
    assert np.array_equal(again.index_factor.c,
                          _slash_frame(GEN_T, -1.0, transformed).index_factor.c)
