"""The finite Weil-type representation and the Weil law of vector-valued
forms."""

import cmath
import math

import numpy as np
import pytest

from mjlab.core import EvalPoint, FunctionHandle, JetVars, TaggedForm, WeightIndex
from mjlab.errors import DomainError
from mjlab.jets import Jet
from mjlab.special import theta_ml_handle
from mjlab.weil import (
    labels,
    rho_generator,
    rho_word,
    root_of_unity,
    vector_law,
)

TWO_MS = (1, 2, 3, 4, 5)


def test_labels_parity():
    assert labels(2) == [0, 1]
    assert labels(4) == [0, 1, 2, 3]
    assert labels(1) == [0.5]
    assert labels(3) == [0.5, 1.5, 2.5]


def test_root_of_unity():
    assert abs(root_of_unity(1, 4) - 1j) < 1e-15
    assert abs(root_of_unity(5, 4) - 1j) < 1e-15
    assert abs(root_of_unity(-1, 4) + 1j) < 1e-15


@pytest.mark.parametrize("two_m", TWO_MS)
@pytest.mark.parametrize("which", ["T", "S"])
def test_generators_are_unitary(two_m, which):
    mat = rho_generator(two_m, which)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(two_m))) < 1e-13


@pytest.mark.parametrize("two_m", TWO_MS)
def test_braid_relation(two_m):
    st3 = rho_word(two_m, "STSTST")
    s2 = rho_word(two_m, "SS")
    assert np.max(np.abs(st3 - s2)) < 1e-12


@pytest.mark.parametrize("two_m", TWO_MS)
def test_s_has_order_eight(two_m):
    s8 = np.linalg.matrix_power(rho_generator(two_m, "S"), 8)
    assert np.max(np.abs(s8 - np.eye(two_m))) < 1e-12


def test_t_is_diagonal_with_unit_entries():
    for two_m in TWO_MS:
        data = rho_generator(two_m, "T")
        off = data - np.diag(np.diag(data))
        assert np.max(np.abs(off)) == 0.0
        assert np.max(np.abs(np.abs(np.diag(data)) - 1.0)) < 1e-14


def test_dual_is_entrywise_conjugate():
    for which in ("T", "S"):
        a = rho_generator(3, which, dual=True)
        b = np.conj(rho_generator(3, which))
        assert np.max(np.abs(a - b)) == 0.0


def test_word_multiplies_generator_matrices():
    two_m = 4
    got = rho_word(two_m, "TST")
    want = (
        rho_generator(two_m, "T")
        @ rho_generator(two_m, "S")
        @ rho_generator(two_m, "T")
    )
    assert np.max(np.abs(got - want)) < 1e-14


def test_matrix_validation():
    with pytest.raises(DomainError):
        rho_generator(2, "R")
    with pytest.raises(DomainError):
        rho_word(2, "")


@pytest.mark.parametrize("two_m", [2, 4])
@pytest.mark.parametrize("word", ["T", "S", "TS"])
def test_theta_vector_transforms_under_rho(two_m, word):
    # the vector of index-m theta components, slashed at weight 1/2,
    # equals the representation matrix of the word times itself
    comps = [theta_ml_handle(two_m, l) for l in labels(two_m)]
    stack = FunctionHandle(
        jet_fn=lambda jv: Jet(jv.order, np.stack([h.jet_at(jv).c for h in comps])))
    theta = TaggedForm(stack, WeightIndex(1, two_m))
    jv = JetVars.at([EvalPoint(0.17, 1.2, 0.13, 0.21), EvalPoint(-0.3, 0.9, 0.2, -0.15)], 0)
    base = stack.jet_at(jv).value
    gap = vector_law(theta, word).jet_at(jv).value
    assert gap.shape == base.shape == (two_m, 2)
    scale = max(1.0, float(np.max(np.abs(base))))
    assert float(np.max(np.abs(gap))) < 1e-8 * scale, word


@pytest.mark.parametrize("two_m", range(1, 7))
def test_dual_generators_are_the_claimed_component_law(two_m):
    # the completed components' T phases e(-l^2/4m) and S matrix
    # i/sqrt(2im) e(l l'/2m), with e(x) = e^(2 pi i x)
    ls = labels(two_m)
    phases = np.diag([cmath.exp(-2j * math.pi * l * l / (2 * two_m)) for l in ls])
    mixing = 1j / cmath.sqrt(1j * two_m) * np.array(
        [[cmath.exp(2j * math.pi * l * lp / two_m) for lp in ls] for l in ls])
    for which, want in (("T", phases), ("S", mixing)):
        got = rho_generator(two_m, which, dual=True)
        assert np.max(np.abs(got - want)) < 1e-14, which


def test_s_matrix_entries():
    two_m = 2
    got = rho_generator(two_m, "S")
    pref = 1.0 / cmath.sqrt(2j)
    for i, l in enumerate(labels(two_m)):
        for j, lp in enumerate(labels(two_m)):
            want = pref * cmath.exp(-2j * math.pi * l * lp / two_m)
            assert abs(got[j, i] - want) < 1e-14


def test_generator_images_are_made_once_and_read_only():
    for dual in (False, True):
        first = rho_generator(3, "S", dual=dual)
        assert rho_generator(3, "S", dual=dual) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
    assert np.array_equal(rho_generator(3, "S", dual=True), np.conj(rho_generator(3, "S")))
    # a one-letter word is its generator image, read-only too
    assert not rho_word(2, "T").flags.writeable
