"""Taylor-jet arithmetic against symbolic differentiation oracles."""

import cmath
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mjlab.core import EvalPoint, JetVars
from mjlab.jets import (
    VAR_U,
    VAR_V,
    VAR_X,
    VAR_Y,
    Jet,
    _mul_table,
    d_tau,
    d_taubar,
    d_z,
    d_zbar,
    monomial_index,
    monomials,
)

BASE = (0.31, 1.2, -0.17, 0.43)


def variable_jets(order, base=BASE):
    return [Jet.variable(i, base[i], order) for i in range(4)]


def sympy_table(expr, syms, base, order):
    """Mixed partials of a sympy expression at a real base point."""
    table = {}
    subs = dict(zip(syms, base))
    for mon in monomials(order):
        d = expr
        for s, a in zip(syms, mon):
            if a:
                d = sympy.diff(d, s, a)
        table[mon] = complex(d.subs(subs))
    return table


def assert_tables_close(got, want, tol=1e-12):
    for mon, w in want.items():
        scale = max(1.0, abs(w))
        assert abs(got[mon] - w) <= tol * scale, (mon, got[mon], w)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_rational_exponential_composite_matches_sympy(order):
    x, y, u, v = variable_jets(order)
    jet = ((x + 2.0 * y) * 1j).exp() * (u + 1j * v) + (x * x + y).reciprocal()
    xs, ys, us, vs = sympy.symbols("x y u v", real=True)
    expr = sympy.exp(sympy.I * (xs + 2 * ys)) * (us + sympy.I * vs) + 1 / (
        xs * xs + ys
    )
    assert_tables_close(jet.table(), sympy_table(expr, (xs, ys, us, vs), BASE, order))


@pytest.mark.parametrize("alpha", [0.5, -0.5, 1.5, -2.0])
def test_complex_power_matches_sympy(alpha):
    order = 3
    x, y, u, v = variable_jets(order)
    jet = (y + 0.3 * x).cpow(alpha)
    xs, ys = sympy.symbols("x y", real=True)
    us, vs = sympy.symbols("u v", real=True)
    expr = (ys + sympy.Rational(3, 10) * xs) ** sympy.Rational(alpha)
    assert_tables_close(jet.table(), sympy_table(expr, (xs, ys, us, vs), BASE, order))


def test_reciprocal_is_multiplicative_inverse():
    x, y, u, v = variable_jets(3)
    jet = (x + 1j * y) * (u - 2.0) + 5.0
    prod = jet * jet.reciprocal()
    table = prod.table()
    for mon, val in table.items():
        want = 1.0 if sum(mon) == 0 else 0.0
        assert abs(val - want) < 1e-13


def test_cpow_half_squares_back():
    x, y, u, v = variable_jets(3)
    jet = y + 0.2 * x + 0.1 * u
    root = jet.cpow(0.5)
    assert_tables_close((root * root).table(), jet.table())


def test_conjugation_commutes_with_evaluation():
    # the underlying variables are real, so coefficient-wise conjugation
    # must conjugate every mixed partial
    x, y, u, v = variable_jets(2)
    jet = ((x + 1j * y) * (u + 1j * v)).exp()
    t = jet.table()
    tc = jet.conj().table()
    for mon in t:
        assert abs(tc[mon] - t[mon].conjugate()) < 1e-13


def test_truncate_extends_and_restricts():
    x, y, u, v = variable_jets(2)
    jet = x * y + u
    up = jet.truncate(3)
    down = up.truncate(1)
    assert up.order == 3 and down.order == 1
    assert abs(up.value - jet.value) == 0
    assert abs(down.value - jet.value) == 0


def test_wirtinger_derivatives_on_plane_wave():
    # f = exp(2 pi i (n tau + r z)) has d_tau f = 2 pi i n f and the two
    # antiholomorphic derivatives vanish identically
    n, r = 2, -3
    p = EvalPoint(0.13, 1.1, 0.21, 0.17)
    jv = JetVars.at(p, 1)
    f = (2j * math.pi * (n * jv.tau + r * jv.z)).exp()
    f0 = f.value
    assert abs(d_tau(f).value - 2j * math.pi * n * f0) < 1e-12
    assert abs(d_z(f).value - 2j * math.pi * r * f0) < 1e-12
    assert abs(d_taubar(f).value) < 1e-14
    assert abs(d_zbar(f).value) < 1e-14


def test_partial_extracts_mixed_derivative():
    x, y, u, v = variable_jets(3)
    jet = x * x * y + 4.0 * u * v
    assert abs(jet.partial((2, 1, 0, 0)) - 2.0) < 1e-13
    assert abs(jet.partial((0, 0, 1, 1)) - 4.0) < 1e-13


def test_monomial_index_is_inverse_of_enumeration():
    for order in (0, 1, 2, 3):
        idx = monomial_index(order)
        mons = monomials(order)
        assert len(idx) == len(mons)
        for i, mon in enumerate(mons):
            assert idx[mon] == i


small = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(a=small, b=small, c=small)
def test_ring_axioms(a, b, c):
    x, y, u, v = variable_jets(2)
    ja = x * a + y
    jb = u * b + 1.0
    jc = v * c + x
    left = (ja * (jb + jc)).table()
    right = (ja * jb + ja * jc).table()
    for mon in left:
        assert abs(left[mon] - right[mon]) <= 1e-10 * (1.0 + abs(right[mon]))


@settings(max_examples=30, deadline=None)
@given(w=st.complex_numbers(min_magnitude=0.01, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False))
def test_exp_of_constant_jet(w):
    jet = Jet.constant(w, 2).exp()
    assert abs(jet.value - cmath.exp(w)) <= 1e-12 * abs(cmath.exp(w))


# ----------------------------------------------------------------------
# batch axes: a (B, M) jet acts as B independent jets


def row_jets(order, shift):
    """Three generic scalar jets at the base point, distinct per shift."""
    x, y, u, v = variable_jets(order)
    return [
        (x * (0.3 + shift) + 1j * y) * (u - 0.7) + (2.0 + shift),
        (y * y + u * (0.2j * shift) + 1.5).cpow(0.5) + v,
        ((x + v) * (0.4 - 0.1j * shift)).exp() + 0.5 * shift,
    ]


def stacked(jets):
    return Jet(jets[0].order, np.stack([j.c for j in jets]))


def assert_rows(batched, rows, tol=1e-13):
    assert batched.c.shape == (len(rows), len(rows[0].c))
    for got, want in zip(batched.c, rows):
        scale = max(1.0, np.max(np.abs(want.c)))
        assert np.max(np.abs(got - want.c)) <= tol * scale


ROWS = (0, 1, 2)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_batched_ring_operations_act_row_wise(order):
    a_rows = [row_jets(order, s)[0] for s in ROWS]
    b_rows = [row_jets(order, s)[1] for s in ROWS]
    a, b = stacked(a_rows), stacked(b_rows)
    assert_rows(a * b, [p * q for p, q in zip(a_rows, b_rows)])
    assert_rows(a + b, [p + q for p, q in zip(a_rows, b_rows)])
    assert_rows(a - b, [p - q for p, q in zip(a_rows, b_rows)])
    assert_rows(-a, [-p for p in a_rows])
    assert_rows(a / b, [p / q for p, q in zip(a_rows, b_rows)])
    assert_rows(a ** 3, [p ** 3 for p in a_rows])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_batched_analytic_functions_act_row_wise(order):
    rows = [row_jets(order, s)[2] for s in ROWS]
    a = stacked(rows)
    assert_rows(a.exp(), [r.exp() for r in rows])
    assert_rows(a.reciprocal(), [r.reciprocal() for r in rows])
    assert_rows(a.cpow(0.5 - 0.25j), [r.cpow(0.5 - 0.25j) for r in rows])
    # per-row Taylor coefficients: row i is composed with its own polynomial
    ts_rows = [[i + 1.0, 0.5j * i, 1.0, -0.25 * i][: order + 1] for i in ROWS]
    ts = [np.array(col) for col in zip(*ts_rows)]
    assert_rows(a.apply_taylor(ts), [r.apply_taylor(t) for r, t in zip(rows, ts_rows)])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_batched_deriv_and_truncate_act_row_wise(order):
    rows = [row_jets(order, s)[0] * row_jets(order, s)[2] for s in ROWS]
    a = stacked(rows)
    for var in range(4):
        assert_rows(a.deriv(var), [r.deriv(var) for r in rows])
    for n in range(order + 2):
        assert_rows(a.truncate(n), [r.truncate(n) for r in rows])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_batched_jet_broadcasts_against_scalar_jets_and_arrays(order):
    rows = [row_jets(order, s)[0] for s in ROWS]
    a = stacked(rows)
    s = row_jets(order, 5)[1]
    assert_rows(a * s, [r * s for r in rows])
    assert_rows(s * a, [s * r for r in rows])
    assert_rows(a + s, [r + s for r in rows])
    assert_rows(s - a, [s - r for r in rows])
    k = np.array([0.5, -1.0, 2.0j])
    assert_rows(a * k, [r * w for r, w in zip(rows, k)])
    assert_rows(k * a, [r * w for r, w in zip(rows, k)])
    assert_rows(a + k, [r + w for r, w in zip(rows, k)])
    assert_rows(a / k, [r / w for r, w in zip(rows, k)])
    # a scalar jet times an array of scalars is a batch
    assert_rows(s * k, [s * w for w in k])
    assert np.allclose(a.value, [r.value for r in rows])


@pytest.mark.parametrize("order", [0, 3])
def test_batched_sum_reduces_the_batch_axis(order):
    rows = [row_jets(order, s)[1] for s in ROWS]
    a = stacked(rows)
    plain = a.sum()
    assert plain.c.shape == rows[0].c.shape
    assert np.allclose(plain.c, (rows[0] + rows[1] + rows[2]).c, rtol=1e-14)
    w = np.array([1.0, -2.0, 0.5])
    assert np.allclose(a.sum(w).c, (rows[0] - 2.0 * rows[1] + 0.5 * rows[2]).c,
                       rtol=1e-14)
    assert_rows(a.sum(np.eye(3)[::-1]), rows[::-1])


def test_batched_exp_raises_on_overflow():
    a = Jet.constant(np.array([1.0, 800.0 + 0.5j]), 2)
    with pytest.raises(OverflowError):
        a.exp()


@pytest.mark.parametrize("order", range(8))
def test_mul_table_is_the_direct_enumeration(order):
    """The product table equals the pairs (i, j) of monomials of total degree
    <= order, enumerated i-major, stably sorted by their product's index k,
    with the start of each k's run: the same gather order, so every product
    sums its terms in the same order."""
    mons = monomials(order)
    idx = monomial_index(order)
    pairs = [(i, j, idx[tuple(x + y for x, y in zip(a, b))])
             for i, a in enumerate(mons) for j, b in enumerate(mons)
             if sum(a) + sum(b) <= order]
    pairs.sort(key=lambda p: p[2])
    ii, jj, starts = _mul_table(order)
    assert ii.tolist() == [i for i, _, _ in pairs]
    assert jj.tolist() == [j for _, j, _ in pairs]
    kk = [k for _, _, k in pairs]
    assert starts.tolist() == [kk.index(k) for k in range(len(mons))]
    assert ii.dtype == jj.dtype == starts.dtype == np.intp
