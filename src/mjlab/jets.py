"""Truncated multivariate Taylor arithmetic in the four real coordinates (x, y, u, v).

A Jet stores the Taylor coefficients (partial derivatives divided by the
factorial of the multi-index) of a smooth complex-valued function of
tau = x + iy and z = u + iv up to a fixed total order.  All catalog series
in the library are evaluated in this arithmetic, which gives closed-form
partial derivatives to machine precision -- the "exact jet" path that the
third-order operator compositions rely on.

The coefficient array has shape (*batch, n_monomials): leading batch axes
hold independent jets, and every operation acts row-wise, broadcasting like
numpy.  The coordinate jets at a stack of P points have shape (P, M) (the
point axis), and a series adds a term axis in front, (terms, P, M): it is
one batched jet of its term exponents, one batched `exp` and one `sum` over
the term axis.

Conjugation is coefficient-wise because the underlying variables are real.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ValueOverflow

NVARS = 4  # x, y, u, v
VAR_X, VAR_Y, VAR_U, VAR_V = range(NVARS)


@lru_cache(maxsize=None)
def monomials(order):
    """All exponent 4-tuples of total degree <= order, grouped by degree.

    Degree blocks are contiguous so that the list for a smaller order is a
    prefix of the list for a larger one (truncation is a slice).
    """
    mons = []
    for deg in range(order + 1):
        block = []
        for a in range(deg + 1):
            for b in range(deg - a + 1):
                for c in range(deg - a - b + 1):
                    d = deg - a - b - c
                    block.append((a, b, c, d))
        block.sort()
        mons.extend(block)
    return tuple(mons)


@lru_cache(maxsize=None)
def monomial_index(order):
    return {mon: i for i, mon in enumerate(monomials(order))}


@lru_cache(maxsize=None)
def _mul_table(order):
    """Index pairs (i, j) with monomial_i * monomial_j = monomial_k, sorted
    by k, and the start of each k's run (the offsets for np.add.reduceat;
    every k has the run entry (k, 0))."""
    mons = monomials(order)
    idx = monomial_index(order)
    ii, jj, kk = [], [], []
    for i, a in enumerate(mons):
        da = sum(a)
        for j, b in enumerate(mons):
            if da + sum(b) > order:
                continue
            k = idx[(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])]
            ii.append(i)
            jj.append(j)
            kk.append(k)
    by_k = np.argsort(kk, kind="stable")
    starts = np.searchsorted(np.asarray(kk)[by_k], np.arange(len(mons)))
    return np.asarray(ii)[by_k], np.asarray(jj)[by_k], starts


# coefficient products per block of a batched multiply: the block's
# products (96 KB) and gather indices stay in cache (two rows per block at
# order 6, the largest order the operators reach)
_BLOCK = 6144


@lru_cache(maxsize=None)
def _flat_mul_table(order):
    """_mul_table for a block of jets stored back to back in one flat array:
    the pair count per jet, then flat gather indices and reduceat offsets
    for as many jets as fit in _BLOCK products.  The entries of the first r
    jets are a prefix, so a smaller block slices the table."""
    ii, jj, starts = _mul_table(order)
    n_mons, n_pairs = len(starts), len(ii)
    rows = np.arange(max(1, _BLOCK // n_pairs))[:, None]
    return (
        n_pairs,
        (rows * n_mons + ii).ravel(),
        (rows * n_mons + jj).ravel(),
        (rows * n_pairs + starts).ravel(),
    )


def _flat_rows(c, shape):
    """The coefficient array c broadcast to shape, as one flat array."""
    if c.shape == shape:
        return c.reshape(-1)
    out = np.empty(shape, dtype=complex)
    out[...] = c
    return out.reshape(-1)


def _batched_product(ac, bc, order):
    """Coefficients of the row-wise product of two batched coefficient
    arrays (broadcast against each other), one flat gather per block."""
    n_mons = ac.shape[-1]
    if ac.shape == bc.shape:
        shape = ac.shape
        af, bf = ac.reshape(-1), bc.reshape(-1)
    else:
        shape = np.broadcast(ac[..., 0], bc[..., 0]).shape + (n_mons,)
        af, bf = _flat_rows(ac, shape), _flat_rows(bc, shape)
    n_pairs, fi, fj, fs = _flat_mul_table(order)

    def block(a, b):
        n = a.size // n_mons * n_pairs
        return np.add.reduceat(a[fi[:n]] * b[fj[:n]], fs[: a.size])

    step = len(fs)  # coefficients per full block
    if af.size <= step:
        return block(af, bf).reshape(shape)
    out = np.empty(af.size, dtype=complex)
    for lo in range(0, af.size, step):
        out[lo : lo + step] = block(af[lo : lo + step], bf[lo : lo + step])
    return out.reshape(shape)


@lru_cache(maxsize=None)
def _deriv_table(order, var):
    """For each target monomial of order-1, the source index and factor."""
    mons_lo = monomials(order - 1)
    idx_hi = monomial_index(order)
    src = np.empty(len(mons_lo), dtype=np.intp)
    fac = np.empty(len(mons_lo))
    for t, a in enumerate(mons_lo):
        bumped = list(a)
        bumped[var] += 1
        src[t] = idx_hi[tuple(bumped)]
        fac[t] = a[var] + 1
    return src, fac


def _finite_exp(a):
    """np.exp of an array (or a scalar), raising ValueOverflow instead of
    returning an infinite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(a)
    if not np.isfinite(out).all():
        raise ValueOverflow("exp overflows the floating-point range")
    return out


def _scalar_exp(a):
    """cmath.exp, raising ValueOverflow where it overflows."""
    try:
        return cmath.exp(a)
    except OverflowError:
        raise ValueOverflow("exp overflows the floating-point range") from None


def _per_row(k):
    """A scalar, or a numpy array of per-row constants shaped to scale the
    coefficient rows of a batched jet."""
    return k[..., None] if isinstance(k, np.ndarray) else k


class Jet:
    """A truncated Taylor series, or a batch of them: c has shape
    (*batch, n_monomials).  Scalars and numpy arrays of shape batch act as
    constant jets (one value per row)."""

    __slots__ = ("order", "c")

    # numpy defers `array * jet` and friends to the Jet methods
    __array_ufunc__ = None

    def __init__(self, order, coef):
        self.order = order
        self.c = coef

    @classmethod
    def constant(cls, val, order):
        c = np.zeros(np.shape(val) + (len(monomials(order)),), dtype=complex)
        c[..., 0] = val
        return cls(order, c)

    @classmethod
    def variable(cls, var, val, order):
        """The coordinate jet of variable var at val, or at each entry of an
        array val (a stack of coordinate jets)."""
        c = np.zeros(np.shape(val) + (len(monomials(order)),), dtype=complex)
        c[..., 0] = val
        if order >= 1:
            e = [0, 0, 0, 0]
            e[var] = 1
            c[..., monomial_index(order)[tuple(e)]] = 1.0
        return cls(order, c)

    @property
    def batched(self):
        return self.c.ndim > 1

    @property
    def value(self):
        """The constant term: a complex number, or an array of shape batch."""
        if self.c.ndim == 1:
            return complex(self.c[0])
        return self.c[..., 0]

    def copy(self):
        return Jet(self.order, self.c.copy())

    def truncate(self, order):
        if order == self.order:
            return self
        if order > self.order:
            c = np.zeros(self.c.shape[:-1] + (len(monomials(order)),), dtype=complex)
            c[..., : self.c.shape[-1]] = self.c
            return Jet(order, c)
        return Jet(order, self.c[..., : len(monomials(order))].copy())

    def sum(self, weights=None):
        """Reduce the leading (term) axis: the plain sum of the rows, or the
        linear combinations weights @ rows.  Weights of shape (K, T) give a
        batch of K jets; weights of shape (*points, K, T) combine the rows
        of each point of a stack (c of shape (T, *points, M)) with that
        point's own weights."""
        c = self.c
        if weights is None:
            return Jet(self.order, c.sum(axis=0))
        if c.ndim == 2:
            return Jet(self.order, weights @ c)
        if weights.ndim > 2:
            return Jet(self.order, np.einsum("...kt,t...m->k...m", weights, c))
        out = weights @ c.reshape(c.shape[0], -1)
        return Jet(self.order, out.reshape(weights.shape[:-1] + c.shape[1:]))

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.order == self.order:
                return self, other
            n = min(self.order, other.order)
            return self.truncate(n), other.truncate(n)
        return self, Jet.constant(other, self.order)

    def _plus_constant(self, k):
        """self + k for a scalar or an array of per-row constants k."""
        if isinstance(k, np.ndarray) and k.shape != self.c.shape[:-1]:
            return self + Jet.constant(k, self.order)  # k broadcasts the batch
        c = self.c.copy()
        c[..., 0] += k
        return Jet(self.order, c)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._plus_constant(other)
        a, b = self._coerce(other)
        return Jet(a.order, a.c + b.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, -self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self._plus_constant(-other)
        a, b = self._coerce(other)
        return Jet(a.order, a.c - b.c)

    def __rsub__(self, other):
        return (-self)._plus_constant(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.order, self.c * _per_row(other))
        a, b = self._coerce(other)
        if a.order == 0:
            return Jet(0, a.c * b.c)
        ac, bc = a.c, b.c
        if ac.ndim == 1 and bc.ndim == 1:
            ii, jj, starts = _mul_table(a.order)
            return Jet(a.order, np.add.reduceat(ac[ii] * bc[jj], starts))
        if ac.size == bc.size == ac.shape[-1]:  # a stack of one: the plain product
            ii, jj, starts = _mul_table(a.order)
            out = np.add.reduceat(ac.ravel()[ii] * bc.ravel()[jj], starts)
            return Jet(a.order, out.reshape(ac.shape if ac.ndim >= bc.ndim else bc.shape))
        return Jet(a.order, _batched_product(ac, bc, a.order))

    def __rmul__(self, other):
        return Jet(self.order, self.c * _per_row(other))

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.order, self.c / _per_row(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if isinstance(n, int):
            if n < 0:
                return self.reciprocal() ** (-n)
            if n == 0:
                return Jet.constant(1.0, self.order)
            out = None
            base = self
            e = n
            while True:
                if e & 1:
                    out = base if out is None else out * base
                e >>= 1
                if not e:
                    return out
                base = base * base
        return self.cpow(n)

    def conj(self):
        return Jet(self.order, np.conj(self.c))

    def deriv(self, var):
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _deriv_table(self.order, var)
        return Jet(self.order - 1, self.c[..., src] * fac)

    # -- analytic functions ----------------------------------------------

    def apply_taylor(self, ts):
        """Compose with a univariate function given by Taylor coefficients.

        ts[j] must equal f^(j)(a0) / j! where a0 is this jet's value; for a
        batched jet each ts[j] may be an array of its batch shape (one
        function per row).
        """
        if len(ts) == 1:  # an order-0 jet: its one coefficient is the value
            c = np.empty(self.c.shape, dtype=complex)
            c[..., 0] = ts[0]
            return Jet(0, c)
        tilde = self.copy()
        tilde.c[..., 0] = 0.0
        # Horner's scheme, each step adding ts[j] to the fresh constant term
        out = tilde * ts[-1]
        out.c[..., 0] += ts[-2]
        for j in range(len(ts) - 3, -1, -1):
            out = out * tilde
            out.c[..., 0] += ts[j]
        return out

    def apply_derivatives(self, ds):
        ts = [d / math.factorial(j) for j, d in enumerate(ds)]
        return self.apply_taylor(ts)

    def exp(self):
        e0 = _finite_exp(self.value) if self.batched else _scalar_exp(self.value)
        ts = [e0 / math.factorial(j) for j in range(self.order + 1)]
        return self.apply_taylor(ts)

    def _nonzero_value(self, message):
        """The constant term, checked to be nonzero in every row."""
        a0 = self.value
        if (a0 == 0).any() if self.batched else a0 == 0:
            raise ZeroDivisionError(message)
        return a0

    def reciprocal(self):
        a0 = self._nonzero_value("jet with zero constant term")
        ts = [(-1) ** j * a0 ** (-(j + 1)) for j in range(self.order + 1)]
        return self.apply_taylor(ts)

    def cpow(self, alpha):
        """Principal-branch power with arbitrary (complex) exponent."""
        a0 = self._nonzero_value("jet power at zero base")
        if self.batched:
            ts = [_finite_exp(alpha * np.log(a0))]
        else:
            ts = [_scalar_exp(alpha * cmath.log(a0))]
        for j in range(1, self.order + 1):
            ts.append(ts[-1] * (alpha - j + 1) / (j * a0))
        return self.apply_taylor(ts)

    def imag(self):
        return (self - self.conj()) * (-0.5j)

    # -- output ----------------------------------------------------------

    def partial(self, alpha):
        """Mixed partial derivative for an exponent 4-tuple."""
        idx = monomial_index(self.order).get(tuple(alpha))
        if idx is None:
            raise KeyError("order of %s exceeds jet order %d" % (alpha, self.order))
        f = 1.0
        for a in alpha:
            f *= math.factorial(a)
        return complex(self.c[idx]) * f

    def table(self):
        return {mon: self.partial(mon) for mon in monomials(self.order)}

    def __repr__(self):
        if self.batched:
            return "Jet(order=%d, batch=%r)" % (self.order, self.c.shape[:-1])
        return "Jet(order=%d, value=%r)" % (self.order, self.value)


# -- Wirtinger derivatives ----------------------------------------------

def d_tau(j):
    return (j.deriv(VAR_X) - 1j * j.deriv(VAR_Y)) * 0.5


def d_taubar(j):
    return (j.deriv(VAR_X) + 1j * j.deriv(VAR_Y)) * 0.5


def d_z(j):
    return (j.deriv(VAR_U) - 1j * j.deriv(VAR_V)) * 0.5


def d_zbar(j):
    return (j.deriv(VAR_U) + 1j * j.deriv(VAR_V)) * 0.5
