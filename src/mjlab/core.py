"""Foundational types: evaluation points, weights, truncation policy,
coordinate jets, exact-jet function handles, tagged forms (a handle with
its weight/index and action kind), and finite-difference jets of a handle
(the independent reference that exact jets are checked against).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    JetUnavailable,
    NonFinite,
    StencilOutOfDomain,
    ZeroArgument,
)
from .jets import Jet, monomial_index, monomials


def principal_sqrt(w):
    """Square root with argument in (-pi/2, pi/2], elementwise for an array."""
    if isinstance(w, np.ndarray):
        if (w == 0).any():
            raise ZeroArgument("principal_sqrt(0)")
        return np.sqrt(w.astype(complex))
    w = complex(w)
    if w == 0:
        raise ZeroArgument("principal_sqrt(0)")
    return cmath.sqrt(w)


@dataclass(frozen=True)
class EvalPoint:
    """A point (tau, z) of H x C stored as four reals."""

    x: float
    y: float
    u: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if not self.y > 0:
            raise DomainError("EvalPoint requires y > 0, got y=%r" % (self.y,))

    @property
    def tau(self):
        return complex(self.x, self.y)

    @property
    def z(self):
        return complex(self.u, self.v)

    @property
    def q(self):
        return cmath.exp(2j * math.pi * self.tau)

    @property
    def zeta(self):
        return cmath.exp(2j * math.pi * self.z)

    @classmethod
    def from_tau_z(cls, tau, z=0j):
        tau = complex(tau)
        z = complex(z)
        return cls(tau.real, tau.imag, z.real, z.imag)


# how far 2x may lie from an integer for x to count as a half-integer
HALF_INTEGER_TOL = 1e-9


def half_integer(x, name):
    """2x as an int for a half-integer x (an integer or an odd multiple of
    1/2); DomainError naming the parameter otherwise."""
    two_x = 2.0 * float(x)
    if not (math.isfinite(two_x) and abs(two_x - round(two_x)) <= HALF_INTEGER_TOL):
        raise DomainError("%s must be a half-integer, got %r" % (name, x))
    return round(two_x)


def require_finite(x, name):
    """x itself if it is a finite real or complex number, or an array of
    them (a value per point of a stack); DomainError naming the parameter
    and its first non-finite value otherwise."""
    if isinstance(x, np.ndarray):
        bad = ~np.isfinite(x)
        if bad.any():
            raise DomainError("%s must be finite, got %r" % (name, x[bad][0].item()))
    elif not cmath.isfinite(x):
        raise DomainError("%s must be finite, got %r" % (name, x))
    return x


def labels(two_m):
    """Representation labels modulo 2m, also the labels of the theta and
    completed Appell components.

    For integer index (2m even) these are the integers 0..2m-1.  For
    half-integer index (2m odd) the labels live in Z + 1/2: with integer
    labels the T-matrix entries are not well defined modulo 2m and the
    braid relation (ST)^3 = S^2 fails, while with half-integer labels both
    hold to machine precision.
    """
    off = 0.5 if two_m % 2 else 0.0
    return [j + off for j in range(two_m)]


@dataclass(frozen=True)
class WeightIndex:
    """A weight/index pair (k, m) of half-integers, m != 0.

    Stored as the integer numerators of 2k and 2m.
    """

    two_k: int
    two_m: int

    def __post_init__(self):
        if self.two_m == 0:
            raise DomainError("index m must be nonzero")
        if not isinstance(self.two_k, int) or not isinstance(self.two_m, int):
            raise DomainError("2k and 2m must be integers")

    @property
    def k(self):
        return self.two_k / 2.0

    @property
    def m(self):
        return self.two_m / 2.0

    @classmethod
    def of(cls, k, m):
        return cls(half_integer(k, "k"), half_integer(m, "m"))

    def shift_k(self, dk2):
        """New weight with 2k shifted by the integer dk2."""
        return WeightIndex(self.two_k + dk2, self.two_m)

    def negate_m(self):
        return WeightIndex(self.two_k, -self.two_m)


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tail target and a hard cap on lattice summation radius."""

    tail_bound: float = 1e-14
    max_radius: int = 64

    def __post_init__(self):
        if not 0 < self.tail_bound < 1:
            raise DomainError("tail_bound must lie in (0, 1), got %r" % (self.tail_bound,))
        if self.max_radius < 1:
            raise DomainError("max_radius must be >= 1")


class JetVars:
    """The four coordinate jets at a base point, or transformed versions
    of them (after a group action).  At a stack of P points each coordinate
    jet has c.shape == (P, M): every function evaluated on them returns one
    row per point.

    `held` is the memo of a computation (`at` starts one), shared by every
    plain order of its base: coordinate jets by order, handle jets by
    (handle, order), and `group`'s slash frames and transformed-base memos.
    Transformed coordinates carry the memo of their own base.  Nothing in a
    memo refers back to it, so reference counting frees it."""

    __slots__ = ("x", "y", "u", "v", "order", "plain", "held")

    def __init__(self, x, y, u, v, plain=False, held=None):
        self.x = x
        self.y = y
        self.u = u
        self.v = v
        self.order = x.order
        self.plain = plain
        self.held = {} if held is None else held

    @classmethod
    def at(cls, p, order):
        """Plain coordinate jets at an EvalPoint, or at a sequence of them
        (a stack): the start of a computation, with a memo of its own."""
        if isinstance(p, EvalPoint):
            base = (p.x, p.y, p.u, p.v)
        else:
            base = np.array([[q.x for q in p], [q.y for q in p], [q.u for q in p],
                             [q.v for q in p]], dtype=float)
        coords = cls._plain(base, order)
        return cls(*coords, True, {order: coords})

    @staticmethod
    def _plain(base, order):
        """The four coordinate jets (`Jet.variable`), the rows of one array."""
        base = np.asarray(base, dtype=complex)
        if order:
            c = np.zeros(base.shape + (len(monomials(order)),), dtype=complex)
            c[..., 0] = base
            for var, unit in enumerate(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))):
                c[var, ..., monomial_index(order)[unit]] = 1.0
        else:
            c = base[..., None]
        x, y, u, v = c
        return Jet(order, x), Jet(order, y), Jet(order, u), Jet(order, v)

    @property
    def base(self):
        """The values (x, y, u, v) of the coordinate jets: floats, or arrays
        over the stack."""
        return tuple(j.value.real for j in (self.x, self.y, self.u, self.v))

    # x + iy and the others straight from the coefficient arrays: the sums
    # Jet arithmetic forms, bit for bit, without its dispatch per point
    @property
    def tau(self):
        return Jet(self.order, self.x.c + self.y.c * 1j)

    @property
    def taubar(self):
        return Jet(self.order, self.x.c - self.y.c * 1j)

    @property
    def z(self):
        return Jet(self.u.order, self.u.c + self.v.c * 1j)

    @property
    def zbar(self):
        return Jet(self.u.order, self.u.c - self.v.c * 1j)

    def at_base(self, order):
        """Plain coordinate jets of the given order at the base point (or
        stack) of these jets, made once per memo."""
        coords = self.held.get(order)
        if coords is None:
            coords = self.held[order] = JetVars._plain(self.base, order)
        return JetVars(*coords, True, self.held)

    def extend(self, extra):
        """Plain coordinate jets at the same base point with a higher order."""
        if not self.plain:
            raise JetUnavailable("cannot extend non-plain jet variables")
        return self.at_base(self.order + extra)

    @classmethod
    def from_complex(cls, tau, taubar, z, zbar, held=None):
        """Build transformed coordinates from holomorphic/antiholomorphic
        jets, with the memo `held` of their base (a fresh one if None)."""
        return cls(
            (tau + taubar) * 0.5,
            (tau - taubar) * (-0.5j),
            (z + zbar) * 0.5,
            (z - zbar) * (-0.5j),
            plain=False,
            held=held,
        )


def _compose_taylor(table_jet, jv, base):
    """Evaluate a Taylor polynomial (given as a plain-coordinate Jet at the
    base values (x, y, u, v), one row of coefficients per point of a stack,
    or per stacked operand and point) on transformed coordinate jets.  The
    result keeps the table's batch shape, also when every coefficient is
    zero."""
    dx = jv.x - base[0]
    dy = jv.y - base[1]
    du = jv.u - base[2]
    dv = jv.v - base[3]
    out = Jet.constant(np.zeros(table_jet.c.shape[:-1]), jv.order)
    powers = {}

    def power(j, n):
        key = (id(j), n)
        if key not in powers:
            powers[key] = j ** n
        return powers[key]

    for i, mon in enumerate(monomials(table_jet.order)):
        coef = table_jet.c[..., i]
        if not coef.any():
            continue
        term = Jet.constant(coef, jv.order)
        for var_jet, e in zip((dx, dy, du, dv), mon):
            if e:
                term = term * power(var_jet, e)
        out = out + term
    return out


class FunctionHandle:
    """An evaluatable complex function on H x C with derivative jets,
    defined by a callable mapping JetVars -> Jet (the function evaluated in
    Taylor arithmetic).  fd_step, when given, is the step of its
    finite-difference jets (`finite_difference_jet`)."""

    def __init__(self, jet_fn, label="", fd_step=None):
        self._jet_fn = jet_fn
        self.label = label
        self.fd_step = fd_step

    def eval(self, p):
        # a computation of its own: nothing held there to serve yet
        return self._jet_fn(JetVars.at(p, 0)).value

    def jet_at(self, jv):
        """Jet of this function on the given (possibly transformed)
        coordinates.  On plain coordinates it is made once per computation:
        held in their memo by (handle, order)."""
        if not jv.plain:
            return self._jet_fn(jv)
        key = (self, jv.order)
        jet = jv.held.get(key)
        if jet is None:
            jet = jv.held[key] = self._jet_fn(jv)
        return jet


@dataclass(frozen=True)
class TaggedForm:
    """A function handle together with its weight/index and action kind."""

    f: FunctionHandle
    weight_index: WeightIndex
    action_kind: str = "standard"  # standard | skew

    def __post_init__(self):
        if self.action_kind not in ("standard", "skew"):
            raise DomainError("action_kind must be standard or skew")

    def eval(self, p):
        return self.f.eval(p)

    def jet_at(self, jv):
        return self.f.jet_at(jv)


def default_fd_step(p):
    return 1e-3 * max(1.0, p.y)


def finite_difference_jet(h, p, order):
    """The Taylor jet of the handle h at p up to `order` from samples of
    h.eval, each mixed partial by central differences with one Richardson
    extrapolation level: the independent reference for exact jets.  The
    step is h.fd_step, or default_fd_step(p) when that is None.
    """
    if order > 3:
        raise JetUnavailable("finite differences support order <= 3")
    step = h.fd_step if h.fd_step is not None else default_fd_step(p)
    # worst case the stencil moves `order` steps in y
    if p.y - order * step <= 0:
        raise StencilOutOfDomain(
            "stencil leaves the upper half plane at y=%g, h=%g" % (p.y, step)
        )
    cache = {}

    def sample(offsets):
        if offsets not in cache:
            q = EvalPoint(*(b + o for b, o in zip((p.x, p.y, p.u, p.v), offsets)))
            val = h.eval(q)
            if not cmath.isfinite(val):
                raise NonFinite("non-finite sample at %r" % (q,))
            cache[offsets] = val
        return cache[offsets]

    def bump(t, var, d):
        return t[:var] + (t[var] + d,) + t[var + 1 :]

    def central(alpha, offsets, hh):
        # recursive central difference in the first active variable
        var = next((i for i, a in enumerate(alpha) if a), None)
        if var is None:
            return sample(offsets)
        lower = bump(alpha, var, -1)
        up = central(lower, bump(offsets, var, hh), hh)
        return (up - central(lower, bump(offsets, var, -hh), hh)) / (2 * hh)

    c = np.zeros(len(monomials(order)), dtype=complex)
    for i, mon in enumerate(monomials(order)):
        if sum(mon) == 0:
            c[i] = sample((0.0, 0.0, 0.0, 0.0))
            continue
        coarse = central(mon, (0.0, 0.0, 0.0, 0.0), step)
        fine = central(mon, (0.0, 0.0, 0.0, 0.0), step / 2)
        c[i] = (4.0 * fine - coarse) / 3.0 / math.prod(map(math.factorial, mon))
    return Jet(order, c)


def _term_axis(values, *jets):
    """A 1-d array of per-term constants shaped to broadcast as a term axis
    in front of the point axes of the given jets."""
    points = max([j.c.ndim for j in jets]) - 1
    return values.reshape(values.shape + (1,) * points) if points else values


def fourier_sum_jet(terms, tau, z):
    """sum of c q^n zeta^r over a finite sequence of terms (n, r, c) with
    real exponents (a rational n as its float): every term on a term axis,
    one batched exp, one Jet.sum."""
    if not terms:
        return Jet.constant(0.0, tau.order)
    n, r, c = (np.array(col) for col in zip(*terms))
    n, r = _term_axis(n, tau, z), _term_axis(r, tau, z)
    return (2j * math.pi * (n * tau + r * z)).exp().sum(c)


def exp_qn_zeta_r(n, r):
    """The elementary exponential q^n zeta^r as an exact handle."""

    def je(jv):
        return fourier_sum_jet([(n, r, 1.0)], jv.tau, jv.z)

    return FunctionHandle(jet_fn=je, label="q^%s zeta^%s" % (n, r))
