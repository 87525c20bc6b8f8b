"""Foundational types: evaluation points, weights, truncation policy, and
the differentiation engine that turns any function handle into partial
derivatives of (x, y, u, v) up to order 3.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    JetUnavailable,
    NonFinite,
    StencilOutOfDomain,
    ZeroArgument,
)
from .jets import Jet, monomials


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
        two_k = Fraction(k).limit_denominator(2) * 2
        two_m = Fraction(m).limit_denominator(2) * 2
        if two_k.denominator != 1 or two_m.denominator != 1:
            raise DomainError("k and m must be half-integers")
        return cls(int(two_k), int(two_m))

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
        if not self.tail_bound > 0:
            raise DomainError("tail_bound must be positive")
        if self.max_radius < 1:
            raise DomainError("max_radius must be >= 1")


class JetVars:
    """The four coordinate jets at a base point, or transformed versions
    of them (after a group action).  At a stack of P points each coordinate
    jet has c.shape == (P, M): every function evaluated on them returns one
    row per point."""

    __slots__ = ("x", "y", "u", "v", "order", "plain")

    def __init__(self, x, y, u, v, plain=False):
        self.x = x
        self.y = y
        self.u = u
        self.v = v
        self.order = x.order
        self.plain = plain

    @classmethod
    def at(cls, p, order):
        """Plain coordinate jets at an EvalPoint, or at a sequence of them
        (a stack)."""
        if isinstance(p, EvalPoint):
            return cls._plain((p.x, p.y, p.u, p.v), order)
        return cls._plain(
            tuple(np.array(c, dtype=float) for c in zip(*((q.x, q.y, q.u, q.v) for q in p))),
            order,
        )

    @classmethod
    def _plain(cls, base, order):
        return cls(*(Jet.variable(var, val, order) for var, val in enumerate(base)), plain=True)

    @property
    def base(self):
        """The values (x, y, u, v) of the coordinate jets: floats, or arrays
        over the stack."""
        return tuple(j.value.real for j in (self.x, self.y, self.u, self.v))

    @property
    def point(self):
        """The base point: an EvalPoint, or a tuple of them for a stack."""
        x, y, u, v = self.base
        if np.ndim(x) == 0:
            return EvalPoint(x, y, u, v)
        return tuple(EvalPoint(*q) for q in zip(x.tolist(), y.tolist(), u.tolist(), v.tolist()))

    @property
    def tau(self):
        return self.x + 1j * self.y

    @property
    def taubar(self):
        return self.x - 1j * self.y

    @property
    def z(self):
        return self.u + 1j * self.v

    @property
    def zbar(self):
        return self.u - 1j * self.v

    def at_base(self, order):
        """Plain coordinate jets of the given order at the base point (or
        stack) of these jets."""
        return JetVars._plain(self.base, order)

    def extend(self, extra):
        """Plain coordinate jets at the same base point with a higher order."""
        if not self.plain:
            raise JetUnavailable("cannot extend non-plain jet variables")
        return self.at_base(self.order + extra)

    @classmethod
    def from_complex(cls, tau, taubar, z, zbar):
        """Build transformed coordinates from holomorphic/antiholomorphic jets."""
        return cls(
            (tau + taubar) * 0.5,
            (tau - taubar) * (-0.5j),
            (z + zbar) * 0.5,
            (z - zbar) * (-0.5j),
            plain=False,
        )


def _compose_taylor(table_jet, jv, base):
    """Evaluate a Taylor polynomial (given as a plain-coordinate Jet at the
    base values (x, y, u, v), one row of coefficients per point of a stack)
    on transformed coordinate jets."""
    dx = jv.x - base[0]
    dy = jv.y - base[1]
    du = jv.u - base[2]
    dv = jv.v - base[3]
    out = Jet.constant(0.0, jv.order)
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
    """An evaluatable complex function on H x C with derivative jets.

    Exact handles are defined by a callable mapping JetVars -> Jet (the
    function evaluated in Taylor arithmetic).  Plain handles carry only a
    point evaluator and fall back to finite differences for jets.
    """

    def __init__(self, fn=None, jet_fn=None, label="", fd_step=None):
        if fn is None and jet_fn is None:
            raise ValueError("need fn or jet_fn")
        self._fn = fn
        self._jet_fn = jet_fn
        self.label = label
        self.fd_step = fd_step

    def eval(self, p):
        if self._fn is not None:
            return complex(self._fn(p))
        return self.jet_at(JetVars.at(p, 0)).value

    __call__ = eval

    def jet_at(self, jv):
        """Jet of this function on the given (possibly transformed) coordinates."""
        if self._jet_fn is not None:
            return self._jet_fn(jv)
        # finite-difference path: Taylor coefficients at each base point,
        # stacked, then composed with the transformed coordinates
        points = jv.point
        fd = lambda p: finite_difference_jet(self, p, jv.order, step=self.fd_step).c
        c = fd(points) if isinstance(points, EvalPoint) else np.stack([fd(p) for p in points])
        tj = Jet(jv.order, c)
        if jv.plain:
            return tj
        return _compose_taylor(tj, jv, jv.base)


def default_fd_step(p):
    return 1e-3 * max(1.0, p.y)


def finite_difference_jet(f, p, order, step=None):
    """The Taylor jet of f at p up to `order`, each mixed partial by
    central differences with one Richardson extrapolation level.
    """
    if order > 3:
        raise JetUnavailable("finite differences support order <= 3")
    h = step if step is not None else default_fd_step(p)
    # worst case the stencil moves `order` steps of size h in y
    if p.y - order * h <= 0:
        raise StencilOutOfDomain(
            "stencil leaves the upper half plane at y=%g, h=%g" % (p.y, h)
        )
    evaluator = f.eval if isinstance(f, FunctionHandle) else f
    cache = {}

    def sample(offsets):
        key = offsets
        if key not in cache:
            q = EvalPoint(
                p.x + offsets[0], p.y + offsets[1], p.u + offsets[2], p.v + offsets[3]
            )
            val = complex(evaluator(q))
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise NonFinite("non-finite sample at %r" % (q,))
            cache[key] = val
        return cache[key]

    def central(alpha, offsets, hh):
        # recursive central difference in the first active variable
        for var in range(4):
            if alpha[var] > 0:
                lower = list(alpha)
                lower[var] -= 1
                lower = tuple(lower)
                up = list(offsets)
                up[var] += hh
                dn = list(offsets)
                dn[var] -= hh
                return (central(lower, tuple(up), hh) - central(lower, tuple(dn), hh)) / (
                    2 * hh
                )
        return sample(offsets)

    c = np.zeros(len(monomials(order)), dtype=complex)
    for i, mon in enumerate(monomials(order)):
        if sum(mon) == 0:
            c[i] = sample((0.0, 0.0, 0.0, 0.0))
            continue
        coarse = central(mon, (0.0, 0.0, 0.0, 0.0), h)
        fine = central(mon, (0.0, 0.0, 0.0, 0.0), h / 2)
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
