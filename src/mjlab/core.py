"""Foundational types: evaluation points, weights, truncation policy,
coordinate jets, exact-jet function handles, tagged forms (a handle with
its weight/index and action kind), and finite-difference jets of a handle
(the independent reference that exact jets are checked against).
"""

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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

    Stored as the integer numerators of 2k and 2m; one that the rows of a
    row stack do not share as a 1-d int array, its k or m of shape (rows, 1).
    """

    two_k: int
    two_m: int

    def __post_init__(self):
        if not all(isinstance(n, int) or isinstance(n, np.ndarray) and n.ndim == 1
                   and n.dtype.kind == "i" for n in (self.two_k, self.two_m)):
            raise DomainError("2k and 2m must be integers")
        if (np.asarray(self.two_m) == 0).any():
            raise DomainError("index m must be nonzero")

    @property
    def k(self):
        return self.two_k / 2.0 if isinstance(self.two_k, int) else self.two_k[:, None] / 2.0

    @property
    def m(self):
        return self.two_m / 2.0 if isinstance(self.two_m, int) else self.two_m[:, None] / 2.0

    @property
    def per_row(self):
        return not isinstance(self.two_k, int) or not isinstance(self.two_m, int)

    @classmethod
    def of(cls, k, m):
        return cls(half_integer(k, "k"), half_integer(m, "m"))

    @classmethod
    def of_rows(cls, pairs):
        """One of the pairs per row; a numerator all rows share stays an int."""
        numerators = (np.array([getattr(wi, n) for wi in pairs]) for n in ("two_k", "two_m"))
        return cls(*(int(a[0]) if (a == a[0]).all() else a for a in numerators))

    def label(self):
        return "per row" if self.per_row else "%g,%g" % (self.k, self.m)

    def check_on(self, jv):
        """DomainError for a per-row pair on one point's coordinates."""
        if self.per_row and not jv.x.batched:
            raise DomainError("a per-row weight/index needs the coordinates of a point stack")

    def shift_k(self, dk2):
        """New weight with 2k shifted by the integer dk2."""
        return WeightIndex(self.two_k + dk2, self.two_m)

    def negate_m(self):
        return WeightIndex(self.two_k, -self.two_m)


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tail target and a hard cap on lattice summation radius.

    tail_bound is one target for every point, or a tuple of targets, one
    per point of the stack the policy is used on (in the order of its
    points), so that one evaluation sums each point to its own target."""

    tail_bound: float = 1e-14
    max_radius: int = 64

    def __post_init__(self):
        if isinstance(self.tail_bound, tuple):
            if not self.tail_bound or not all(0 < t < 1 for t in self.tail_bound):
                raise DomainError("every tail_bound must lie in (0, 1), got %r"
                                  % (self.tail_bound,))
        elif not 0 < self.tail_bound < 1:
            raise DomainError("tail_bound must lie in (0, 1), got %r" % (self.tail_bound,))
        if self.max_radius < 1:
            raise DomainError("max_radius must be >= 1")

    def tail_at(self, values, fn=None):
        """fn(tail) (tail itself without fn) at each point of values, the
        per-point values of a series (a number at one point, an array over
        a stack): one number, or for a tuple of targets an array shaped as
        values, fn taken per target; DomainError unless the tuple has one
        target per point."""
        tail = self.tail_bound
        if not isinstance(tail, tuple):
            return tail if fn is None else fn(tail)
        if np.size(values) != len(tail):
            raise DomainError("a per-point tail_bound has %d targets for %d points"
                              % (len(tail), np.size(values)))
        out = np.array(tail if fn is None else [fn(t) for t in tail])
        return out.reshape(np.shape(values)) if np.ndim(values) else out.item()


class JetVars:
    """The four coordinate jets x, y, u, v (`Jet.variable`) at a base point.
    At a stack of P points each coordinate jet has c.shape == (P, M): every
    function evaluated on them returns one row per point.

    `held` is the memo of a computation (`at` starts one), shared by every
    order of its base: coordinate jets by order, handle jets by (handle,
    order), `operators`' coefficient jets by (name, order, constants),
    `kernels.component_at`'s component vectors, and `group`'s slash frames
    by (element, order) with the memo of each element's transformed base.
    Nothing in a memo refers back to it, so reference counting frees it."""

    __slots__ = ("x", "y", "u", "v", "order", "held")

    def __init__(self, x, y, u, v, held=None):
        self.x = x
        self.y = y
        self.u = u
        self.v = v
        self.order = x.order
        self.held = {} if held is None else held

    @classmethod
    def at(cls, p, order):
        """Coordinate jets at an EvalPoint, or at a sequence of them (a
        stack): the start of a computation, with a memo of its own."""
        if isinstance(p, EvalPoint):
            base = (p.x, p.y, p.u, p.v)
        else:
            base = np.array([[q.x for q in p], [q.y for q in p], [q.u for q in p],
                             [q.v for q in p]], dtype=float)
        return cls.held_at(base, order, {})

    @classmethod
    def held_at(cls, base, order, held):
        """Coordinate jets of the given order at the base values (x, y, u,
        v), made once per memo `held`."""
        coords = held.get(order)
        if coords is None:
            coords = held[order] = cls._plain(base, order)
        return cls(*coords, held)

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
        """Coordinate jets of the given order at the same base point (or
        stack), made once per memo."""
        return JetVars.held_at(self.base, order, self.held)

    def extend(self, extra):
        """Coordinate jets at the same base point with a higher order."""
        return self.at_base(self.order + extra)


def _compose_taylor(table_jet, shift, order):
    """Evaluate a Taylor polynomial (a coordinate Jet at a base point, one
    row of coefficients per point of a stack, or per stacked operand and
    point) at the base moved by `shift`, the four displacement jets (dx,
    dy, du, dv) of the given order.  The result keeps the table's batch
    shape, also when every coefficient is zero."""
    if table_jet.order == order == 0:  # a constant on constants
        return table_jet
    out = Jet.constant(np.zeros(table_jet.c.shape[:-1]), order)
    powers = {}

    def power(var, n):
        key = (var, n)
        if key not in powers:
            powers[key] = shift[var] ** n
        return powers[key]

    for i, mon in enumerate(monomials(table_jet.order)):
        coef = table_jet.c[..., i]
        if not coef.any():
            continue
        factors = [power(var, e) for var, e in enumerate(mon) if e]
        # scaled row by row, as a constant jet's product would be, less its zeros
        term = factors[0] * coef if factors else Jet.constant(coef, order)
        for factor in factors[1:]:
            term = term * factor
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
        """Jet of this function on the coordinate jets jv, made once per
        computation: held in their memo by (handle, order)."""
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


def _central_offsets(mon, hh):
    """The sample offsets of the central difference of the mixed partial
    `mon` with step hh.  It is taken one derivative at a time, in the first
    active variable first, each as (f(o + hh) - f(o - hh)) / 2hh, so its
    offsets are the sequences of +hh or -hh steps, one per derivative, in
    lexicographic order (+hh first), each summed in that order."""
    axes = [var for var, e in enumerate(mon) for _ in range(e)]
    out = []
    for steps in itertools.product((hh, -hh), repeat=len(axes)):
        o = [0, 0, 0, 0]
        for var, d in zip(axes, steps):
            o[var] += d
        out.append(tuple(o))
    return out


@lru_cache(maxsize=None)
def _stencil(order):
    """The stencils of `finite_difference_jet` at the given order, in units
    of half its step: the sample offsets (4-tuples of ints, in the order the
    partials meet them) and, per partial, the positions among them of its
    coarse (step 2) and its fine (step 1) central offsets.  An offset of k
    units is k times the half step, which is the value of its sum of
    steps, each of at most three: doubling and halving are exact."""
    index = {}  # offsets -> position, in the order met
    pairs = [[[index.setdefault(o, len(index)) for o in _central_offsets(mon, hh)]
              for hh in (2, 1)] for mon in monomials(order)]
    return np.array(list(index), dtype=float), pairs


def _central(values, hh):
    """The central difference of `_central_offsets` from the samples at
    its offsets: (up - down) / 2hh over adjacent pairs, the last
    derivative's pairs first."""
    while len(values) > 1:
        values = [(up - down) / (2 * hh) for up, down in zip(values[::2], values[1::2])]
    return values[0]


def finite_difference_jet(h, p, order):
    """The Taylor jet of the handle h at p up to `order` from samples of
    h, each mixed partial by central differences with one Richardson
    extrapolation level: the independent reference for exact jets.  The
    step is h.fd_step, or default_fd_step(p) when that is None.

    p is one EvalPoint, or a sequence of them: then one row per point, shape
    (points, M).  h is evaluated once, on the stack of every point's stencil
    points, each point's in the order its partials meet them; a non-finite
    sample raises NonFinite naming the first such point.
    """
    if order > 3:
        raise JetUnavailable("finite differences support order <= 3")
    one = isinstance(p, EvalPoint)
    ps = [p] if one else list(p)
    units, pairs = _stencil(order)
    steps = []
    for q in ps:
        step = h.fd_step if h.fd_step is not None else default_fd_step(q)
        # worst case the stencil moves `order` steps in y
        if q.y - order * step <= 0:
            raise StencilOutOfDomain(
                "stencil leaves the upper half plane at y=%g, h=%g" % (q.y, step)
            )
        steps.append(step)
    samples = np.concatenate([np.array([q.x, q.y, q.u, q.v]) + units * (step / 2)
                              for q, step in zip(ps, steps)])
    values = np.broadcast_to(h.jet_at(JetVars.held_at(samples.T, 0, {})).value, (len(samples),))
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonFinite("non-finite sample at %r" % (EvalPoint(*samples[bad.argmax()].tolist()),))
    values = [complex(v) for v in values]  # the arithmetic of lone h.eval samples
    c = np.zeros((len(ps), len(pairs)), dtype=complex)
    for row, step, first in zip(c, steps, range(0, len(values), len(units))):
        at = values[first:first + len(units)]
        for i, (mon, (at_step, at_half)) in enumerate(zip(monomials(order), pairs)):
            if sum(mon) == 0:
                row[i] = at[at_step[0]]
                continue
            coarse = _central([at[j] for j in at_step], step)
            fine = _central([at[j] for j in at_half], step / 2)
            row[i] = (4.0 * fine - coarse) / 3.0 / math.prod(map(math.factorial, mon))
    return Jet(order, c[0] if one else c)


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


def fourier_sum_handle(terms, label):
    """`fourier_sum_jet` over a list of terms (n, r, c) as an exact handle."""
    return FunctionHandle(jet_fn=lambda jv: fourier_sum_jet(terms, jv.tau, jv.z), label=label)


def exp_qn_zeta_r(n, r):
    """The elementary exponential q^n zeta^r as an exact handle."""
    return fourier_sum_handle([(n, r, 1.0)], "q^%s zeta^%s" % (n, r))
