"""Appell-type lattice sums of half-integer index, their real-analytic
completions, and the distinguished weight-1/2 combination annihilated by
the covariant xi operator.

The rank of the lattice sum is 2m; the sum over Z^(2m) collapses to a sum
over the pair (sum of entries, sum of squares) with integer multiplicities,
so the cost grows polynomially rather than exponentially in the radius.
All evaluators work in Taylor-jet arithmetic, so every function here has
exact derivative jets and can be fed to the slash actions and covariant
operators directly.  Each function is one jet evaluator, which
`mjlab.catalog` binds to the plain coordinates; a point value is the jet at
order 0.  The completed components take one label or a list of labels (the
vector of a rank, one row per label), sharing the work no label changes.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from .catalog import build
from .core import TruncationPolicy, _term_axis, labels
from .errors import DomainError, PoleAtAppell, PoleAtTheta, ValueOverflow
from .jets import Jet, _finite_exp
from .special import (
    TWO_PI,
    _finite_sum,
    _gaussian_radius,
    _largest,
    _masked_exp,
    jacobi_theta_jet,
    require_upper_half_plane,
    zwegers_R_jet,
)

# beyond this rank the multiplicity tables get large and the sums slow
MAX_RANK = 6

# a lattice translate of the theta zero divisor closer than this is a pole
POLE_TOL_THETA = 1e-8
# an Appell denominator smaller than this is a pole
POLE_TOL_APPELL = 1e-12


def check_component(two_m, l=None):
    """DomainError unless the rank 2m is an integer from 1 to MAX_RANK and,
    when a label is given, l is one of the canonical labels core.labels(two_m).

    Canonical labels are integers for even 2m and half-integers for odd 2m;
    with this parity the diagonal translation law of the completed
    components is well defined modulo 2m.  The label enters only the
    completed functions; the plain lattice sum ignores it.
    """
    if not isinstance(two_m, int) or not 1 <= two_m <= MAX_RANK:
        raise DomainError("2m must be an integer in [1, %d], got %r" % (MAX_RANK, two_m))
    if l is not None and l not in labels(two_m):
        raise DomainError(
            "label %r is not one of the canonical labels %r for 2m=%d"
            % (l, labels(two_m), two_m)
        )


@lru_cache(maxsize=None)
def lattice_multiplicities(rank, radius):
    """The states of the vectors n in [-radius, radius]^rank: one row
    (s1, s2, count) per occurring pair of entry sum s1 and square sum s2,
    with the number of vectors that have it, sorted by (s1, s2)."""
    # counts[s1 + rank * radius, s2], built one coordinate at a time
    counts = np.zeros((2 * rank * radius + 1, rank * radius * radius + 1), dtype=np.int64)
    counts[0, 0] = 1
    for done in range(rank):
        prev = counts[: 2 * done * radius + 1, : done * radius * radius + 1].copy()
        h, w = prev.shape
        counts[: h + 2 * radius, : w + radius * radius] = 0
        for n in range(-radius, radius + 1):
            counts[n + radius : n + radius + h, n * n : n * n + w] += prev
    s1, s2 = np.nonzero(counts)
    return np.stack([s1 - rank * radius, s2, counts[s1, s2]], axis=1)


@lru_cache(maxsize=None)
def _state_index(rank, radius, outer):
    """Positions of the states of lattice_multiplicities(rank, radius) among
    those of the larger radius outer (both sorted by (s1, s2))."""
    width = rank * outer * outer + 1  # s2 < width
    inner_rows = lattice_multiplicities(rank, radius)
    outer_rows = lattice_multiplicities(rank, outer)
    return np.searchsorted(
        outer_rows[:, 0] * width + outer_rows[:, 1], inner_rows[:, 0] * width + inner_rows[:, 1]
    )


def _state_counts(rank, radius):
    """The states (s1, s2) of the largest radius of a point stack and their
    counts: one shared count row, or for a stack whose radii differ one row
    per point holding that point's own counts (0 for a state outside it)."""
    R = _largest(radius)
    s1, s2, cnt = lattice_multiplicities(rank, R).T
    if isinstance(radius, int) or (radius == R).all():
        return s1, s2, cnt
    counts = np.zeros(radius.shape + cnt.shape, dtype=np.int64)
    rows = counts.reshape(-1, len(cnt))
    for r in np.unique(radius).tolist():
        at = np.ix_(np.flatnonzero(radius == r), _state_index(rank, r, R))
        rows[at] = lattice_multiplicities(rank, r)[:, 2]
    return s1, s2, counts


def _at(values, shape, index):
    """The entry at a flat point index of a scalar or a per-point array
    broadcast to the point shape."""
    return complex(np.broadcast_to(values, shape).flat[index])


def _check_theta_pole(tau_val, z_val):
    """Raise if z lies on the zero divisor Z tau + Z of theta (at any point
    of a stack)."""
    y0 = tau_val.imag
    alpha = z_val.imag / y0
    beta = z_val.real - alpha * tau_val.real
    hit = (abs(alpha - np.rint(alpha)) < POLE_TOL_THETA) & (
        abs(beta - np.rint(beta)) < POLE_TOL_THETA
    )
    if hit.any():
        first = np.argmax(hit)
        raise PoleAtTheta(
            "theta denominator vanishes at z=%r (tau=%r)"
            % (_at(z_val, hit.shape, first), _at(tau_val, hit.shape, first))
        )


def mu_m_jet(two_m, tau, z1, z2, policy=None):
    """The index-m Appell lattice sum as a jet.

    e^(pi i z1) / theta(z2; tau)^(2m) times the sum over n in Z^(2m) of
    (-1)^(s1) q^((s2 + s1)/2) e^(2 pi i s1 z2) / (1 - e^(2 pi i z1) q^(s1)),
    where s1 and s2 are the entry sum and the square sum of n.

    z1 is a sequence of jets, one row per z1 on a leading axis, shape
    (len(z1), *points, M), or one jet (a sequence of one, its row
    returned).  Only the denominators and the factor e^(pi i z1) involve
    z1, so theta(z2)^(-2m), the lattice states and the inner and outer sums
    are formed once, and each row is the sum at its z1 alone, bit for bit.

    At a stack of points each point sums the states it sums alone: the
    states come from the largest radius of the stack, each point reads its
    own counts and tail floor, and the entry-sum and square-sum axes hold
    the states some point keeps, with weight 0 (and no exp, reciprocal or
    pole check) where a point does not keep one.
    """
    check_component(two_m)
    policy = policy or TruncationPolicy()
    lone = isinstance(z1, Jet)
    z1s = [z1] if lone else list(z1)
    points = tau.c.shape[:-1]
    shapes = {z.c.shape[:-1] for z in z1s}
    shapes.add(z2.c.shape[:-1])
    if shapes != {points}:  # tau on every point
        points = np.broadcast_shapes(points, *shapes)
        tau = Jet(tau.order, np.broadcast_to(tau.c, points + tau.c.shape[-1:]))
    tau_val = tau.value
    for z in z1s:
        require_upper_half_plane("Appell sum", tau_val, z1=z.value, z2=z2.value)
    y0 = tau_val.imag
    v2 = z2.value.imag

    _check_theta_pole(tau_val, z2.value)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_sum raises
        theta = jacobi_theta_jet(tau, z2, policy)
        if np.any(theta.value == 0):  # off its zeros: theta below the float range
            raise ValueOverflow("1/theta(z2) overflows the floating-point range")
        theta_inv_pow = theta.reciprocal() ** two_m

        # each coordinate contributes exp(-pi y n^2) against at most
        # exp((pi y + 2 pi |v2|) |n|); the denominator is handled separately
        radius = _gaussian_radius(y0, 1, math.pi * y0 + TWO_PI * abs(v2), policy)
        s1, s2, cnt = _state_counts(two_m, radius)

        # drop states whose numerator bound is negligible before touching the
        # denominator, so near-misses of distant poles cannot inflate the tail
        y_s, v_s = np.asarray(y0)[..., None], np.asarray(v2)[..., None]  # per point
        bound = cnt * _finite_exp(-math.pi * y_s * (s2 + s1) - TWO_PI * s1 * v_s)
        floor = np.asarray(policy.tail_at(y0))[..., None] * 1e-2  # per point
        keep = ~(bound < floor)  # (*points, states)
        kept = keep if keep.ndim == 1 else keep.reshape(-1, keep.shape[-1]).any(axis=0)
        s1, s2, cnt, keep = s1[kept], s2[kept], cnt[..., kept], keep[..., kept]
        # s1 is sorted (and holds 0, the zero vector is always kept)
        first = np.empty(len(s1), dtype=bool)
        first[0] = True
        np.not_equal(s1[1:], s1[:-1], out=first[1:])
        u1, i1 = s1[first], np.cumsum(first) - 1
        u2, i2 = np.unique(s2, return_inverse=True)

        # the sum over states factors as sum over s1 of
        # e^(s1 (pi i tau + 2 pi i z2)) / den(s1) times
        # sum over s2 of (-1)^(s1) cnt e^(pi i s2 tau): one weight matrix,
        # or one per point where the points keep different states
        signed = np.where(s1 % 2, -cnt, cnt)
        ragged = not keep.all()
        if ragged:
            signed = signed * keep
        weights = np.zeros(signed.shape[:-1] + (len(u1), len(u2)))
        weights[..., i1, i2] = signed
        mask1 = _kept_rows(weights, -1) if ragged else None
        mask2 = _kept_rows(weights, -2) if ragged else None

        u1 = _term_axis(u1, tau)
        q_u1 = _masked_exp((TWO_PI * 1j * u1) * tau, mask1)
        inner = _masked_exp((1j * math.pi * _term_axis(u2, tau)) * tau, mask2).sum(weights)
        outer = _masked_exp(u1 * (1j * math.pi * tau + TWO_PI * 1j * z2), mask1)
        rows = [_appell_row(z, u1, q_u1, outer, inner, theta_inv_pow, points) for z in z1s]
    return _finite_sum(rows[0] if lone else Jet(rows[0].order, np.array([row.c for row in rows])),
                       "Appell sum")


def _appell_row(z1, u1, q_u1, outer, inner, theta_inv_pow, points):
    """The Appell sum at one z1 from the pieces free of it: the
    denominators 1 - e^(2 pi i z1) q^(s1), one row per kept entry sum (1
    where a point does not keep the entry sum, PoleAtAppell where one
    vanishes), the sum over s1 of outer / den times inner, and the factors
    e^(pi i z1) and theta(z2)^(-2m)."""
    den = 1.0 - (TWO_PI * 1j * z1).exp() * q_u1
    small = np.abs(den.value) < POLE_TOL_APPELL
    if small.any():
        rows = small.reshape(len(u1), -1)
        first = np.argmax(rows.any(axis=0))
        raise PoleAtAppell(
            "Appell denominator vanishes at z1=%r, entry sum %d"
            % (_at(z1.value, points, first), u1.flat[np.argmax(rows[:, first])])
        )
    total = (outer * den.reciprocal() * inner).sum()
    return (1j * math.pi * z1).exp() * total * theta_inv_pow


def _kept_rows(weights, axis):
    """Which rows of a state axis of the weights (-1: entry sums, -2: square
    sums) each point keeps, as a float mask with the state axis first, or
    None where every point keeps every row."""
    has = (weights != 0).any(axis=axis)
    if has.all():
        return None
    return np.moveaxis(has, -1, 0).astype(float)


# ----------------------------------------------------------------------
# completed vector components


def _r_argument(two_m, l, tau, z):
    lpm = l + two_m / 2.0
    return two_m * z + lpm * tau - (two_m + 1) / 2.0


# the components are evaluated at the half period translate z + 1/2 and
# carry the unimodular normalization -e^(i pi l); with this convention the
# covariant xi operator maps the label-l component exactly onto the theta
# component with the same label, for even and odd 2m alike
COMPONENT_SHIFT = 0.5


def _prefactor_and_r(two_m, l, tau, zs, policy):
    """The R part of the label-l component at zs = z + 1/2: its prefactor
    -e^(i pi l) e^(i pi m) q^(-(l+m)^2 / 4m) zeta^(-(l+m)) and the R-series
    at its argument, which the component multiplies by -i/2."""
    m = two_m / 2.0
    lpm = l + m
    pref = cmath.exp(1j * math.pi * m) * (
        -2j * math.pi * (lpm * lpm / (4.0 * m)) * tau - TWO_PI * 1j * lpm * zs).exp()
    r_part = zwegers_R_jet(two_m * tau, _r_argument(two_m, l, tau, zs), policy)
    return -cmath.exp(1j * math.pi * l) * pref, r_part


def mu_hat_component_jet(two_m, l, tau, z, policy=None):
    """The completed component: normalized prefactor times (Appell part
    minus (i/2) times the nonholomorphic R-series at the shifted argument).

    l is a sequence of labels, the components on a leading label axis,
    shape (labels, *points, M), or one label (a sequence of one, its row
    returned).  Their Appell parts are one `mu_m_jet` over the labels' z1 =
    1/2 + (l + m) tau at z2 = 1/4m - z - 1/2; each label adds its R-series
    and prefactor, so each row is its label's jet alone, bit for bit."""
    lone = not isinstance(l, (list, tuple, np.ndarray))
    ls = [l] if lone else list(l)
    if not ls:
        raise DomainError("a component evaluation needs a label")
    for label in ls:
        check_component(two_m, label)
    require_upper_half_plane("mu_hat_{m,l}", tau.value, z=z.value)
    m = two_m / 2.0
    zs = z + COMPONENT_SHIFT
    mu_part = mu_m_jet(two_m, tau, [0.5 + (label + m) * tau for label in ls],
                       1.0 / (2.0 * two_m) - zs, policy)
    rows = []
    for row, label in zip(mu_part.c, ls):
        pref, r_part = _prefactor_and_r(two_m, label, tau, zs, policy)
        rows.append(pref * (Jet(mu_part.order, row) - 0.5j * r_part))
    return rows[0] if lone else Jet(mu_part.order, np.array([row.c for row in rows]))


def r_hat_component_jet(two_m, l, tau, z, policy=None):
    """The nonholomorphic part of the completed component on its own,
    with the sign convention that completed = holomorphic-type part plus
    this term."""
    check_component(two_m, l)
    require_upper_half_plane("R_hat_{m,l}", tau.value, z=z.value)
    pref, r_part = _prefactor_and_r(two_m, l, tau, z + COMPONENT_SHIFT, policy)
    return -0.5j * pref * r_part


def mu_hat_ml_handle(two_m, l, policy=None):
    """The catalog's mu_hat_ml of rank 2m (`catalog.build`)."""
    return build("mu_hat_ml", policy, m=two_m / 2, l=l).f


# ----------------------------------------------------------------------
# the two-variable completion and the distinguished specialization


def mu_two_variable_jet(tau, u, v, policy=None):
    """The rank-one completed Appell function mu(u, v) + (i/2) R(u - v)."""
    require_upper_half_plane("mu", tau.value, u=u.value, v=v.value)
    mu_part = mu_m_jet(1, tau, u, v, policy)
    r_part = zwegers_R_jet(tau, u - v, policy)
    return mu_part + 0.5j * r_part


def mu_hat_2_jet(tau, z, policy=None):
    """The completed function at (z + (1 + tau)/2, (1 + tau)/2)."""
    require_upper_half_plane("mu_hat_2", tau.value, z=z.value)
    shift = (1.0 + tau) * 0.5
    return mu_two_variable_jet(tau, z + shift, shift, policy)


def mu_hat_2_handle(policy=None):
    """The catalog's mu_hat_2 (`catalog.build`)."""
    return build("mu_hat_2", policy).f
