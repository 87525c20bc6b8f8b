"""Appell-type lattice sums of half-integer index, their real-analytic
completions, and the distinguished weight-1/2 combination annihilated by
the covariant xi operator.

The rank of the lattice sum is 2m; the sum over Z^(2m) collapses to a sum
over the pair (sum of entries, sum of squares) with integer multiplicities,
so the cost grows polynomially rather than exponentially in the radius.
All evaluators work in Taylor-jet arithmetic, so every function here has
exact derivative jets and can be fed to the slash actions and covariant
operators directly.  Each function is one jet evaluator plus, where a
caller needs one, a FunctionHandle bound to the plain coordinates; a point
value is the jet at order 0.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FunctionHandle, TruncationPolicy
from .errors import DomainError, PoleAtAppell, PoleAtTheta
from .jets import _finite_exp
from .special import TWO_PI, _finite_sum, _gaussian_radius, jacobi_theta_jet, zwegers_R_jet

# beyond this rank the multiplicity tables get large and the sums slow
MAX_RANK = 6

# a lattice translate of the theta zero divisor closer than this is a pole
POLE_TOL_THETA = 1e-8
# an Appell denominator smaller than this is a pole
POLE_TOL_APPELL = 1e-12


@dataclass(frozen=True)
class MuParameters:
    """Rank 2m (a positive integer up to MAX_RANK) and a component label l.

    The label enters only the completed functions; the plain lattice sum
    ignores it.  Canonical labels follow weil.labels(two_m): integers for
    even 2m, half-integers for odd 2m; with this parity the diagonal
    translation law of the completed components is well defined modulo 2m.
    """

    two_m: int
    l: float = 0.0

    def __post_init__(self):
        if not isinstance(self.two_m, int) or self.two_m < 1:
            raise DomainError("2m must be a positive integer")
        if self.two_m > MAX_RANK:
            raise DomainError(
                "rank 2m=%d exceeds supported maximum %d" % (self.two_m, MAX_RANK)
            )

    @property
    def m(self):
        return self.two_m / 2.0


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


def _check_theta_pole(tau_val, z_val):
    """Raise if z lies on the zero divisor Z tau + Z of theta."""
    y0 = tau_val.imag
    alpha = z_val.imag / y0
    beta = z_val.real - alpha * tau_val.real
    if (
        abs(alpha - round(alpha)) < POLE_TOL_THETA
        and abs(beta - round(beta)) < POLE_TOL_THETA
    ):
        raise PoleAtTheta(
            "theta denominator vanishes at z=%r (tau=%r)" % (z_val, tau_val)
        )


def mu_m_jet(two_m, tau, z1, z2, policy=None):
    """The index-m Appell lattice sum as a jet.

    e^(pi i z1) / theta(z2; tau)^(2m) times the sum over n in Z^(2m) of
    (-1)^(s1) q^((s2 + s1)/2) e^(2 pi i s1 z2) / (1 - e^(2 pi i z1) q^(s1)),
    where s1 and s2 are the entry sum and the square sum of n.
    """
    if not isinstance(two_m, int) or not 1 <= two_m <= MAX_RANK:
        raise DomainError("2m must be an integer in [1, %d]" % MAX_RANK)
    policy = policy or TruncationPolicy()
    tau_val = tau.value
    y0 = tau_val.imag
    if not y0 > 0:
        raise DomainError("Appell sum requires Im(tau) > 0")
    v2 = z2.value.imag

    _check_theta_pole(tau_val, z2.value)
    theta = jacobi_theta_jet(tau, z2, policy)
    theta_inv_pow = theta.reciprocal() ** two_m

    # each coordinate contributes exp(-pi y n^2) against at most
    # exp((pi y + 2 pi |v2|) |n|); the denominator is handled separately
    radius = _gaussian_radius(
        math.pi * y0, math.pi * y0 + TWO_PI * abs(v2), policy.tail_bound, policy
    )
    s1, s2, cnt = lattice_multiplicities(two_m, radius).T

    # drop states whose numerator bound is negligible before touching the
    # denominator, so near-misses of distant poles cannot inflate the tail
    bound = cnt * _finite_exp(-math.pi * y0 * (s2 + s1) - TWO_PI * s1 * v2)
    keep = ~(bound < policy.tail_bound * 1e-2)
    s1, s2, cnt = s1[keep], s2[keep], cnt[keep]
    u1, i1 = np.unique(s1, return_inverse=True)
    u2, i2 = np.unique(s2, return_inverse=True)

    # denominators 1 - e^(2 pi i z1) q^(s1), one row per kept entry sum
    den = 1.0 - (TWO_PI * 1j * z1).exp() * ((TWO_PI * 1j * u1) * tau).exp()
    small = np.abs(den.value) < POLE_TOL_APPELL
    if small.any():
        raise PoleAtAppell(
            "Appell denominator vanishes at z1=%r, entry sum %d"
            % (z1.value, u1[small.argmax()])
        )

    # the sum over states factors as sum over s1 of
    # e^(s1 (pi i tau + 2 pi i z2)) / den(s1) times
    # sum over s2 of (-1)^(s1) cnt e^(pi i s2 tau)
    weights = np.zeros((len(u1), len(u2)))
    weights[i1, i2] = np.where(s1 % 2, -cnt, cnt)
    inner = ((1j * math.pi * u2) * tau).exp().sum(weights)
    outer = (u1 * (1j * math.pi * tau + TWO_PI * 1j * z2)).exp() * den.reciprocal()
    total = (outer * inner).sum()
    return _finite_sum((1j * math.pi * z1).exp() * total * theta_inv_pow, "Appell sum")


# ----------------------------------------------------------------------
# completed vector components


def _completion_prefactor(two_m, l, tau, z):
    """e^(i pi m) q^(-(l+m)^2 / 4m) zeta^(-(l+m)) as a jet."""
    m = two_m / 2.0
    lpm = l + m
    phase = cmath.exp(1j * math.pi * m)
    return phase * (
        -2j * math.pi * (lpm * lpm / (4.0 * m)) * tau - TWO_PI * 1j * lpm * z
    ).exp()


def _r_argument(two_m, l, tau, z):
    lpm = l + two_m / 2.0
    return two_m * z + lpm * tau - (two_m + 1) / 2.0


# the components are evaluated at the half period translate z + 1/2 and
# carry the unimodular normalization -e^(i pi l); with this convention the
# covariant xi operator maps the label-l component exactly onto the theta
# component with the same label, for even and odd 2m alike
COMPONENT_SHIFT = 0.5


def _component_phase(l):
    return -cmath.exp(1j * math.pi * l)


def mu_hat_component_jet(two_m, l, tau, z, policy=None):
    """The completed component: normalized prefactor times (Appell part
    minus (i/2) times the nonholomorphic R-series at the shifted argument)."""
    m = two_m / 2.0
    lpm = l + m
    zs = z + COMPONENT_SHIFT
    mu_part = mu_m_jet(
        two_m,
        tau,
        0.5 + lpm * tau,
        1.0 / (2.0 * two_m) - zs,
        policy,
    )
    r_part = zwegers_R_jet(two_m * tau, _r_argument(two_m, l, tau, zs), policy)
    pref = _component_phase(l) * _completion_prefactor(two_m, l, tau, zs)
    return pref * (mu_part - 0.5j * r_part)


def r_hat_component_jet(two_m, l, tau, z, policy=None):
    """The nonholomorphic part of the completed component on its own,
    with the sign convention that completed = holomorphic-type part plus
    this term."""
    zs = z + COMPONENT_SHIFT
    r_part = zwegers_R_jet(two_m * tau, _r_argument(two_m, l, tau, zs), policy)
    pref = _component_phase(l) * _completion_prefactor(two_m, l, tau, zs)
    return -0.5j * pref * r_part


def mu_hat_ml_handle(two_m, l, policy=None):
    def je(jv):
        return mu_hat_component_jet(two_m, l, jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="mu_hat[%d,%s]" % (two_m, l))


def R_hat_ml_handle(two_m, l, policy=None):
    def je(jv):
        return r_hat_component_jet(two_m, l, jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="R_hat[%d,%s]" % (two_m, l))


# ----------------------------------------------------------------------
# the two-variable completion and the distinguished specialization


def mu_two_variable_jet(tau, u, v, policy=None):
    """The rank-one completed Appell function mu(u, v) + (i/2) R(u - v)."""
    mu_part = mu_m_jet(1, tau, u, v, policy)
    r_part = zwegers_R_jet(tau, u - v, policy)
    return mu_part + 0.5j * r_part


def mu_hat_2_jet(tau, z, policy=None):
    """The completed function at (z + (1 + tau)/2, (1 + tau)/2)."""
    shift = (1.0 + tau) * 0.5
    return mu_two_variable_jet(tau, z + shift, shift, policy)


def mu_hat_2_handle(policy=None):
    def je(jv):
        return mu_hat_2_jet(jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="mu_hat_2")
