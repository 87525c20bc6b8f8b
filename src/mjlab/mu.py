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

from .core import FunctionHandle, TruncationPolicy
from .errors import DomainError, PoleAtAppell, PoleAtTheta
from .jets import Jet
from .special import TWO_PI, _gaussian_radius, jacobi_theta_jet, zwegers_R_jet

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
    """Counts of vectors n in [-radius, radius]^rank with a given
    (sum of entries, sum of squares) pair."""
    states = {(0, 0): 1}
    for _ in range(rank):
        nxt = {}
        for (s1, s2), cnt in states.items():
            for n in range(-radius, radius + 1):
                key = (s1 + n, s2 + n * n)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return states


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
    order = tau.order
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
    states = lattice_multiplicities(two_m, radius)

    # exp(pi i s2 tau) and exp(s1 (pi i tau + 2 pi i z2)) via cached powers
    base_s2 = (1j * math.pi * tau).exp()
    base_s1 = (1j * math.pi * tau + TWO_PI * 1j * z2).exp()
    pow_s2 = {0: Jet.constant(1.0, order)}
    pow_s1 = {0: Jet.constant(1.0, order)}

    def cached_power(cache, base, n):
        if n not in cache:
            cache[n] = base ** n
        return cache[n]

    # denominators 1 - e^(2 pi i z1) q^(s1), formed lazily per entry sum
    appell_factor = (TWO_PI * 1j * z1).exp()
    qpow_cache = {}
    den_inv = {}

    def denominator_inverse(s1):
        if s1 not in den_inv:
            qp = cached_power(qpow_cache, (TWO_PI * 1j * tau).exp(), s1)
            den = 1.0 - appell_factor * qp
            if abs(den.value) < POLE_TOL_APPELL:
                raise PoleAtAppell(
                    "Appell denominator vanishes at z1=%r, entry sum %d"
                    % (z1.value, s1)
                )
            den_inv[s1] = den.reciprocal()
        return den_inv[s1]

    # drop states whose numerator bound is negligible before touching the
    # denominator, so near-misses of distant poles cannot inflate the tail
    floor = policy.tail_bound * 1e-2
    total = Jet.constant(0.0, order)
    for (s1, s2), cnt in sorted(states.items()):
        bound = cnt * math.exp(-math.pi * y0 * (s2 + s1) - TWO_PI * s1 * v2)
        if bound < floor:
            continue
        sign = -1.0 if s1 % 2 else 1.0
        term = (
            cached_power(pow_s2, base_s2, s2)
            * cached_power(pow_s1, base_s1, s1)
            * denominator_inverse(s1)
        )
        total = total + (sign * cnt) * term

    return (1j * math.pi * z1).exp() * total * theta_inv_pow


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
