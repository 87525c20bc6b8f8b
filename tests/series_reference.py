"""Reference evaluators for the four series: one scalar jet operation per
term, in the summation order of the original term-by-term loops; and the
kernel terms c_i q^n zeta^r evaluated directly in mpmath.

The library evaluates each series as one batched jet broadcast; these loops
are the independent form its results are compared against in
tests/test_series_batched.py.
"""

import math
from functools import lru_cache

import mpmath
from scipy import special as sp

from mjlab.core import TruncationPolicy
from mjlab.errors import DomainError, PoleAtAppell, TruncationOverflow
from mjlab.jets import Jet
from mjlab.mu import MAX_RANK, POLE_TOL_APPELL, _check_theta_pole
from mjlab.special import TWO_PI, _gaussian_radius, gaussian_integral_derivatives


@lru_cache(maxsize=None)
def lattice_states(rank, radius):
    """{(entry sum, square sum): count} over n in [-radius, radius]^rank."""
    states = {(0, 0): 1}
    for _ in range(rank):
        nxt = {}
        for (s1, s2), cnt in states.items():
            for n in range(-radius, radius + 1):
                key = (s1 + n, s2 + n * n)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return states


def jacobi_theta(tau, z, policy=None):
    policy = policy or TruncationPolicy()
    y0 = tau.value.imag
    v0 = z.value.imag
    if not y0 > 0:
        raise DomainError("theta requires Im(tau) > 0")
    R = _gaussian_radius(y0, 1, TWO_PI * abs(v0), policy)
    total = Jet.constant(0.0, tau.order)
    r = -R - 0.5
    while r <= R + 0.5:
        sign = (-1) ** int(r + 0.5)
        total = total + sign * (1j * math.pi * r * r * tau + TWO_PI * 1j * r * z).exp()
        r += 1.0
    return total


def theta_ml(two_m, l, tau, z, policy=None):
    if two_m <= 0:
        raise DomainError("theta_{m,l} requires m > 0")
    policy = policy or TruncationPolicy()
    m = two_m / 2.0
    y0 = tau.value.imag
    v0 = z.value.imag
    R = _gaussian_radius(y0, two_m, TWO_PI * abs(v0), policy)
    l = l % two_m
    total = Jet.constant(0.0, tau.order)
    t_lo = -int((R + l) // two_m) - 1
    t_hi = int((R - l) // two_m) + 1
    for t in range(t_lo, t_hi + 1):
        r = l + two_m * t
        if abs(r) > R + two_m:
            continue
        total = total + (
            2j * math.pi * (r * r / (4.0 * m)) * tau + TWO_PI * 1j * r * z
        ).exp()
    return total


def zwegers_R(tau, z, policy=None):
    policy = policy or TruncationPolicy()
    y = tau.imag()
    v = z.imag()
    y0 = y.value.real
    v0 = v.value.real
    if not y0 > 0:
        raise DomainError("R requires Im(tau) > 0")
    shift = abs(v0) / y0
    L = math.log(1.0 / policy.tail_bound)
    R = int(math.ceil(math.sqrt(L / (math.pi * y0)) + shift)) + 2
    cap = policy.max_radius
    if R > cap:
        raise TruncationOverflow(R, cap)
    order = tau.order
    sqrt2y = (2.0 * y).cpow(0.5)
    total = Jet.constant(0.0, order)
    n = -R - 0.5
    while n <= R + 0.5:
        w = sqrt2y * (n + v / y)
        sgn = 1.0 if n > 0 else -1.0
        w0 = w.value.real
        ds = gaussian_integral_derivatives(math.pi, w0, order)
        if sgn * w0 >= 0:
            amp0 = sgn * float(sp.erfc(math.sqrt(math.pi) * abs(w0)))
        else:
            amp0 = sgn - ds[0]
        amp = w.apply_derivatives([amp0] + [-d for d in ds[1:]])
        sign = (-1) ** int(n - 0.5)
        total = total + amp * sign * (
            -1j * math.pi * n * n * tau - TWO_PI * 1j * n * z
        ).exp()
        n += 1.0
    return total


def mu_m(two_m, tau, z1, z2, policy=None):
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
    theta_inv_pow = jacobi_theta(tau, z2, policy).reciprocal() ** two_m
    radius = _gaussian_radius(y0, 1, math.pi * y0 + TWO_PI * abs(v2), policy)
    states = lattice_states(two_m, radius)

    base_s2 = (1j * math.pi * tau).exp()
    base_s1 = (1j * math.pi * tau + TWO_PI * 1j * z2).exp()
    base_q = (TWO_PI * 1j * tau).exp()
    appell_factor = (TWO_PI * 1j * z1).exp()
    floor = policy.tail_bound * 1e-2
    total = Jet.constant(0.0, order)
    for (s1, s2), cnt in sorted(states.items()):
        bound = cnt * math.exp(-math.pi * y0 * (s2 + s1) - TWO_PI * s1 * v2)
        if bound < floor:
            continue
        den = 1.0 - appell_factor * base_q ** s1
        if abs(den.value) < POLE_TOL_APPELL:
            raise PoleAtAppell("Appell denominator vanishes, entry sum %d" % s1)
        sign = -1.0 if s1 % 2 else 1.0
        term = base_s2 ** s2 * base_s1 ** s1 * den.reciprocal()
        total = total + (sign * cnt) * term
    return (1j * math.pi * z1).exp() * total * theta_inv_pow


def kernel_term(name, k, m, n, r, tau, z):
    """The kernel term c_i(n, r; y, v) q^n zeta^r named c1..c4 or c1sk..c4sk
    at weight k and index m, as an mpmath complex at 40 digits, from the
    defining formulas: w = pi D y / 2m with D = 4mn - r^2, H(w) =
    e^(-w) Gamma(3/2 - k, -2w) through gammainc (its real part, the
    principal value), c_2 = H(w) e^w, c_2^sk = H(-w) e^w, c_1^sk = e^(2w)
    (y^(3/2-k) for c_2 and 1 for c_1^sk at D = 0), and the c_3/c_4 factor
    sqrt(pi) erf(b) for m < 0 and i sqrt(pi) erfi(b) for m > 0, with
    b = (pi y / |m|)^(1/2) (r + 2mv/y); c_3 and c_4 are c_1 and c_2 times
    that factor."""
    i, skew = int(name[1]), name.endswith("sk")
    with mpmath.workdps(40):
        k, m = mpmath.mpf(k), mpmath.mpf(m)
        tau, z = mpmath.mpc(tau), mpmath.mpc(z)
        y, v = tau.imag, z.imag
        D = 4 * m * n - r * r
        c = mpmath.mpf(1)
        if D == 0:
            if i in (2, 4):
                c = y ** (mpmath.mpf(1.5) - k)
        else:
            w = mpmath.pi * D * y / (2 * m)
            if i in (2, 4):
                arg = -w if skew else w
                H = mpmath.re(mpmath.exp(-arg) * mpmath.gammainc(mpmath.mpf(1.5) - k, -2 * arg))
                c = H * mpmath.exp(w)
            elif skew:
                c = mpmath.exp(2 * w)
        if i in (3, 4):
            b = mpmath.sqrt(mpmath.pi * y / abs(m)) * (r + 2 * m * v / y)
            if m < 0:
                c *= mpmath.sqrt(mpmath.pi) * mpmath.erf(b)
            else:
                c *= 1j * mpmath.sqrt(mpmath.pi) * mpmath.erfi(b)
        return c * mpmath.exp(2j * mpmath.pi * (n * tau + r * z))
