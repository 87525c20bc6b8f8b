"""Scalar special-function catalog: incomplete gamma functions, the error
completion E, the H-kernel, Jacobi theta, congruence theta series, and the
R-series, all with exact Taylor jets.

Series functions are jet-level evaluators taking complex jets for tau and z
(so they can be composed, e.g. inside slash actions or the mu-family
specializations); the theta series also have a FunctionHandle wrapper
bound to the plain coordinates.
"""

import cmath
import math

from scipy import special as sp

from .core import FunctionHandle, TruncationPolicy
from .errors import DomainError, HUndefined, TruncationOverflow
from .jets import Jet

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# incomplete gamma functions


def lower_incomplete_gamma(s, x):
    """gamma(s, x) = int_0^x t^(s-1) e^(-t) dt for s > 0, x >= 0."""
    if s <= 0:
        raise DomainError("lower incomplete gamma needs s > 0")
    if x < 0:
        raise DomainError("lower incomplete gamma needs x >= 0")
    return float(sp.gammainc(s, x) * sp.gamma(s))


def upper_incomplete_gamma(s, x):
    """Gamma(s, x) = int_x^infty t^(s-1) e^(-t) dt for x > 0, any real s.

    For s <= 0 the value is obtained by the downward recurrence
    Gamma(s, x) = (Gamma(s+1, x) - x^s e^(-x)) / s.
    """
    if x <= 0:
        raise DomainError("upper incomplete gamma needs x > 0")
    if s > 0:
        return float(sp.gammaincc(s, x) * sp.gamma(s))
    if s == 0:
        return float(sp.exp1(x))
    return (upper_incomplete_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s


def gamma_half_cont(x):
    """gamma(1/2, x) continued to all real x.

    For x < 0 the principal branch from the upper half plane is used, so the
    value is i*sqrt(|x|) times an entire positive series (no cancellation).
    """
    if x >= 0:
        return complex(lower_incomplete_gamma(0.5, x))
    t = -x
    # sum_{n>=0} t^n / (n! (n + 1/2)), all terms positive
    term = 1.0 / 0.5
    total = term
    n = 0
    while True:
        n += 1
        term = term * t / n * (n - 0.5) / (n + 0.5)
        total += term
        if term < 1e-17 * total or n > 600:
            break
    return 1j * math.sqrt(t) * total


def gamma_half_derivatives(t0, n):
    """[g, g', ..., g^(n)] of g(t) = gamma(1/2, t) at t0 (t0 != 0)."""
    if t0 == 0:
        raise DomainError("gamma(1/2, t) jet at t = 0 is not smooth")
    ds = [gamma_half_cont(t0)]
    if n == 0:
        return ds
    # phi = t^(-1/2) e^(-t), principal branch from above for t < 0
    phi0 = cmath.exp(-t0) / cmath.sqrt(complex(t0))
    # phi^(j) = p_j(1/t) * phi with p_{j+1} = p_j' + p_j * (-1/(2t) - 1)
    p = {0: 1.0}  # polynomial in s = 1/t, key = power of s
    for j in range(n):
        val = sum(c * t0 ** (-pw) for pw, c in p.items())
        ds.append(val * phi0)
        if j == n - 1:
            break
        nxt = {}
        for pw, c in p.items():
            # derivative in t of c * s^pw is -pw * c * s^(pw+1)
            if pw:
                nxt[pw + 1] = nxt.get(pw + 1, 0.0) - pw * c
            nxt[pw] = nxt.get(pw, 0.0) - c
            nxt[pw + 1] = nxt.get(pw + 1, 0.0) - 0.5 * c
        p = nxt
    return ds[: n + 1]


def gamma_half_jet(arg):
    """gamma(1/2, .) applied to a real-valued jet."""
    return arg.apply_derivatives(gamma_half_derivatives(arg.value.real, arg.order))


# ----------------------------------------------------------------------
# error completion E


def error_completion_E(w):
    """E(w) = 2 int_0^w e^(-pi u^2) du, computed via gamma(1/2, pi w^2)."""
    if w == 0:
        return 0.0
    s = 1.0 if w > 0 else -1.0
    return s / math.sqrt(math.pi) * lower_incomplete_gamma(0.5, math.pi * w * w)


def error_completion_derivatives(w0, n):
    ds = [error_completion_E(w0)]
    if n == 0:
        return ds
    # derivatives of g(w) = 2 e^(-pi w^2): g^(i+1) = -2 pi (w g^(i) + i g^(i-1))
    g = [2.0 * math.exp(-math.pi * w0 * w0)]
    for i in range(n - 1):
        prev = g[i - 1] if i >= 1 else 0.0
        g.append(-TWO_PI * (w0 * g[i] + i * prev))
    return ds + g[:n]


# ----------------------------------------------------------------------
# the H-kernel


def _integral_I(j, w):
    """int_{-2w}^infty t^j e^(-t) dt for integer j, continued in j for w > 0.

    For j >= 0 this is Gamma(j+1, -2w) in closed form; for j < 0 the downward
    integration-by-parts recurrence defines the holomorphic continuation.
    """
    x = -2.0 * w
    if j >= 0:
        # Gamma(j+1, x) = j! e^(-x) sum_{i<=j} x^i / i!, valid for all real x
        acc = 0.0
        term = 1.0
        for i in range(j + 1):
            if i > 0:
                term *= x / i
            acc += term
        return math.factorial(j) * math.exp(-x) * acc
    if j == -1:
        # Gamma(0, x); for x < 0 take the real principal-value continuation
        if x > 0:
            return float(sp.exp1(x))
        return -float(sp.expi(-x))
    return (_integral_I(j + 1, w) - math.exp(2.0 * w) * x ** (j + 1)) / (j + 1)


def H_function(w, k):
    """H(w) = e^(-w) int_{-2w}^infty t^(1/2-k) e^(-t) dt for half-integer k.

    The exponent 1/2 - k is an integer; for w > 0 and k >= 3/2 the value is
    the continuation in k given by the integration-by-parts recurrence.
    """
    if w == 0:
        raise HUndefined("H is undefined at w = 0")
    j = _half_int_exponent(k)
    return math.exp(-w) * _integral_I(j, w)


def _half_int_exponent(k):
    j2 = 1.0 - 2.0 * k
    j = round(j2 / 2.0)
    if abs(j2 / 2.0 - j) > 1e-12:
        raise DomainError("k must be a half-integer (odd/2), got %r" % (k,))
    return int(j)


def H_derivatives(w0, k, n):
    """[H, H', ..., H^(n)] at w0, from H' = -H + 2 (-2w)^j e^w with j = 1/2-k."""
    j = _half_int_exponent(k)
    hs = [H_function(w0, k)]
    base = -2.0 * w0
    ew = math.exp(w0)
    for order in range(n):
        # d^order/dw^order of (-2w)^j e^w via Leibniz
        a = 0.0
        for i in range(order + 1):
            fall = 1.0
            for t in range(i):
                fall *= (j - t)
            if fall != 0.0:
                a += math.comb(order, i) * (-2.0) ** i * fall * base ** (j - i)
        hs.append(-hs[-1] + 2.0 * a * ew)
    return hs


def H_jet(arg, k):
    w0 = arg.value.real
    return arg.apply_derivatives(H_derivatives(w0, k, arg.order))


# ----------------------------------------------------------------------
# truncation helpers


def _gaussian_radius(quad, lin, tail, policy):
    """Smallest R with exp(-quad R^2 + lin R) <= tail for quad > 0."""
    L = math.log(1.0 / tail)
    disc = lin * lin + 4.0 * quad * L
    R = (lin + math.sqrt(disc)) / (2.0 * quad)
    R = int(math.ceil(R)) + 1
    cap = policy.effective_max_radius()
    if R > cap:
        raise TruncationOverflow(R, cap)
    return R


# ----------------------------------------------------------------------
# Jacobi theta theta(z; tau)


def jacobi_theta_jet(tau, z, policy=None):
    """theta(z; tau) = sum over r in Z+1/2 of (-1)^(r+1/2) q^(r^2/2) zeta^r."""
    policy = policy or TruncationPolicy()
    y0 = tau.value.imag
    v0 = z.value.imag
    if not y0 > 0:
        raise DomainError("theta requires Im(tau) > 0")
    R = _gaussian_radius(math.pi * y0, TWO_PI * abs(v0), policy.tail_bound, policy)
    order = tau.order
    total = Jet.constant(0.0, order)
    r = -R - 0.5
    while r <= R + 0.5:
        sign = (-1) ** int(r + 0.5)
        total = total + sign * (1j * math.pi * r * r * tau + TWO_PI * 1j * r * z).exp()
        r += 1.0
    return total


def jacobi_theta_handle(policy=None):
    def je(jv):
        return jacobi_theta_jet(jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="jacobi_theta")


# ----------------------------------------------------------------------
# congruence theta series theta_{m,l}


def theta_ml_jet(two_m, l, tau, z, policy=None):
    """theta_{m,l}(tau, z) = sum over r = l mod 2m of q^(r^2/4m) zeta^r."""
    if two_m <= 0:
        raise DomainError("theta_{m,l} requires m > 0")
    policy = policy or TruncationPolicy()
    m = two_m / 2.0
    y0 = tau.value.imag
    v0 = z.value.imag
    R = _gaussian_radius(
        math.pi * y0 / (2.0 * m), TWO_PI * abs(v0), policy.tail_bound, policy
    )
    l = l % two_m  # may be half-integral for odd 2m
    order = tau.order
    total = Jet.constant(0.0, order)
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


def theta_ml_handle(two_m, l, policy=None):
    def je(jv):
        return theta_ml_jet(two_m, l, jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="theta_ml[%d,%s]" % (two_m, l))


# ----------------------------------------------------------------------
# the R-series


def zwegers_R_jet(tau, z, policy=None):
    """R(z; tau) = sum over n in Z+1/2 of
    (sgn(n) - E(sqrt(2y)(n + v/y))) (-1)^(n-1/2) q^(-n^2/2) zeta^(-n)."""
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
    cap = policy.effective_max_radius()
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
        # sgn(n) - E(w) without cancellation: same-side values go through erfc
        if sgn * w0 >= 0:
            amp0 = sgn * float(sp.erfc(math.sqrt(math.pi) * abs(w0)))
        else:
            amp0 = sgn - error_completion_E(w0)
        ds = error_completion_derivatives(w0, order)
        amp = w.apply_derivatives([amp0] + [-d for d in ds[1:]])
        sign = (-1) ** int(n - 0.5)
        total = total + amp * sign * (
            -1j * math.pi * n * n * tau - TWO_PI * 1j * n * z
        ).exp()
        n += 1.0
    return total
