"""Scalar special-function catalog: gamma(1/2, x), the exponential
integrals, the error completion E, the H-kernel, Jacobi theta, congruence
theta series, and the R-series, all with exact Taylor jets.

Series functions are jet-level evaluators taking complex jets for tau and z
(so they can be composed, e.g. inside slash actions or the mu-family
specializations); the theta series also have a FunctionHandle wrapper
bound to the plain coordinates.  Each series builds the exponents of all its
terms as one batched jet (a term axis in front of the point axes), takes
one batched exp and sums the term axis once.  At a stack of points the
truncation radius is the largest one of the stack, and a per-point mask
keeps, for each point, exactly the terms that point sums alone; masked
terms never reach exp.
"""

import math

import numpy as np

from .core import FunctionHandle, TruncationPolicy, _term_axis, half_integer
from .errors import DomainError, HUndefined, TruncationOverflow, ValueOverflow
from .jets import _finite_exp

TWO_PI = 2.0 * math.pi
_SQRT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# gamma(1/2, x)


def gamma_half_cont(x):
    """gamma(1/2, x) continued to all real x (elementwise for an array).

    For x >= 0 the value is sqrt(pi) erf(sqrt(x)).  For x < 0 the principal
    branch from the upper half plane is used, so the value is i*sqrt(|x|)
    times an entire positive series (no cancellation).
    """
    if isinstance(x, np.ndarray):
        return _elementwise(gamma_half_cont, x).astype(complex)
    if x >= 0:
        return complex(_SQRT_PI * math.erf(math.sqrt(x)))
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
    """[g, g', ..., g^(n)] of g(t) = gamma(1/2, t) at t0 (t0 != 0 for
    n > 0), elementwise for an array t0."""
    ds = [gamma_half_cont(t0)]
    if n == 0:
        return ds
    if np.any(np.equal(t0, 0)):
        raise DomainError("gamma(1/2, t) jet at t = 0 is not smooth")
    # phi = t^(-1/2) e^(-t), principal branch from above for t < 0
    phi0 = _finite_exp(-t0) / np.sqrt(t0 + 0j)
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
# exponential integrals

_EULER_GAMMA = 0.57721566490153286061
_EPS = 2.0 ** -53


def exp1(x):
    """E1(x) = int_x^infty e^(-t) / t dt for x > 0."""
    return _exp1_scaled(x) * math.exp(-x)


def _exp1_scaled(x):
    """e^x E1(x) for x > 0.

    The power series -gamma - log x - sum_k (-x)^k / (k k!) for x <= 2,
    summed exactly rounded (math.fsum; E1(2) = 0.049 is the result of a
    cancellation between terms near 1), the continued fraction of
    e^x E1(x) (modified Lentz) beyond.
    """
    if x <= 0:
        raise DomainError("E1 needs x > 0")
    if x <= 2.0:
        terms = [-_EULER_GAMMA, -math.log(x)]
        term, k = 1.0, 0
        while abs(term) >= 1e-18 * k:
            k += 1
            term *= -x / k
            terms.append(-term / k)
        return math.exp(x) * math.fsum(terms)
    b = x + 1.0
    c = 1e300  # Lentz's start, 1 / tiny
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h


def expi(x):
    """Ei(x) = PV int_-infty^x e^t / t dt for x > 0; OverflowError where
    e^x is beyond the floating-point range."""
    return math.exp(x) * _expi_scaled(x)


def _expi_scaled(x):
    """e^(-x) Ei(x) for x > 0.

    The power series gamma + log x + sum_k x^k / (k k!) (all terms positive)
    up to x = -log(eps), the asymptotic series 1 / x sum_k k! / x^k beyond,
    where its smallest term is below eps.
    """
    if x <= 0:
        raise DomainError("Ei needs x > 0")
    if x <= -math.log(_EPS):
        total, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= x / k
            total += term / k
            if term < _EPS * total * k:
                return math.exp(-x) * (_EULER_GAMMA + math.log(x) + total)
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        prev = term
        term *= k / x
        if term < _EPS * total or term >= prev:
            break
        total += term
    return total / x


# ----------------------------------------------------------------------
# error completion E


def _elementwise(fn, x):
    """fn of a float, or of each entry of a numpy array of any shape."""
    if isinstance(x, np.ndarray):
        return np.array([fn(t) for t in x.ravel().tolist()]).reshape(x.shape)
    return fn(x)


def error_completion_E(w):
    """E(w) = 2 int_0^w e^(-pi u^2) du = erf(sqrt(pi) w), elementwise for a
    numpy array w."""
    return _elementwise(math.erf, math.sqrt(math.pi) * w)


def error_completion_derivatives(w0, n):
    """[E, E', ..., E^(n)] at w0 (elementwise for a numpy array w0)."""
    ds = [error_completion_E(w0)]
    if n == 0:
        return ds
    # derivatives of g(w) = 2 e^(-pi w^2): g^(i+1) = -2 pi (w g^(i) + i g^(i-1))
    g = [2.0 * np.exp(-math.pi * w0 * w0)]
    for i in range(n - 1):
        prev = g[i - 1] if i >= 1 else 0.0
        g.append(-TWO_PI * (w0 * g[i] + i * prev))
    return ds + g[:n]


# ----------------------------------------------------------------------
# the H-kernel


def _scaled_integral(j, w):
    """G_j(w) = e^(-2w) int_{-2w}^infty t^j e^(-t) dt for integer j,
    continued in j for w > 0, so that H = e^w G_j without forming e^(-w)
    and e^(2w) apart.

    For j >= 0 this is e^x Gamma(j+1, x) at x = -2w in closed form; for
    j < 0 the downward integration-by-parts recurrence defines the
    holomorphic continuation.
    """
    x = -2.0 * w
    if j >= 0:
        # j! sum_{i<=j} x^i / i!, valid for all real x
        acc = 0.0
        term = 1.0
        for i in range(j + 1):
            if i > 0:
                term *= x / i
            acc += term
        return math.factorial(j) * acc
    if j == -1:
        # e^x Gamma(0, x); for x < 0 the real principal-value continuation
        return _exp1_scaled(x) if x > 0 else -_expi_scaled(-x)
    return (_scaled_integral(j + 1, w) - x ** (j + 1)) / (j + 1)


def H_function(w, k):
    """H(w) = e^(-w) int_{-2w}^infty t^(1/2-k) e^(-t) dt for half-integer k.

    The exponent 1/2 - k is an integer; for w > 0 and k >= 3/2 the value is
    the continuation in k given by the integration-by-parts recurrence.
    A value beyond the floating-point range raises ValueOverflow.
    """
    if w == 0:
        raise HUndefined("H is undefined at w = 0")
    j = _half_int_exponent(k)
    try:
        # e^w in two halves, so that e^w G_j is finite wherever H is
        half = math.exp(0.5 * w)
        value = half * _scaled_integral(j, w) * half
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueOverflow("H(%r) at k=%r exceeds the floating-point range" % (w, k))
    return value


def _half_int_exponent(k):
    """The integer exponent j = 1/2 - k of H, for k an odd multiple of 1/2."""
    two_k = half_integer(k, "k")
    if two_k % 2 == 0:
        raise DomainError("H needs k an odd multiple of 1/2, got %r" % (k,))
    return (1 - two_k) // 2


def H_derivatives(w0, k, n):
    """[H, H', ..., H^(n)] at w0, from H' = -H + 2 (-2w)^j e^w with j = 1/2-k
    (elementwise for an array w0)."""
    j = _half_int_exponent(k)
    hs = [_elementwise(lambda w: H_function(w, k), w0)]
    if n == 0:
        return hs
    base = -2.0 * w0
    # e^w in two halves, as in H_function, so that the derivatives do not
    # overflow where e^w alone does
    half = _finite_exp(0.5 * w0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for order in range(n):
            # d^order/dw^order of (-2w)^j e^w via Leibniz
            a = 0.0
            for i in range(order + 1):
                fall = 1.0
                for t in range(i):
                    fall *= (j - t)
                if fall != 0.0:
                    a += math.comb(order, i) * (-2.0) ** i * fall * base ** (j - i)
            hs.append(-hs[-1] + 2.0 * a * half * half)
    if not np.isfinite(hs).all():
        raise ValueOverflow("H derivatives at k=%r exceed the floating-point range" % (k,))
    return hs


def H_jet(arg, k):
    w0 = arg.value.real
    return arg.apply_derivatives(H_derivatives(w0, k, arg.order))


# ----------------------------------------------------------------------
# truncation helpers


def _finite_sum(total, what):
    """total, or ValueOverflow if a coefficient overflowed to inf or nan
    (a Taylor coefficient can overflow where the value does not)."""
    if not np.isfinite(total.c).all():
        raise ValueOverflow("%s overflows at jet order %d" % (what, total.order))
    return total


def _largest(radius):
    """The largest radius of a point stack (radius itself at one point)."""
    return radius if isinstance(radius, int) else int(radius.max())


def require_upper_half_plane(y0, series):
    """DomainError unless Im(tau) = y0 is positive at every point of a
    stack (y0 a float, or an array over the stack)."""
    if not ((y0 > 0).all() if isinstance(y0, np.ndarray) else y0 > 0):
        raise DomainError("%s requires Im(tau) > 0" % series)


def _check_radius(radius, policy):
    """radius (an int, or an int array over a point stack) against the cap."""
    cap = policy.max_radius
    worst = _largest(radius)
    if worst > cap:
        raise TruncationOverflow(worst, cap)
    return radius


def _gaussian_radius(quad, lin, tail, policy):
    """Smallest R with exp(-quad R^2 + lin R) <= tail for quad > 0
    (elementwise for arrays quad and lin)."""
    L = math.log(1.0 / tail)
    disc = lin * lin + 4.0 * quad * L
    R = _ceil_int((lin + _sqrt(disc)) / (2.0 * quad)) + 1
    return _check_radius(R, policy)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _ceil_int(x):
    """ceil(x) as an int, or as an int array for an array x."""
    return np.ceil(x).astype(int) if isinstance(x, np.ndarray) else int(math.ceil(x))


def _stack_mask(radius, keep):
    """The per-term, per-point mask keep(radius) as floats, or None when
    the radius is one int or the same at every point of the stack (the
    terms of the largest radius are then every point's own terms)."""
    if isinstance(radius, int) or (radius == radius.flat[0]).all():
        return None
    return keep(radius).astype(float)


def _masked_exp(expo, mask):
    """exp of a batched exponent jet, with masked (0) entries set to 0
    without evaluating their exponentials."""
    if mask is None:
        return expo.exp()
    return (expo * mask).exp() * mask


# ----------------------------------------------------------------------
# Jacobi theta theta(z; tau)


def jacobi_theta_jet(tau, z, policy=None):
    """theta(z; tau) = sum over r in Z+1/2 of (-1)^(r+1/2) q^(r^2/2) zeta^r."""
    policy = policy or TruncationPolicy()
    y0 = tau.value.imag
    v0 = z.value.imag
    require_upper_half_plane(y0, "theta")
    radius = _gaussian_radius(math.pi * y0, TWO_PI * abs(v0), policy.tail_bound, policy)
    R = _largest(radius)
    k = np.arange(-R, R + 2)  # r = k - 1/2 runs over -R - 1/2, ..., R + 1/2
    kk = _term_axis(k, tau, z)
    r = kk - 0.5
    mask = _stack_mask(radius, lambda rad: (kk >= -rad) & (kk <= rad + 1))
    terms = _masked_exp((1j * math.pi * r * r) * tau + (TWO_PI * 1j * r) * z, mask)
    return terms.sum(np.where(k % 2, -1.0, 1.0))


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
    require_upper_half_plane(y0, "theta_{m,l}")
    radius = _gaussian_radius(
        math.pi * y0 / (2.0 * m), TWO_PI * abs(v0), policy.tail_bound, policy
    )
    R = _largest(radius)
    l = l % two_m  # may be half-integral for odd 2m
    t_lo = -int((R + l) // two_m) - 1
    t_hi = int((R - l) // two_m) + 1
    r = l + two_m * np.arange(t_lo, t_hi + 1)
    r = _term_axis(r[np.abs(r) <= R + two_m], tau, z)
    mask = _stack_mask(radius, lambda rad: np.abs(r) <= rad + two_m)
    return _masked_exp(
        (2j * math.pi * (r * r / (4.0 * m))) * tau + (TWO_PI * 1j * r) * z, mask
    ).sum()


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
    require_upper_half_plane(y0, "R")
    shift = abs(v0) / y0
    L = math.log(1.0 / policy.tail_bound)
    radius = _check_radius(_ceil_int(_sqrt(L / (math.pi * y0)) + shift) + 2, policy)
    R = _largest(radius)
    order = tau.order
    n_terms = np.arange(-R, R + 2) - 0.5  # -R - 1/2, ..., R + 1/2
    n = _term_axis(n_terms, tau, z)
    sgn = np.where(n > 0, 1.0, -1.0)
    w = (2.0 * y).cpow(0.5) * (n + v / y)
    w0 = w.value.real
    ds = error_completion_derivatives(w0, order)
    # sgn(n) - E(w) without cancellation: same-side values go through erfc
    erfc = _elementwise(math.erfc, math.sqrt(math.pi) * np.abs(w0))
    amp0 = np.where(sgn * w0 >= 0, sgn * erfc, sgn - ds[0])
    amp = w.apply_derivatives([amp0] + [-d for d in ds[1:]])
    mask = _stack_mask(radius, lambda rad: abs(n) <= rad + 0.5)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_sum raises
        terms = amp * _masked_exp(-1j * math.pi * n * n * tau - (TWO_PI * 1j * n) * z, mask)
        total = terms.sum(np.where((n_terms - 0.5) % 2, -1.0, 1.0))
    return _finite_sum(total, "R-series")
