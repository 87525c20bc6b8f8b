"""Scalar special-function catalog: the exponential integrals, the Gaussian
integral F_c with the error completion E, the Dawson factor e^(-b^2) F_-1,
the H-kernel and its factor G = e^(-w) H, Jacobi theta, congruence theta
series, and the R-series, all with exact Taylor jets (H by value only: the
kernel terms take G and the Dawson factor, which are free of exponentials
and bounded, and put e^w and e^(b^2) into their own exponent).

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

import contextlib
import math
from functools import lru_cache

import numpy as np

from .core import FunctionHandle, TruncationPolicy, _term_axis, half_integer, require_finite
from .errors import DomainError, HUndefined, TruncationOverflow, ValueOverflow
from .jets import Jet, _finite_exp

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# exponential integrals

_EULER_GAMMA = 0.57721566490153286061
_EPS = 2.0 ** -53


def _exp1(x):
    """E1(x) = int_x^infty e^(-t) / t dt for x > 0."""
    return _exp1_scaled(x) * math.exp(-x)


def _exp1_scaled(x):
    """e^x E1(x) for x > 0.

    The power series -gamma - log x - sum_k (-x)^k / (k k!) for x <= 2,
    summed exactly rounded (math.fsum; E1(2) = 0.049 is the result of a
    cancellation between terms near 1), the continued fraction
    `_gamma_cf` beyond.
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
    return _gamma_cf(0, x)


def _gamma_cf(a, x):
    """e^x x^(-a) Gamma(a, x) for x > 0 and an integer a <= 0, by the
    continued fraction 1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...))
    (modified Lentz); it converges fast for x > 2."""
    b = x + 1.0 - a
    c = 1e300  # Lentz's start, 1 / tiny
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -float(i * (i - a))
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h


def _expi(x):
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
# the Gaussian integral F_c and the error completion E


def _elementwise(fn, x):
    """fn of a float, or of each entry of a numpy array of any shape."""
    if isinstance(x, np.ndarray):
        return np.array([fn(t) for t in x.ravel().tolist()]).reshape(x.shape)
    return fn(x)


def gaussian_integral_derivatives(c, b0, n):
    """[F, F', ..., F^(n)] at b0 of F_c(b) = 2 int_0^b e^(-c s^2) ds for real
    c > 0 (elementwise for a numpy array b0).

    F = sqrt(pi/c) erf(sqrt(c) b), F' = g = 2 e^(-c b^2), and
    g^(i+1) = -2c (b g^(i) + i g^(i-1)).  F_c is entire and odd: E = F_pi,
    and F_1 is the c_3/c_4 kernel factor for m < 0.
    """
    ds = [math.sqrt(math.pi / c) * _elementwise(math.erf, math.sqrt(c) * b0)]
    if n == 0:
        return ds
    g = [2.0 * _finite_exp(-c * b0 * b0)]
    for i in range(n - 1):
        prev = g[i - 1] if i >= 1 else 0.0
        g.append(-2.0 * c * (b0 * g[i] + i * prev))
    return ds + g[:n]


def gaussian_integral_jet(c, arg):
    """F_c applied to a real-valued jet."""
    return arg.apply_derivatives(gaussian_integral_derivatives(c, arg.value.real, arg.order))


def _dawson(b):
    """D(b) = 2 e^(-b^2) int_0^b e^(s^2) ds = e^(-b^2) F_-1(b), twice
    Dawson's integral, for a float b; |D| <= 1.09.

    For b^2 <= 40, e^(-b^2) times the positive series 2b sum_n
    b^(2n) / (n! (2n+1)) of F_-1 (its terms peak near n = b^2); beyond, the
    asymptotic series 1/b sum_k (2k-1)!! / (2b^2)^k, whose smallest term is
    below e^(-b^2) relative.
    """
    t = b * b
    term = total = 1.0
    if t <= 40.0:
        n = 0
        while term > _EPS * total:
            n += 1
            term *= t / n * (2 * n - 1) / (2 * n + 1)
            total += term
        return 2.0 * b * total * math.exp(-t)
    k = 0
    while term > _EPS * total:
        k += 1
        term *= (2 * k - 1) / (2.0 * t)
        total += term
    return total / b


def dawson_jet(arg):
    """D(b) = e^(-b^2) F_-1(b) of `_dawson` applied to a real-valued jet:
    D' = 2 - 2bD and D^(i+1) = -2 (b D^(i) + i D^(i-1)).  The c_3/c_4
    kernel factor for m > 0 is i e^(b^2) D(b), with e^(b^2) in the term's
    exponent.  The recurrence cancels to about (2b)^i eps of D in the i-th
    derivative, far below the size of that derivative of e^(b^2) D."""
    b0 = arg.value.real
    ds = [_elementwise(_dawson, b0)]
    for i in range(arg.order):
        prev = ds[i - 1] if i >= 1 else 0.0
        ds.append((2.0 if i == 0 else 0.0) - 2.0 * (b0 * ds[i] + i * prev))
    return arg.apply_derivatives(ds)


def error_completion_E(w):
    """E(w) = 2 int_0^w e^(-pi u^2) du = erf(sqrt(pi) w), elementwise for a
    numpy array w."""
    return gaussian_integral_derivatives(math.pi, w, 0)[0]


# ----------------------------------------------------------------------
# the H-kernel


def _scaled_integral(j, w):
    """G_j(w) = e^(-2w) int_{-2w}^infty t^j e^(-t) dt for integer j,
    continued in j for w > 0, so that H = e^w G_j without forming e^(-w)
    and e^(2w) apart.

    This is e^x Gamma(j+1, x) at x = -2w.  For j >= 0 it is the polynomial
    j! sum_{i<=j} x^i / i!, summed exactly and rounded once (ValueOverflow
    beyond the float range).  For j < 0: the continued fraction `_gamma_cf`
    for x > 2; the asymptotic series x^j sum_i j (j-1) ... (j-i+1) / x^i,
    cut at its smallest term, for x <= -40; for j < -1 and -40 < x < -2,
    the integral of e^(-s) (x+s)^j over 0 < s < -x/2 (24-point
    Gauss-Legendre) plus e^(x/2) G_j(x/2); elsewhere the downward
    integration-by-parts recurrence from j = -1, which also defines the
    holomorphic continuation.  Away from the zeros of G_j, the relative
    error is below 1e-13 for j >= -3.
    """
    x = -2.0 * w
    if j >= 0:
        num, q = _scaled_integral_sum(j, x)
        try:
            return num / q ** j
        except OverflowError:
            raise ValueOverflow("G_%d(%r) exceeds the floating-point range" % (j, w)) from None
    if x > 2.0:
        return x ** (j + 1) * _gamma_cf(j + 1, x)
    if x <= -40.0:
        total = term = 1.0
        i = 0
        while True:
            i += 1
            nxt = term * (j - i + 1) / x
            if abs(nxt) < _EPS * abs(total) or abs(nxt) >= abs(term):
                return x ** j * total
            term = nxt
            total += term
    if j < -1 and x < -2.0:
        nodes, weights = _gauss_legendre(24)
        half = -0.25 * x  # half the length of 0 < s < -x/2
        s = half * (nodes + 1.0)
        integral = half * float(np.dot(weights, np.exp(-s) * (x + s) ** j))
        return integral + math.exp(0.5 * x) * _scaled_integral(j, 0.5 * w)
    if j == -1:
        # e^x Gamma(0, x); for x < 0 the real principal-value continuation
        return _exp1_scaled(x) if x > 0 else -_expi_scaled(-x)
    try:
        power = x ** (j + 1)
    except (OverflowError, ZeroDivisionError):  # near w = 0, where G_j diverges for j < -1
        raise ValueOverflow("G_%d(%r) exceeds the floating-point range" % (j, w)) from None
    return (_scaled_integral(j + 1, w) - power) / (j + 1)


def _scaled_integral_sum(j, x):
    """G_j = num / q^j for j >= 0 at x = -2w, as the integers (num, q).

    G_i = i G_(i-1) + x^i from G_0 = 1, in integers with x = p / q: a float
    sum cancels for x < 0, and j! leaves the float range from j = 171 on,
    where G_j may not."""
    p, q = x.as_integer_ratio()
    num, power = 1, 1
    for i in range(1, j + 1):
        power *= p
        num = i * q * num + power
    return num, q


def _log_scaled_integral(j, w):
    """The principal log of G_j(w) for j >= 0 (imaginary part pi where
    G_j < 0), from the exact sum: finite where G_j leaves the float range."""
    num, q = _scaled_integral_sum(j, -2.0 * w)
    return complex(math.log(abs(num)) - j * math.log(q), 0.0 if num > 0 else math.pi)


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def H_function(w, k):
    """H(w) = e^(-w) int_{-2w}^infty t^(1/2-k) e^(-t) dt for half-integer k.

    The exponent j = 1/2 - k is an integer; for w > 0 and k >= 3/2 the value
    is the continuation in k given by the integration-by-parts recurrence.
    For k <= 1/2, H is entire, with H(0) = Gamma(3/2 - k) = j!; for k >= 3/2
    the integral diverges at w = 0, which raises HUndefined.  A value
    beyond the floating-point range raises ValueOverflow.
    """
    j = _half_int_exponent(k)
    if w == 0 and j < 0:
        raise HUndefined("H is undefined at w = 0 for k >= 3/2, got k=%r" % (k,))
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


def G_jet(arg, k):
    """G(w) = e^(-w) H(w) = `_scaled_integral`(1/2 - k, w) applied to a
    real-valued jet, from G' = -2G + 2 (-2w)^j with j = 1/2 - k: bounded by
    a power of w, free of exponentials of w.  The c_2/c_4 kernel terms take
    it with e^w in the term's exponent."""
    return arg.apply_derivatives(G_derivatives(arg, k))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # checked below
def G_derivatives(arg, k):
    """[G, G', ..., G^(order)] of `G_jet` at the value of the jet arg (numpy
    arithmetic); ValueOverflow where one leaves the float range."""
    j = _half_int_exponent(k)
    w0 = arg.value.real
    gs = [_elementwise(lambda w: _scaled_integral(j, w), w0)]
    x = np.asarray(-2.0 * w0)
    fall = 1.0  # j (j - 1) ... (j - i + 1)
    for i in range(arg.order):
        # the i-th derivative of (-2w)^j
        power = fall * (-2.0) ** i * x ** (j - i) if fall else 0.0
        gs.append(-2.0 * gs[i] + 2.0 * power)
        fall *= j - i
    finite = np.isfinite(gs[-1])  # inf or nan in one derivative is in every later one
    if not finite.all():
        raise ValueOverflow("a derivative of G_%d at %r exceeds the floating-point range"
                            % (j, float(np.asarray(w0)[~finite][0])))
    return gs


def G_log_jet(arg, k):
    """G_jet where G leaves the float range, for j = 1/2 - k >= 0: log |G|
    at the value, and the jet of G over |G| at the value, whose
    coefficients G^(i) / |G| follow G' = -2G + 2 (-2w)^j with the power
    over |G| formed from logs.  A c_2/c_4 term folds the log into its one
    exponent jet, so it is finite wherever its value is."""
    j = _half_int_exponent(k)
    w0 = arg.value.real
    logs = _elementwise(lambda w: _log_scaled_integral(j, w), w0)
    log_abs = logs.real
    x = -2.0 * w0
    gs = [1.0 - 2.0 * (logs.imag != 0)]  # the sign of G
    fall = 1.0
    for i in range(arg.order):
        # the i-th derivative of (-2w)^j, over |G|
        power = (fall * (-2.0) ** i * np.sign(x) ** (j - i)
                 * np.exp((j - i) * np.log(np.abs(x)) - log_abs)) if fall else 0.0
        gs.append(-2.0 * gs[i] + 2.0 * power)
        fall *= j - i
    return log_abs, arg.apply_derivatives(gs)


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


def require_upper_half_plane(series, tau, **args):
    """The domain of a series: its argument values tau and args (numbers,
    or arrays over a point stack) finite and Im(tau) > 0 at every point;
    DomainError naming the series and the argument otherwise."""
    y0 = tau.imag
    if not ((y0 > 0).all() if isinstance(y0, np.ndarray) else y0 > 0):
        raise DomainError("%s requires Im(tau) > 0" % series)
    for name, x in (("tau", tau),) + tuple(args.items()):
        require_finite(x, "%s argument %s" % (series, name))


def _check_radius(x, extra, policy):
    """ceil(x) + extra for a float x (an array over a point stack), as an
    int (an int array), against the cap.  x is compared before it is
    converted, so a radius beyond the float range (inf) is a
    TruncationOverflow too, and so is one that could not be formed (nan)."""
    cap = policy.max_radius
    worst = x.max() if isinstance(x, np.ndarray) else x
    if math.isnan(worst):
        raise TruncationOverflow(worst, cap, "truncation radius is not a number: its "
                                 "bound overflows the floating-point range")
    if worst > cap - extra:
        raise TruncationOverflow(math.ceil(worst) + extra if math.isfinite(worst) else worst, cap)
    return np.ceil(x).astype(int) + extra if isinstance(x, np.ndarray) else math.ceil(x) + extra


def _overflow_to_inf(x):
    """Lets the arithmetic of an array x (a point stack) overflow to inf,
    and inf / inf give nan, without a warning, as that of a number does;
    the radius check reports an infinite or nan radius."""
    if isinstance(x, np.ndarray):
        return np.errstate(over="ignore", invalid="ignore")
    return contextlib.nullcontext()


def _gaussian_radius(y0, two_m, lin, policy):
    """Smallest R with exp(-quad R^2 + lin R) <= tail for the quadratic
    coefficient quad = pi y0 / 2m of a Gaussian series at Im tau = y0 > 0
    (elementwise for arrays y0 and lin), as h + sqrt(h^2 + L / quad) with
    h = lin / 2 quad: 0 for an infinite quad (pi y0 beyond the float
    range) and a finite lin, nan when both are infinite.  The tail is the
    policy's at each point (`TruncationPolicy.tail_at`)."""
    L = policy.tail_at(y0, _log_inverse)
    with _overflow_to_inf(y0):
        quad = math.pi * y0 / two_m
        h = lin / (2.0 * quad)
        x = h + _sqrt(h * h + L / quad)
    return _check_radius(x, 1, policy)


def _log_inverse(tail):
    """log(1 / tail) of one tail target."""
    return math.log(1.0 / tail)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _stack_mask(radius, keep):
    """The per-term, per-point mask keep(radius) as floats, or None when
    the radius is one int or the same at every point of the stack (the
    terms of the largest radius are then every point's own terms)."""
    if isinstance(radius, int) or (radius == radius.flat[0]).all():
        return None
    return keep(radius).astype(float)


def _masked_exp(expo, mask):
    """exp of a batched exponent jet, with masked (0) entries set to 0
    without evaluating their exponentials: the kept entries are selected,
    so a masked exponent beyond the float range (-inf) gives 0 too."""
    if mask is None:
        return expo.exp()
    keep = mask[..., None] != 0
    kept = Jet(expo.order, np.where(keep, expo.c, 0)).exp()
    return Jet(expo.order, np.where(keep, kept.c, 0))


# ----------------------------------------------------------------------
# Jacobi theta theta(z; tau)


def jacobi_theta_jet(tau, z, policy=None):
    """theta(z; tau) = sum over r in Z+1/2 of (-1)^(r+1/2) q^(r^2/2) zeta^r."""
    policy = policy or TruncationPolicy()
    require_upper_half_plane("theta", tau.value, z=z.value)
    y0 = tau.value.imag
    v0 = z.value.imag
    radius = _gaussian_radius(y0, 1, TWO_PI * abs(v0), policy)
    R = _largest(radius)
    k = np.arange(-R, R + 2)  # r = k - 1/2 runs over -R - 1/2, ..., R + 1/2
    kk = _term_axis(k, tau, z)
    r = kk - 0.5
    mask = _stack_mask(radius, lambda rad: (kk >= -rad) & (kk <= rad + 1))
    with np.errstate(over="ignore"):  # an exponent below the float range: exp is 0
        terms = _masked_exp((1j * math.pi * r * r) * tau + (TWO_PI * 1j * r) * z, mask)
    return terms.sum(np.where(k % 2, -1.0, 1.0))


def jacobi_theta_handle(policy=None):
    def je(jv):
        return jacobi_theta_jet(jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="jacobi_theta")


# ----------------------------------------------------------------------
# congruence theta series theta_{m,l}


def theta_ml_jet(two_m, l, tau, z, policy=None):
    """theta_{m,l}(tau, z) = sum over r = l mod 2m of q^(r^2/4m) zeta^r.

    l is a sequence of labels, or one label (a sequence of one, its row
    returned): the components on a leading label axis, shape
    (labels, *points, M), from one term axis that holds every label's
    terms r, grouped by label, with one exp; each label sums its own
    group, so each row is its label's jet alone, bit for bit."""
    if two_m <= 0:
        raise DomainError("theta_{m,l} requires m > 0")
    lone = not isinstance(l, (list, tuple, np.ndarray))
    ls = [l] if lone else list(l)
    if not ls:
        raise DomainError("theta_{m,l} needs a label")
    for label in ls:
        require_finite(label, "label l")
    policy = policy or TruncationPolicy()
    m = two_m / 2.0
    require_upper_half_plane("theta_{m,l}", tau.value, z=z.value)
    y0 = tau.value.imag
    v0 = z.value.imag
    radius = _gaussian_radius(y0, two_m, TWO_PI * abs(v0), policy)
    R = _largest(radius)
    groups, ends = [], [0]
    for label in ls:
        label = label % two_m  # may be half-integral for odd 2m
        t_lo = -int((R + label) // two_m) - 1
        t_hi = int((R - label) // two_m) + 1
        groups.append(label + two_m * np.arange(t_lo, t_hi + 1))  # |r| <= R + 2m
        ends.append(ends[-1] + len(groups[-1]))
    r = _term_axis(np.concatenate(groups), tau, z)
    mask = _stack_mask(radius, lambda rad: np.abs(r) <= rad + two_m)
    with np.errstate(over="ignore"):  # an exponent below the float range: exp is 0
        terms = _masked_exp((2j * math.pi * (r * r / (4.0 * m))) * tau + (TWO_PI * 1j * r) * z,
                            mask)
    rows = np.empty((len(ls),) + terms.c.shape[1:], dtype=complex)
    for j in range(len(ls)):
        terms.c[ends[j]:ends[j + 1]].sum(axis=0, out=rows[j])  # each label its own terms
    return Jet(terms.order, rows[0] if lone else rows)


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
    require_upper_half_plane("R", tau.value, z=z.value)
    with np.errstate(over="ignore", invalid="ignore"):  # y is inf past half the float range
        y = tau.imag()
        v = z.imag()
    y0 = y.value.real
    v0 = v.value.real
    L = policy.tail_at(y0, _log_inverse)
    with _overflow_to_inf(y0):
        radius = _check_radius(_sqrt(L / (math.pi * y0)) + abs(v0) / y0, 2, policy)
    R = _largest(radius)
    order = tau.order
    n_terms = np.arange(-R, R + 2) - 0.5  # -R - 1/2, ..., R + 1/2
    n = _term_axis(n_terms, tau, z)
    sgn = np.where(n > 0, 1.0, -1.0)
    w = (2.0 * y).cpow(0.5) * (n + v / y)
    w0 = w.value.real
    ds = gaussian_integral_derivatives(math.pi, w0, order)
    # sgn(n) - E(w) without cancellation: same-side values go through erfc
    erfc = _elementwise(math.erfc, math.sqrt(math.pi) * np.abs(w0))
    amp0 = np.where(sgn * w0 >= 0, sgn * erfc, sgn - ds[0])
    amp = w.apply_derivatives([amp0] + [-d for d in ds[1:]])
    mask = _stack_mask(radius, lambda rad: abs(n) <= rad + 0.5)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_sum raises
        terms = amp * _masked_exp(-1j * math.pi * n * n * tau - (TWO_PI * 1j * n) * z, mask)
        total = terms.sum(np.where((n_terms - 0.5) % 2, -1.0, 1.0))
    return _finite_sum(total, "R-series")


def zwegers_R_handle(policy=None):
    def je(jv):
        return zwegers_R_jet(jv.tau, jv.z, policy)

    return FunctionHandle(jet_fn=je, label="R")
