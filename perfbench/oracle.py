"""Output checks for the benchmark, run outside the timed region.

Values of theta, theta_ml, R, E, H and the kernel terms are compared with an
independent mpmath evaluation at 40 digits; a mismatch is a wrong answer.
The completed functions have no independent closed form, so a reported
value must be the one the library's jet gives at that point (else it is a
wrong answer), and that jet must satisfy the identity that pins the
function, xi^H(mu_hat[2m,l]) = theta_ml[2m,l] or xi(mu_hat_2) = 0, at the
tolerance the verification suites pin (else the identity is violated).
Both fail the operation; only a wrong answer makes the run incorrect, in
the same way as a failing check of a verification suite fails the suite
call without refuting a value.
"""

import math

import mpmath as mp

mp.mp.dps = 40

# a reported value must agree with the reference to this relative error
VALUE_RTOL = 1e-10
# causes of a failed check: a value refuted by a reference, and an identity
# that the reported function misses (a defect the program does not flag)
WRONG = "wrong answer"
IDENTITY = "identity violated"

# the pinned tolerances of mjlab.verify.suite_mu_xi_theta (tol_xi, tol_mu2)
XI_THETA_TOL = 1e-7
XI_MU2_TOL = 1e-6


def _mpc(w):
    return mp.mpc(w.real, w.imag)


def _series(term, start, step):
    """Sum term(start + j * step) over all integers j, walking out from
    `start` in both directions until the terms are negligible.

    Returns (sum, sum of absolute values)."""
    total, scale = mp.mpc(0), mp.mpf(0)
    for direction in (1, -1):
        j = 0 if direction == 1 else -1
        small = 0
        while small < 3:
            t = term(start + j * step)
            total += t
            scale += abs(t)
            small = small + 1 if abs(t) < mp.mpf(10) ** -45 * (scale + 1e-300) else 0
            j += direction
    return total, scale


def theta_ml(two_m, l, tau, z):
    """sum over r = l mod 2m of q^(r^2 / 4m) zeta^r."""
    tau, z = _mpc(tau), _mpc(z)
    m = mp.mpf(two_m) / 2
    # start the walk at the largest term
    centre = -2 * m * z.imag / tau.imag
    start = l + two_m * round((centre - l) / two_m)
    return _series(
        lambda r: mp.exp(2j * mp.pi * (r * r / (4 * m) * tau + r * z)),
        mp.mpf(start), two_m)


def theta(tau, z):
    """The Jacobi theta series, as -i theta_1(pi z, e^(pi i tau))."""
    value = -1j * mp.jtheta(1, mp.pi * _mpc(z), mp.exp(1j * mp.pi * _mpc(tau)))
    return value, abs(value)


def zwegers_R(tau, z):
    """sum over nu in Z + 1/2 of (sgn(nu) - E((nu + v/y) sqrt(2y)))
    (-1)^(nu - 1/2) e^(-pi i nu^2 tau - 2 pi i nu z)."""
    tau, z = _mpc(tau), _mpc(z)
    y, a = tau.imag, z.imag / tau.imag

    def term(nu):
        w = mp.sqrt(mp.pi) * (nu + a) * mp.sqrt(2 * y)
        amp = mp.erfc(w) if nu > 0 else -mp.erfc(-w)
        sign = -1 if int(nu - 0.5) % 2 else 1
        return sign * amp * mp.exp(-1j * mp.pi * nu * nu * tau - 2j * mp.pi * nu * z)

    start = mp.mpf(round(-a)) + mp.mpf(0.5)
    return _series(term, start, 1)


def error_E(w):
    value = mp.erf(mp.sqrt(mp.pi) * w)
    return mp.mpc(value), abs(value)


def H(w, k):
    """e^(-w) Gamma(3/2 - k, -2w), the real part of the continuation."""
    value = mp.exp(-w) * mp.re(mp.gammainc(mp.mpf(1.5) - k, -2 * mp.mpf(w)))
    return mp.mpc(value), abs(value)


def kernel(name, k, m, n, r, tau, z):
    """The kernel term c_i(n, r; y, v) q^n zeta^r (or its skew variant)."""
    i, skew = int(name[1]), name.endswith("sk")
    tau, z = _mpc(tau), _mpc(z)
    y, v = tau.imag, z.imag
    D = 4 * m * n - r * r

    def sgn_gamma():
        a = r + 2 * m * v / y
        if abs(a) < 1e-14:
            return mp.mpc(0)
        return mp.sign(a) * mp.gammainc(0.5, 0, -mp.pi * y * a * a / m)

    if D != 0:
        w = mp.pi * D * y / (2 * m)
        lead = (mp.exp(2 * w) if skew else 1, H(-w if skew else w, k)[0] * mp.exp(w))
    else:
        lead = (1, y ** (mp.mpf(1.5) - k))
    c = lead[0] if i in (1, 3) else lead[1]
    if i in (3, 4):
        c = c * sgn_gamma()
    value = c * mp.exp(2j * mp.pi * (n * tau + r * z))
    return value, abs(value)


def close(got, ref):
    """Whether a reported complex value matches a (value, scale) reference."""
    value, scale = ref
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return False
    err = abs(_mpc(got) - value)
    return err <= VALUE_RTOL * abs(value) + 1e-14 * scale


def reference(function, params, tau, z):
    """(value, scale) of a catalog function with an mpmath oracle, or None."""
    if function == "theta":
        return theta(tau, z)
    if function == "theta_ml":
        return theta_ml(params["two_m"], params["l"], tau, z)
    if function == "R":
        return zwegers_R(tau, z)
    if function == "E":
        return error_E(params["w"])
    if function == "H":
        return H(params["w"], params["k"])
    if function[0] == "c":
        return kernel(function, params["k"], params["m"], params["n"],
                      params["r"], tau, z)
    return None


def check_identity(function, params, tau, z, got):
    """Check a completed function's reported value through its identity.

    The value is recomputed in the library as the constant term of the jet
    the identity is checked on, and the report must match it.  Returns None,
    WRONG if the report does not match, or IDENTITY if the identity misses
    its pinned tolerance relative to the size of its terms.
    """
    from mjlab.core import EvalPoint, JetVars, WeightIndex
    from mjlab.mu import mu_hat_2_handle, mu_hat_ml_handle
    from mjlab.operators import xi, xi_H

    jv = JetVars.at(EvalPoint.from_tau_z(tau, z), 0)
    if function == "mu_hat_ml":
        two_m, l = params["two_m"], params["l"]
        f = mu_hat_ml_handle(two_m, l)
        image = xi_H(WeightIndex(1, -two_m), f).jet_at(jv).value
        target, scale = theta_ml(two_m, l, tau, z)
        holds = abs(_mpc(image) - target) <= XI_THETA_TOL * max(1, scale)
    elif function == "mu_hat_2":
        f = mu_hat_2_handle()
        image = xi(WeightIndex(1, -1), f).jet_at(jv).value
        holds = abs(image) <= XI_MU2_TOL * max(1.0, abs(got))
    else:
        raise ValueError(function)
    value = f.jet_at(jv).value
    if not close(got, (_mpc(value), abs(value))):
        return WRONG
    return None if holds else IDENTITY


def check_value(function, params, tau, z, got):
    """None if a reported value of a catalog function passes its check,
    else the cause: WRONG or IDENTITY."""
    ref = reference(function, params, tau, z)
    if ref is None:
        return check_identity(function, params, tau, z, got)
    return None if close(got, ref) else WRONG


def finite(w):
    return math.isfinite(w.real) and math.isfinite(w.imag)
