"""Fourier kernel bases for the two elliptic Laplace-type equations, the
expected image table of the four covariant xi operators on them, and theta
decomposition/recomposition of holomorphic-type Fourier data.

A kernel term is c_i(n, r; y, v) q^n zeta^r where the coefficient functions
c_1..c_4 (and the skew variants) span the solution space of the Casimir and
Heisenberg Laplace equations for the discriminant D = 4mn - r^2.  Fourier
data with the class-function property c(n, r) = c(n', r') for equal D and
r = r' mod 2m decomposes into label-indexed q-series with exact rational
exponents.  The annihilation and image identities are checked in
`mjlab.verify`.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import FunctionHandle, WeightIndex, fourier_sum_jet
from .errors import DomainError, JetUnavailable, NotThetaDecomposable
from .jets import Jet
from .mu import check_component, mu_hat_component_jet
from .special import H_jet, gamma_half_jet, theta_ml_jet

# the sgn factor of c_3/c_4 is locally constant; jets are refused closer to
# its jump locus r + 2mv/y = 0 than this
SGN_LOCUS_TOL = 1e-3


@dataclass(frozen=True)
class KernelParams(WeightIndex):
    """A weight/index pair (k, m) and a Fourier pair (n, r) of integers.

    The discriminant D = 4mn - r^2 is always recomputed from the fields.
    """

    n: int
    r: int

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.n, int) or not isinstance(self.r, int):
            raise DomainError("n and r must be integers, got n=%r, r=%r" % (self.n, self.r))

    @property
    def D(self):
        return 2 * self.two_m * self.n - self.r * self.r

    @classmethod
    def of(cls, k, m, n, r):
        wi = WeightIndex.of(k, m)
        return cls(wi.two_k, wi.two_m, n, r)

    def weight_index(self):
        return WeightIndex(self.two_k, self.two_m)

    def xi_partner(self):
        """Parameters [3 - k, m, n, r] of the xi / xi^sk image."""
        return KernelParams(6 - self.two_k, self.two_m, self.n, self.r)

    def xi_H_partner(self):
        """Parameters [k, -m, -n, -r] of the xi^H / xi^{sk,H} image."""
        return KernelParams(self.two_k, -self.two_m, -self.n, -self.r)


def _sgn_gamma_jet(params, jv):
    """sgn(r + 2mv/y) gamma(1/2, (-pi y / m)(r + 2mv/y)^2) as a jet (0 at
    order 0 on the jump locus), one row per point of a stack."""
    m = params.m
    Y, V = jv.y, jv.v
    a = params.r + (2.0 * m) * V / Y
    dist = abs(a.value.real)
    if jv.order > 0:
        if np.any(dist < 1e-14):
            raise JetUnavailable(
                "sgn factor is not smooth on the locus r + 2mv/y = 0"
            )
        if np.any(dist < SGN_LOCUS_TOL):
            raise JetUnavailable(
                "jet requested within %g of the sgn jump locus" % SGN_LOCUS_TOL
            )
    sgn = np.where(dist < 1e-14, 0.0, np.sign(a.value.real))
    arg = (-math.pi / m) * Y * a * a
    return sgn * gamma_half_jet(arg)


def kernel_jet(i, params, skew, jv):
    """Jet of the coefficient function c_i (or c_i^sk) in (y, v)."""
    if i not in (1, 2, 3, 4):
        raise DomainError("kernel label must be 1..4")
    k, m, D = params.k, params.m, params.D
    Y = jv.y
    if D != 0:
        w = (math.pi * D / (2.0 * m)) * Y
        if not skew:
            if i == 1:
                return Jet.constant(1.0, jv.order)
            if i == 2:
                return H_jet(w, k) * w.exp()
            if i == 3:
                return _sgn_gamma_jet(params, jv)
            return H_jet(w, k) * w.exp() * _sgn_gamma_jet(params, jv)
        if i == 1:
            return (2.0 * w).exp()
        if i == 2:
            return H_jet(-1.0 * w, k) * w.exp()
        if i == 3:
            return (2.0 * w).exp() * _sgn_gamma_jet(params, jv)
        return H_jet(-1.0 * w, k) * w.exp() * _sgn_gamma_jet(params, jv)
    # D = 0: the skew coefficients coincide with the standard ones
    if i == 1:
        return Jet.constant(1.0, jv.order)
    if i == 2:
        return Y.cpow(1.5 - k)
    if i == 3:
        return _sgn_gamma_jet(params, jv)
    return Y.cpow(1.5 - k) * _sgn_gamma_jet(params, jv)


def kernel_term_handle(i, params, skew=False):
    """The full term c_i(n, r; y, v) q^n zeta^r with exact jets."""
    n, r = params.n, params.r

    def je(jv):
        phase = (2j * math.pi * (n * jv.tau + r * jv.z)).exp()
        return kernel_jet(i, params, skew, jv) * phase

    tag = "sk" if skew else ""
    return FunctionHandle(
        jet_fn=je,
        label="c%d%s[%g,%g,%d,%d]" % (i, tag, params.k, params.m, n, r),
    )


# ----------------------------------------------------------------------
# the xi image table

_SQRT_PI = math.sqrt(math.pi)


def _const_pow(base, expo):
    return -(complex(base) ** expo)


def xi_image_rows(params):
    """The sixteen image identities of the four xi operators on the kernel
    terms at the given parameters (the D = 0 display when D vanishes).

    Each row is (case, operator name, input (i, skew), constant, target
    params (i, skew, KernelParams) or None for a vanishing image).
    """
    k, m, D = params.k, params.m, params.D
    p_xi = params.xi_partner()
    p_xh = params.xi_H_partner()
    if D != 0:
        a_xi = _const_pow(-math.pi * D / m, 1.5 - k)
        a_sk = _const_pow(math.pi * D / m, 1.5 - k)
    else:
        a_xi = a_sk = 1.5 - k
    a_h = -2.0 * _SQRT_PI
    rows = [
        ("xi(c1)", "xi", (1, False), 0.0, None),
        ("xi(c2)", "xi", (2, False), a_xi, (1, True, p_xi)),
        ("xi(c3)", "xi", (3, False), 0.0, None),
        ("xi(c4)", "xi", (4, False), a_xi, (3, True, p_xi)),
        ("xiH(c1)", "xiH", (1, False), 0.0, None),
        ("xiH(c2)", "xiH", (2, False), 0.0, None),
        ("xiH(c3)", "xiH", (3, False), a_h, (1, True, p_xh)),
        ("xiH(c4)", "xiH", (4, False), a_h, (2, True, p_xh)),
        ("xiSk(c1sk)", "xiSk", (1, True), 0.0, None),
        ("xiSk(c2sk)", "xiSk", (2, True), a_sk, (1, False, p_xi)),
        ("xiSk(c3sk)", "xiSk", (3, True), 0.0, None),
        ("xiSk(c4sk)", "xiSk", (4, True), a_sk, (3, False, p_xi)),
        ("xiSkH(c1sk)", "xiSkH", (1, True), 0.0, None),
        ("xiSkH(c2sk)", "xiSkH", (2, True), 0.0, None),
        ("xiSkH(c3sk)", "xiSkH", (3, True), a_h, (1, False, p_xh)),
        ("xiSkH(c4sk)", "xiSkH", (4, True), a_h, (2, False, p_xh)),
    ]
    return rows


# ----------------------------------------------------------------------
# Fourier data and theta decomposition

CLASS_TOL = 1e-12


@dataclass
class FourierData:
    """Finite-support Fourier coefficients c(n, r) at index m = two_m / 2 > 0.

    When `holomorphic` is set the class-function property is enforced on
    construction: coefficients agree whenever the discriminants agree and
    r = r' mod 2m.
    """

    two_m: int
    coefficients: dict = field(default_factory=dict)
    holomorphic: bool = False

    def __post_init__(self):
        if self.two_m < 1:
            raise DomainError("2m must be a positive integer")
        clean = {}
        for (n, r), c in self.coefficients.items():
            clean[(int(n), int(r))] = complex(c)
        self.coefficients = clean
        if self.holomorphic:
            self.check_class_function()

    def discriminant(self, n, r):
        return 2 * self.two_m * n - r * r

    def class_key(self, n, r):
        return (self.discriminant(n, r), r % self.two_m)

    def check_class_function(self, tol=CLASS_TOL):
        groups = {}
        for (n, r), c in self.coefficients.items():
            groups.setdefault(self.class_key(n, r), []).append(((n, r), c))
        for key, entries in groups.items():
            ref = entries[0][1]
            for (n, r), c in entries[1:]:
                if abs(c - ref) > tol:
                    raise NotThetaDecomposable(
                        "coefficients at (%d,%d) and (%d,%d) differ in class %r"
                        % (entries[0][0] + (n, r) + (key,))
                    )
        return groups

    def handle(self):
        """The generating function sum c(n, r) q^n zeta^r as a handle."""
        terms = [(n, r, c) for (n, r), c in sorted(self.coefficients.items())]

        def je(jv):
            return fourier_sum_jet(terms, jv.tau, jv.z)

        return FunctionHandle(jet_fn=je, label="fourier[2m=%d]" % self.two_m)

    def to_text(self):
        lines = ["index 2m=%d" % self.two_m]
        for (n, r), c in sorted(self.coefficients.items()):
            lines.append("%d %d %.17g %.17g" % (n, r, c.real, c.imag))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, holomorphic=False):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("index 2m="):
            raise DomainError("missing 'index 2m=<integer>' header")
        ln = lines[0]
        try:
            two_m = int(ln.split("=", 1)[1])
            coeffs = {}
            for ln in lines[1:]:
                n, r, re, im = ln.split()
                coeffs[(int(n), int(r))] = complex(float(re), float(im))
        except ValueError:
            raise DomainError(
                "malformed line %r: expected 'index 2m=<integer>', then 'n r re im'"
                " with integers n, r" % ln
            ) from None
        return cls(two_m, coeffs, holomorphic=holomorphic)


def theta_fourier_data(two_m, l, t_range=4):
    """Fourier data of the label-l congruence theta series, restricted to
    its integer-exponent support r = l + 2mt, n = r^2 / 4m."""
    coeffs = {}
    for t in range(-t_range, t_range + 1):
        r = l + two_m * t
        num = r * r
        den = 2 * two_m
        if num % den:
            continue
        coeffs[(num // den, r)] = 1.0
    if not coeffs:
        raise DomainError("no integer-exponent terms for label %r" % (l,))
    return FourierData(two_m, coeffs, holomorphic=True)


def theta_decompose(data):
    """Label-indexed q-series h_l with exact rational exponents such that
    the data is sum over l of h_l theta_{m,l}.

    Returns {l: [(Fraction exponent, coefficient), ...]} with l running over
    the integer residues mod 2m; each distinct discriminant contributes one
    term q^(D / 4m).
    """
    groups = data.check_class_function()
    h = {l: [] for l in range(data.two_m)}
    for (D, l), entries in sorted(groups.items()):
        h[l].append((Fraction(D, 2 * data.two_m), entries[0][1]))
    for l in h:
        h[l].sort(key=lambda t: t[0])
    return h


def h_to_json(h):
    obj = {}
    for l, series in h.items():
        obj[str(l)] = [
            [e.numerator, e.denominator, c.real, c.imag] for e, c in series
        ]
    return json.dumps(obj, sort_keys=True)


def h_from_json(text):
    obj = json.loads(text)
    out = {}
    for key, rows in obj.items():
        label = Fraction(key)
        label = int(label) if label.denominator == 1 else float(label)
        out[label] = [
            (Fraction(int(num), int(den)), complex(re, im))
            for num, den, re, im in rows
        ]
    return out


def h_series_handle(series, label="h"):
    """A rational-exponent q-series as a handle (a function of tau only)."""
    terms = [(float(e), 0, c) for e, c in series]

    def je(jv):
        return fourier_sum_jet(terms, jv.tau, jv.z)

    return FunctionHandle(jet_fn=je, label=label)


def _recompose_handle(component_jet, two_m, h, varphi, policy, label):
    """sum over labels of h_l(tau) component_jet(two_m, l, tau, z), plus
    varphi when given, with exact jets; h maps labels to handles or
    rational-exponent series."""
    hs = {
        l: (v if isinstance(v, FunctionHandle) else h_series_handle(v))
        for l, v in h.items()
    }

    def je(jv):
        out = Jet.constant(0.0, jv.order)
        for l, handle in hs.items():
            out = out + handle.jet_at(jv) * component_jet(two_m, l, jv.tau, jv.z, policy)
        if varphi is not None:
            out = out + varphi.jet_at(jv)
        return out

    return FunctionHandle(jet_fn=je, label="%s[2m=%d]" % (label, two_m))


def theta_recompose_handle(two_m, h, policy=None):
    """sum over labels of h_l(tau) theta_{m,l}(tau, z) with exact jets.

    h maps labels to either rational-exponent series (lists) or handles.
    """
    return _recompose_handle(theta_ml_jet, two_m, h, None, policy, "theta-recompose")


def theta_like_recompose_handle(two_m, h, varphi=None, policy=None):
    """sum over labels of h_l(tau) mu_hat_{m,l}(tau, z), plus an optional
    meromorphic part, with exact jets.

    h maps the canonical component labels (core.labels(two_m)) to handles
    or rational-exponent series; missing labels contribute nothing.
    """
    for l in h:
        check_component(two_m, l)
    return _recompose_handle(
        mu_hat_component_jet, two_m, h, varphi, policy, "mu-recompose"
    )
