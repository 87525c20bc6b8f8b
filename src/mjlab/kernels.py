"""Fourier kernel bases for the two elliptic Laplace-type equations, the
expected image table of the four covariant xi operators on them, and the
recomposition of label-indexed q-series with theta or completed Appell
components.

A kernel term is c_i(n, r; y, v) q^n zeta^r where the coefficient functions
c_1..c_4 (and the skew variants) span the solution space of the Casimir and
Heisenberg Laplace equations for the discriminant D = 4mn - r^2; c_3 and
c_4 carry a Gaussian-integral factor in r + 2mv/y, smooth across its zero
locus, so every kernel term has exact jets at every point.  Each term is
one exponential of a single exponent jet times bounded factors free of
exponentials, so it is finite wherever its value is; the terms of a list
of parameter sets (a lone set is a list of one) are evaluated together as
a kernel family that forms each shared piece once.  The q-series come from
`mjlab.fourier`'s theta decomposition; `mu` is read only by the theta-like
recompose, so a kernel term's evaluation never executes it.  The
annihilation and image identities are checked in `mjlab.verify`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import FunctionHandle, WeightIndex, fourier_sum_handle
from .errors import DomainError, ValueOverflow
from .jets import Jet
from .special import (
    G_derivatives,
    G_log_jet,
    _finite_sum,
    dawson_jet,
    gaussian_integral_jet,
    theta_ml_jet,
)


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

    def tag(self):
        """The label [k,m,n,r] of the parameter set."""
        return "[%g,%g,%d,%d]" % (self.k, self.m, self.n, self.r)

    def xi_partner(self):
        """Parameters [3 - k, m, n, r] of the xi / xi^sk image."""
        return KernelParams(6 - self.two_k, self.two_m, self.n, self.r)

    def xi_H_partner(self):
        """Parameters [k, -m, -n, -r] of the xi^H / xi^{sk,H} image."""
        return KernelParams(self.two_k, -self.two_m, -self.n, -self.r)


def _term_label(i, params, skew):
    return "c%d%s%s" % (i, "sk" if skew else "", params.tag())


KERNEL_TERMS = tuple((i, skew) for skew in (False, True) for i in (1, 2, 3, 4))


@np.errstate(over="ignore", invalid="ignore")  # the finite check raises
def kernel_family_jet(params, terms, jv):
    """Jets of the kernel terms (i, skew) of `terms` at a list of parameter
    sets, one row per (set, term), set by set: shape
    (len(sets) * len(terms), *points, M).  A lone `KernelParams` is a list
    of one.

    Each term is exp(E) times factors free of exponentials.
    E = 2 pi i (n tau + r z), plus 2w = pi D y / m for c_2, c_4, c_1^sk and
    c_3^sk (D != 0), plus b^2 for c_3 and c_4 when m > 0, with
    b = (pi y / |m|)^(1/2) (r + 2mv/y).  The factors: G(+-w) (`G_derivatives`;
    y^(3/2-k) at D = 0) for c_2 and c_4; F_1(b) for m < 0, i D(b)
    (`dawson_jet`) for m > 0, for c_3 and c_4.  Where G leaves the float
    range, log |G| joins the exponent and G / |G| is the factor
    (`G_log_jet`).

    The sets and points are one stack of entries, set by set.  Each piece
    (E, w, b, y^(3/2-k), G(+-w) from the sets' `G_derivatives`, F_1(b) or
    i D(b), the exp of each distinct exponent) is formed once, over the sets
    that need it.  Every operation acts entry by entry, so each row is that
    of its set as a list of one, bit for bit, and the finite check names the
    first failing (set, term).  A c_2 or c_4 term at D != 0 and integral k
    (no G) is a DomainError naming it, raised before any evaluation."""
    sets = (params,) if isinstance(params, KernelParams) else tuple(params)
    plan = _family_plan(sets, tuple(terms), frozenset())
    order, n_sets = jv.order, len(sets)
    points, width = jv.y.c.shape[:-1], jv.y.c.shape[-1]
    rows = partial(_set_rows, n_sets=n_sets)

    def scaled(k, x):
        """Constants k on the entry axis times a coordinate jet x on the points."""
        return Jet(order, (x.c.reshape(-1, width) * k.reshape(n_sets, -1, 1)).reshape(-1, width))

    def y_of(count):
        """y on the entry axis of count sets."""
        return Jet(order, np.concatenate((jv.y.c.reshape(-1, width),) * count))

    n, r, w_rate, b_rate, two_m, alpha = plan.at(math.prod(points))
    if plan.needs_w:
        w = scaled(w_rate, jv.y)
    g, log_g = {}, {}  # skew -> G(+-w), y^(3/2-k) at D = 0; (set, skew) -> log |G|
    y_pow = ([(plan.zero, y_of(len(plan.zero)).cpow(rows(alpha, plan.zero)))]
             if plan.zero and plan.g_skews else [])  # the same for both skews
    for skew in plan.g_skews:
        parts, ok, derivs = list(y_pow), [], []
        arg = (-1.0 * w if skew else w) if plan.nonzero else None
        for s in plan.nonzero:
            at = rows(arg, [s])
            try:
                derivs.append(G_derivatives(at, sets[s].k))
                ok.append(s)
            except ValueOverflow:
                if sets[s].k > 0.5:  # G_j for j < 0 overflows only where it diverges
                    raise
                log_g[s, skew], folded = G_log_jet(at, sets[s].k)
                parts.append(([s], folded))
        if ok:  # derivs[set][j] -> the j-th derivative over the entries of the sets ok
            ds = np.array(derivs).swapaxes(0, 1).reshape(order + 1, -1)
            parts.append((ok, rows(arg, ok).apply_derivatives(ds)))
        g[skew] = _gather(parts, n_sets)
    if log_g:
        plan = _family_plan(sets, plan.terms, frozenset(log_g))
    if plan.needs_b:
        b = scaled(b_rate, jv.y).cpow(0.5) * (r + scaled(two_m, jv.v) / y_of(n_sets))
        parts = []
        if plan.negative:
            parts.append((plan.negative, gaussian_integral_jet(1.0, rows(b, plan.negative))))
        if plan.positive:
            parts.append((plan.positive, 1j * dawson_jet(rows(b, plan.positive))))
            b_sq = b * b
        f = _gather(parts, n_sets)

    E = (2j * math.pi) * (scaled(n, jv.tau) + scaled(r, jv.z))
    exps = []
    for (two_w, bb, log), idx in plan.exps:
        expo = rows(E, idx)
        if two_w:
            expo = expo + 2.0 * rows(w, idx)
        if bb:
            expo = expo + rows(b_sq, idx)
        if log is not None:
            expo = expo + np.concatenate([log_g[s, log] for s in idx])
        exps.append(expo.exp().c.reshape((len(idx), -1, width)))
    exps = np.concatenate(exps) if len(exps) > 1 else exps[0]  # a row per (exponent, set)
    c = np.empty((n_sets, len(plan.terms)) + points + (width,), dtype=complex)
    for t, ((i, skew), pick) in enumerate(zip(plan.terms, plan.picks)):
        term = Jet(order, exps[pick].reshape(-1, width))
        if i in (2, 4):
            term = term * g[skew]
        if i in (3, 4):
            term = term * f
        c[:, t] = term.c.reshape(c[:, t].shape)
    c = c.reshape((-1,) + c.shape[2:])
    if not np.isfinite(c).all():
        first = int(np.argmin(np.isfinite(c.reshape(len(c), -1)).all(axis=1)))
        s, t = divmod(first, len(plan.terms))
        i, skew = plan.terms[t]
        _finite_sum(Jet(order, c[first]), _term_label(i, sets[s], skew))
    return Jet(order, c)


class _FamilyPlan:
    """All of a kernel family but its numbers: per set its constants
    n, r, pi D / 2m, pi / |m|, 2m, 3/2 - k (`consts`) and its kind; the
    skews of the G factors; and the exponent (2w, b^2, the skew of a log |G|
    folded where (set, skew) is in folded) of each (term, set): `exps` with
    the sets that take its exp, `picks` per term its rows among them."""

    def __init__(self, sets, terms, folded):
        if not sets:
            raise DomainError("a kernel family needs a parameter set")
        for i, _ in terms:
            if i not in (1, 2, 3, 4):
                raise DomainError("kernel label must be 1..4")
        for p in sets:  # G, the factor of c_2 and c_4 where D != 0, needs 2k odd
            for i, skew in terms:
                if i in (2, 4) and p.D and p.two_k % 2 == 0:
                    raise DomainError("%s needs k an odd multiple of 1/2 where D != 0, got k=%g"
                                      % (_term_label(i, p, skew), p.k))
        self.terms = terms
        self.consts = np.array([(p.n, p.r, math.pi * p.D / (2.0 * p.m) if p.D else 0.0,
                                 math.pi / abs(p.m), 2.0 * p.m, 1.5 - p.k) for p in sets],
                               dtype=complex).T
        self.entries = {}  # points per set -> the consts on the entry axis
        self.zero = [s for s, p in enumerate(sets) if p.D == 0]
        self.nonzero = [s for s, p in enumerate(sets) if p.D != 0]
        self.negative = [s for s, p in enumerate(sets) if p.m < 0]
        self.positive = [s for s, p in enumerate(sets) if p.m > 0]
        self.g_skews = tuple(dict.fromkeys(skew for i, skew in terms if i in (2, 4)))
        keys = [[(p.D != 0 and (i % 2 == 0) != skew, i in (3, 4) and p.m > 0,
                  skew if i in (2, 4) and (s, skew) in folded else None)
                 for s, p in enumerate(sets)] for i, skew in terms]
        # each exponent, in the order of first use, with the sets that take its exp
        self.exps = [(key, [s for s in range(len(sets)) if any(ks[s] == key for ks in keys)])
                     for key in dict.fromkeys(key for ks in keys for key in ks)]
        row = {pair: j for j, pair in enumerate((key, s) for key, idx in self.exps for s in idx)}
        picks = ([row[key, s] for s, key in enumerate(ks)] for ks in keys)
        # a term's rows as a slice where they run in order (a view), else an index array
        self.picks = [slice(p[0], p[0] + len(p)) if p == list(range(p[0], p[0] + len(p)))
                      else np.array(p) for p in picks]
        self.needs_w = bool(self.nonzero and self.g_skews) or any(key[0] for key, _ in self.exps)
        self.needs_b = any(i in (3, 4) for i, _ in terms)

    def at(self, n_points):
        """The constants on the entry axis of n_points points per set."""
        if n_points not in self.entries:
            consts = np.repeat(self.consts, n_points, axis=1)
            consts.flags.writeable = False  # shared by every call
            self.entries[n_points] = tuple(consts)
        return self.entries[n_points]


_family_plan = lru_cache(maxsize=256)(_FamilyPlan)


def _set_rows(x, idx, n_sets):
    """x, a jet or an array on the entry axis of n_sets sets, at the
    entries of the sets idx (x itself for all of them)."""
    if len(idx) == n_sets:
        return x
    if isinstance(x, Jet):
        return Jet(x.order, _set_rows(x.c, idx, n_sets))
    return x.reshape((n_sets, -1) + x.shape[1:])[idx].reshape((-1,) + x.shape[1:])


def _gather(parts, n_sets):
    """One jet on the entry axis of n_sets sets from parts (set indices,
    jet on their entries), which hold every set once."""
    if len(parts) == 1:
        return parts[0][1]
    c = np.concatenate([part.c.reshape((len(idx), -1) + part.c.shape[1:]) for idx, part in parts])
    c = c[np.argsort([s for idx, _ in parts for s in idx])]  # set by set
    return Jet(parts[0][1].order, c.reshape((-1,) + c.shape[2:]))


def kernel_jet(i, params, skew, jv):
    """Jet of the kernel term c_i q^n zeta^r (c_i^sk q^n zeta^r if skew):
    the one-term case of `kernel_family_jet`."""
    family = kernel_family_jet(params, ((i, skew),), jv)
    return Jet(family.order, family.c[0])


def kernel_term_handle(i, params, skew=False):
    """The full term c_i(n, r; y, v) q^n zeta^r with exact jets."""

    def je(jv):
        return kernel_jet(i, params, skew, jv)

    return FunctionHandle(jet_fn=je, label=_term_label(i, params, skew))


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
    # Y- = -i y d/dzbar of the c3/c4 factor is 2m (pi y/|m|)^(1/2) eps e^(-+b^2)
    # (eps = 1 for F_1, m < 0; i for i e^(b^2) D, m > 0): xi^H conjugates it and
    # divides by (|m| y)^(1/2), leaving sgn(m) 2 sqrt(pi) conj(eps) = -2 sqrt(pi)
    # eps; xi^{sk,H} (Ysk- = Y-/y, times (|m| y)^(1/2)) gives |m| times that.
    eps = 1j if m > 0 else 1.0
    a_h, a_sk_h = -2.0 * _SQRT_PI * eps, -2.0 * _SQRT_PI * eps * abs(m)
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
        ("xiSkH(c3sk)", "xiSkH", (3, True), a_sk_h, (1, False, p_xh)),
        ("xiSkH(c4sk)", "xiSkH", (4, True), a_sk_h, (2, False, p_xh)),
    ]
    return rows


# ----------------------------------------------------------------------
# recomposition from label-indexed q-series


def h_series_handle(series):
    """A rational-exponent q-series as a handle (a function of tau only)."""
    return fourier_sum_handle([(float(e), 0, c) for e, c in series], "h")


def component_at(component_jet, two_m, ls, jv, policy=None):
    """component_jet(two_m, ls, ...) on jv for a tuple of labels ls, one
    row per label, made once per computation (held in its memo)."""
    key = (component_jet, two_m, ls, policy, jv.order)
    jet = jv.held.get(key)
    if jet is None:
        jet = jv.held[key] = component_jet(two_m, ls, jv.tau, jv.z, policy)
    return jet


def _recompose_handle(component_jet, two_m, h, varphi, policy, label):
    """sum over labels of h_l(tau) component_jet(two_m, l, tau, z), plus
    varphi when given, with exact jets; h maps labels to handles or
    rational-exponent series.  The components of all of h's labels are
    one evaluation (`component_at`, keyed by the labels in h's order)."""
    hs = {
        l: (v if isinstance(v, FunctionHandle) else h_series_handle(v))
        for l, v in h.items()
    }

    def je(jv):
        out = Jet.constant(0.0, jv.order)
        if hs:
            rows = component_at(component_jet, two_m, tuple(hs), jv, policy).c
            for handle, row in zip(hs.values(), rows):
                out = out + handle.jet_at(jv) * Jet(jv.order, row)
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
    from . import mu

    for l in h:
        mu.check_component(two_m, l)
    return _recompose_handle(
        mu.mu_hat_component_jet, two_m, h, varphi, policy, "mu-recompose"
    )
