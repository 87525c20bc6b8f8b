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
exponentials, so it is finite wherever its value is; the terms of one
parameter set, or of a list of sets, are evaluated together as a kernel
family that forms each shared piece once.  The q-series come from `mjlab.fourier`'s theta
decomposition; `mu` is read only by the theta-like recompose, so a kernel
term's evaluation never executes it.  The annihilation and image
identities are checked in `mjlab.verify`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import FunctionHandle, WeightIndex, fourier_sum_handle
from .errors import DomainError, ValueOverflow
from .jets import Jet
from .special import (
    G_derivatives,
    G_jet,
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


def kernel_family_jet(params, terms, jv):
    """Jets of the kernel terms (i, skew) of `terms` at one parameter set,
    stacked on a new leading row axis: shape (len(terms), *points, M); or
    at a list of parameter sets, one row per (set, term), set by set:
    shape (len(sets) * len(terms), *points, M).

    Each term is exp(E) times factors free of exponentials.
    E = 2 pi i (n tau + r z), plus 2w = pi D y / m for c_2, c_4, c_1^sk and
    c_3^sk (D != 0), plus b^2 for c_3 and c_4 when m > 0, with
    b = (pi y / |m|)^(1/2) (r + 2mv/y).  The factors: G(+-w) (`G_jet`;
    y^(3/2-k) at D = 0) for c_2 and c_4; F_1(b) for m < 0, i D(b)
    (`dawson_jet`) for m > 0, for c_3 and c_4.  Where G leaves the float
    range, log |G| joins the exponent and G / |G| is the factor
    (`G_log_jet`).  The terms share these pieces: E, w, b, each factor and
    the exp of each distinct exponent are formed once, when the first term
    that needs them is.  So every row is the jet its term gives alone, bit
    for bit, and the first term that fails raises what it raises alone.

    A list of sets puts them on a leading set axis (`_sets_family_jet`):
    each piece is formed once over the sets that need it, each row is the
    row of its set alone, bit for bit, and the finite check names the first
    failing (set, term).  At one point (coordinates without a point axis)
    the sets are taken one at a time."""
    for i, _ in terms:
        if i not in (1, 2, 3, 4):
            raise DomainError("kernel label must be 1..4")
    if isinstance(params, KernelParams):
        return _one_set_family_jet(params, terms, jv)
    sets = list(params)
    if not sets:
        raise DomainError("a kernel family needs a parameter set")
    if not jv.y.batched:
        return Jet(jv.order, np.concatenate([_one_set_family_jet(p, terms, jv).c for p in sets]))
    return _sets_family_jet(sets, terms, jv)


def _one_set_family_jet(params, terms, jv):
    """`kernel_family_jet` at one parameter set."""
    k, m, D = params.k, params.m, params.D
    Y = jv.y
    E = (2j * math.pi) * (params.n * jv.tau + params.r * jv.z)
    w = (math.pi * D / (2.0 * m)) * Y if D != 0 else None
    pieces = {}

    def piece(key, make):
        if key not in pieces:
            pieces[key] = make()
        return pieces[key]

    def b():
        return piece("b", lambda: (math.pi / abs(m) * Y).cpow(0.5)
                     * (params.r + (2.0 * m) * jv.v / Y))

    def G(skew):
        """(None, G(+-w)), or where G leaves the float range (the term need
        not), log |G| at the value and the jet of G over |G| there."""
        arg = -1.0 * w if skew else w
        try:
            return None, G_jet(arg, k)
        except ValueOverflow:
            if k > 0.5:  # G_j for j < 0 overflows only where it diverges (w near 0)
                raise
            return G_log_jet(arg, k)

    def exp(two_w, bb, log_g):
        expo = E + 2.0 * w if two_w else E
        if bb:
            expo = expo + b() * b()
        if log_g is not None:
            expo = expo + log_g
        return expo.exp()

    rows = []
    for i, skew in terms:
        two_w = D != 0 and (i % 2 == 0) != skew
        bb = i in (3, 4) and m > 0
        factors = []
        log_g = None
        if i in (2, 4):
            if D == 0:  # the skew terms coincide with the standard ones
                factors.append(piece("y", lambda: Y.cpow(1.5 - k)))
            else:
                log_g, g = piece(("G", skew), lambda: G(skew))
                factors.append(g)
        if i in (3, 4):
            if m < 0:
                factors.append(piece("F", lambda: gaussian_integral_jet(1.0, b())))
            else:
                factors.append(piece("F", lambda: 1j * dawson_jet(b())))
        # an exponential or a product that overflows is a ValueOverflow, not inf or nan
        with np.errstate(over="ignore", invalid="ignore"):  # _finite_sum raises
            key = ("exp", two_w, bb) if log_g is None else ("exp", two_w, bb, skew)
            term = piece(key, lambda: exp(two_w, bb, log_g))
            for factor in factors:
                term = term * factor
        rows.append(_finite_sum(term, _term_label(i, params, skew)))
    return Jet(rows[0].order, np.stack([row.c for row in rows]))


def _sets_family_jet(sets, terms, jv):
    """`kernel_family_jet` at a list of parameter sets on a point stack.

    Per-set constants (n, r, k, m, D) go on a leading set axis.  E, w and
    b are formed once over every set; y^(3/2-k) is one power over the
    D = 0 sets (a per-set exponent), G(+-w) one batched `apply_derivatives`
    of the D != 0 sets' derivative lists (`G_derivatives`, each set's
    alone), and F_1(b), i D(b) one evaluation over the sets of their sign
    of m.  A set whose G leaves the float range takes `G_log_jet` alone.
    The exp of each distinct exponent is taken once over the sets that
    need it, and each term is one product chain over all the sets.  Every
    operation acts entry by entry, so each row is its set's alone."""
    order = jv.order
    Y = jv.y
    points = Y.c.shape[:-1]
    every = list(range(len(sets)))

    def per_set(values, idx=every):
        """Constants of the sets idx, one per set, shaped (sets, *points)."""
        values = np.reshape([values[s] for s in idx], (len(idx),) + (1,) * len(points))
        return np.broadcast_to(values, (len(idx),) + points)

    def rows(jet, idx):
        return jet if idx == every else Jet(order, jet.c[idx])

    E = (2j * math.pi) * (per_set([p.n for p in sets]) * jv.tau
                          + per_set([p.r for p in sets]) * jv.z)
    nonzero = [s for s, p in enumerate(sets) if p.D != 0]
    zero = [s for s, p in enumerate(sets) if p.D == 0]
    if nonzero:
        w = per_set([math.pi * p.D / (2.0 * p.m) if p.D else 0.0 for p in sets]) * Y
    # the factors as [(set indices, jet of their rows)]: G (y^(3/2-k) at
    # D = 0) per skew, and F
    g_parts, f_parts = {}, []
    log_g = {}  # (set, skew) -> log |G| where G leaves the float range
    if any(i in (2, 4) for i, _ in terms):
        y_pow = []
        if zero:  # the skew terms coincide with the standard ones
            alpha = per_set([1.5 - p.k for p in sets], zero)
            y_pow = [(zero, Jet(order, np.broadcast_to(Y.c, (len(zero),) + Y.c.shape))
                      .cpow(alpha))]
        for skew in dict.fromkeys(skew for i, skew in terms if i in (2, 4)):
            parts, ok, derivs = list(y_pow), [], []
            if nonzero:
                arg = -1.0 * w if skew else w
            for s in nonzero:
                at = Jet(order, arg.c[s])
                try:
                    derivs.append(G_derivatives(at, sets[s].k))
                    ok.append(s)
                except ValueOverflow:
                    if sets[s].k > 0.5:  # G_j for j < 0 overflows only where it diverges
                        raise
                    log_g[s, skew], g = G_log_jet(at, sets[s].k)
                    parts.append(([s], Jet(order, g.c[None])))
            if ok:
                ds = [np.stack([d[j] for d in derivs]) for j in range(order + 1)]
                parts.append((ok, rows(arg, ok).apply_derivatives(ds)))
            g_parts[skew] = parts
    if any(i in (3, 4) for i, _ in terms):
        b = ((per_set([math.pi / abs(p.m) for p in sets]) * Y).cpow(0.5)
             * (per_set([p.r for p in sets]) + per_set([2.0 * p.m for p in sets]) * jv.v / Y))
        negative = [s for s, p in enumerate(sets) if p.m < 0]
        positive = [s for s, p in enumerate(sets) if p.m > 0]
        if negative:
            f_parts.append((negative, gaussian_integral_jet(1.0, rows(b, negative))))
        if positive:
            f_parts.append((positive, 1j * dawson_jet(rows(b, positive))))
        if positive:
            b_sq = b * b

    def exp_key(s, i, skew):
        p = sets[s]
        log = ("log", skew) if i in (2, 4) and (s, skew) in log_g else None
        return p.D != 0 and (i % 2 == 0) != skew, i in (3, 4) and p.m > 0, log

    needs = {}  # exponent key -> the sets that take its exp, in set order
    for i, skew in terms:
        for s in every:
            needs.setdefault(exp_key(s, i, skew), {})[s] = None
    exps = {}  # exponent key -> (set indices, exp of the exponent over them)
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check raises
        for key, idx in needs.items():
            two_w, bb, log = key
            idx = sorted(idx)
            expo = rows(E, idx)
            if two_w:
                expo = expo + 2.0 * rows(w, idx)
            if bb:
                expo = expo + rows(b_sq, idx)
            if log is not None:
                expo = expo + np.stack([log_g[s, log[1]] for s in idx])
            exps[key] = idx, expo.exp()

        term_rows = []
        for i, skew in terms:
            by_key = {}
            for s in every:
                by_key.setdefault(exp_key(s, i, skew), []).append(s)
            parts = []
            for key, idx in by_key.items():
                have, jet = exps[key]
                parts.append((idx, jet if idx == have else
                              Jet(order, jet.c[[have.index(s) for s in idx]])))
            term = _gather(parts, len(sets))
            if i in (2, 4):
                term = term * _gather(g_parts[skew], len(sets))
            if i in (3, 4):
                term = term * _gather(f_parts, len(sets))
            term_rows.append(term.c)
    c = np.stack(term_rows, axis=1).reshape((-1,) + points + (term_rows[0].shape[-1],))
    finite = np.isfinite(c.reshape(len(c), -1)).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        s, t = divmod(first, len(terms))
        i, skew = terms[t]
        _finite_sum(Jet(order, c[first]), _term_label(i, sets[s], skew))
    return Jet(order, c)


def _gather(parts, n_sets):
    """One jet with a row per set from parts (set indices, jet of their
    rows), which hold every set once."""
    if len(parts) == 1 and len(parts[0][0]) == n_sets:
        return parts[0][1]
    jet = parts[0][1]
    c = np.empty((n_sets,) + jet.c.shape[1:], dtype=complex)
    for idx, part in parts:
        c[idx] = part.c
    return Jet(jet.order, c)


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


def h_series_handle(series, label="h"):
    """A rational-exponent q-series as a handle (a function of tau only)."""
    return fourier_sum_handle([(float(e), 0, c) for e, c in series], label)


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
