"""The metaplectic real Jacobi group: elements, group law, and the two
slash actions.

Elements carry an SL2 part, a branch sign for sqrt(c tau + d) relative to
the principal branch, a Heisenberg part (lambda, mu) and a central kappa.
Cocycle signs for products are resolved numerically at the reference point
tau = i rather than by a symbolic 2-cocycle table.  A slash by an element
at an index takes everything it needs of the coordinates, whatever the
weight and the form, from one SlashFrame, made once per computation on
plain coordinates and held in its memo (`JetVars.held`).  Its transformed
coordinates carry the memo of the transformed base, which every frame of
the element shares, so an operand evaluated there (by an operator image,
say) is evaluated once per transformed base and order.
"""

import math
from dataclasses import dataclass, replace

from .core import FunctionHandle, JetVars, TaggedForm, principal_sqrt
from .errors import DomainError
from .jets import Jet

_REF_TAU = 1j


@dataclass(frozen=True)
class JacobiGroupElement:
    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 1.0
    eps: int = 1
    lam: float = 0.0
    mu: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c - 1.0) > 1e-12:
            raise DomainError("determinant must be 1")
        if self.eps not in (1, -1):
            raise DomainError("branch sign must be +1 or -1")

    # -- metaplectic square root -----------------------------------------

    def omega(self, tau):
        """The chosen branch of sqrt(c tau + d) at tau."""
        w = self.c * tau + self.d
        if self.c == 0:
            # constant function of tau; principal root of d
            return self.eps * principal_sqrt(complex(self.d))
        return self.eps * principal_sqrt(w)

    def act_tau(self, tau):
        return (self.a * tau + self.b) / (self.c * tau + self.d)


IDENTITY = JacobiGroupElement()
GEN_T = JacobiGroupElement(a=1.0, b=1.0, c=0.0, d=1.0)
GEN_S = JacobiGroupElement(a=0.0, b=-1.0, c=1.0, d=0.0)


def heisenberg(lam, mu, kappa=0.0):
    return JacobiGroupElement(lam=lam, mu=mu, kappa=kappa)


def group_multiply(A, B):
    """Product in the metaplectic Jacobi group.

    SL2 parts multiply; Heisenberg parts compose as X A' + X' with the
    determinant correction to kappa; the branch sign of the product is fixed
    by comparing omega_A(B tau) * omega_B(tau) at tau = i with the principal
    branch of the product element.
    """
    a = A.a * B.a + A.b * B.c
    b = A.a * B.b + A.b * B.d
    c = A.c * B.a + A.d * B.c
    d = A.c * B.b + A.d * B.d
    # X M' + X' with row vectors X = (lambda, mu)
    lam = A.lam * B.a + A.mu * B.c + B.lam
    mu = A.lam * B.b + A.mu * B.d + B.mu
    xm_lam = A.lam * B.a + A.mu * B.c
    xm_mu = A.lam * B.b + A.mu * B.d
    det_corr = xm_lam * B.mu - xm_mu * B.lam
    kappa = det_corr + A.kappa + B.kappa

    product_cocycle = A.omega(B.act_tau(_REF_TAU)) * B.omega(_REF_TAU)
    trial = JacobiGroupElement(a=a, b=b, c=c, d=d, eps=1, lam=lam, mu=mu, kappa=kappa)
    ratio = product_cocycle / trial.omega(_REF_TAU)
    if abs(ratio - 1.0) < 1e-8:
        return trial
    if abs(ratio + 1.0) < 1e-8:
        return replace(trial, eps=-1)
    raise DomainError("metaplectic cocycle resolution failed (ratio %r)" % (ratio,))


def group_word(*elements):
    out = IDENTITY
    for e in elements:
        out = group_multiply(out, e)
    return out


def group_inverse(A):
    inv = JacobiGroupElement(
        a=A.d,
        b=-A.b,
        c=-A.c,
        d=A.a,
        lam=-(A.lam * A.d - A.mu * A.c),
        mu=-(-A.lam * A.b + A.mu * A.a),
        kappa=0.0,
    )
    prod = group_multiply(A, inv)
    # fix kappa and branch so that A * inv is the identity
    inv = replace(inv, kappa=inv.kappa - prod.kappa, eps=inv.eps * prod.eps)
    return inv


def _index_exponent(A, m, tau, z, zs, inv):
    # e^(2 pi i m (-c (z + lam tau + mu)^2 / (c tau + d)
    #              + lam^2 tau + 2 lam z + lam mu + kappa))
    inner = (
        -A.c * zs * zs * inv
        + A.lam * A.lam * tau
        + 2.0 * A.lam * z
        + (A.lam * A.mu + A.kappa)
    )
    return (2j * math.pi * m * inner).exp()


@dataclass(frozen=True)
class SlashFrame:
    """What a slash by A at index m needs of the coordinates jv, whatever
    the weight and the form: the transformed coordinates, den = c tau + d
    and its conjugate, the root omega of c tau + d and the index factor."""

    jv: JetVars
    den: Jet
    denbar: Jet
    root: Jet
    index_factor: Jet


def _frame(A, m, jv, held):
    """The SlashFrame of A at index m on the coordinates jv, its transformed
    coordinates carrying the memo `held` (a fresh one if None)."""
    tau = jv.tau
    taubar = jv.taubar
    z = jv.z
    zbar = jv.zbar
    den = A.c * tau + A.d
    denbar = A.c * taubar + A.d
    inv = den.reciprocal()
    invbar = denbar.reciprocal()
    zs = z + A.lam * tau + A.mu
    zsbar = zbar + A.lam * taubar + A.mu
    tau2 = (A.a * tau + A.b) * inv
    taubar2 = (A.a * taubar + A.b) * invbar
    z2 = zs * inv
    zbar2 = zsbar * invbar
    jv2 = JetVars.from_complex(tau2, taubar2, z2, zbar2, held)
    root = A.eps * den.cpow(0.5)  # the branch omega of sqrt(c tau + d)
    return SlashFrame(jv2, den, denbar, root, _index_exponent(A, m, tau, z, zs, inv))


def _slash_frame(A, m, jv):
    """The SlashFrame of A at index m on the coordinates jv: on plain ones
    held in their memo by (A, m, order), its transformed coordinates
    carrying the memo held there by A (the A-transformed base's, whatever
    the index and the order); on transformed ones made afresh."""
    if not jv.plain:
        return _frame(A, m, jv, None)
    key = (A, m, jv.order)
    frame = jv.held.get(key)
    if frame is None:
        frame = jv.held[key] = _frame(A, m, jv, jv.held.setdefault(A, {}))
    return frame


def _slashed(phi, A, kind, weigh):
    """phi slashed by A with the action of the given kind: phi at the
    transformed coordinates, times the weight factor that
    weigh(F, root, den, denbar) applies to it, times the index factor."""
    if phi.action_kind != kind:
        raise DomainError("the %s slash needs a %s-action form" % (kind, kind))
    wi = phi.weight_index
    m = wi.m

    def je(jv):
        fr = _slash_frame(A, m, jv)
        return weigh(phi.f.jet_at(fr.jv), fr.root, fr.den, fr.denbar) * fr.index_factor

    tag = "sk" if kind == "skew" else ""
    label = "(%s)|%s[%g,%g]" % (phi.f.label, tag, wi.k, wi.m)
    return TaggedForm(FunctionHandle(jet_fn=je, label=label), wi, kind)


def slash(phi, A):
    """phi |_{k,m} A for a standard-action tagged form."""
    k2 = phi.weight_index.two_k
    return _slashed(phi, A, "standard", lambda F, root, den, denbar: F * root ** (-k2))


def skew_slash(phi, A):
    """phi |^sk_{k,m} A for a skew-action tagged form."""
    k2 = phi.weight_index.two_k

    def weigh(F, root, den, denbar):
        return F * root.conj() ** (2 - k2) * (den * denbar).cpow(-0.5)

    return _slashed(phi, A, "skew", weigh)


def apply_slash(phi, A):
    """Dispatch on the form's action kind."""
    if phi.action_kind == "skew":
        return skew_slash(phi, A)
    return slash(phi, A)
