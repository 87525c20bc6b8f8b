"""The metaplectic real Jacobi group: elements, group law, and the two
slash actions.

Elements carry an SL2 part, a branch sign for sqrt(c tau + d) relative to
the principal branch, a Heisenberg part (lambda, mu) and a central kappa.
Cocycle signs for products are resolved numerically at the reference point
tau = i rather than by a symbolic 2-cocycle table.  A slash is by one
element, or by a sequence of them, one per point of the stack it is
evaluated on, each point moved by its own element.  It takes everything it
needs of the coordinates, whatever the weight, the index and the form, from
one SlashFrame, made once per computation and jet order and held in its
memo (`JetVars.held`).  The frame holds the coordinate jets at the
transformed base point, with that point's memo, which every frame of the
element (or sequence) shares, and the shift from that base to the
transformed coordinates: a form is evaluated there once per order and its
jet composed with the shift, so a slash of a slash makes its inner frame at
the transformed base.
"""

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .core import FunctionHandle, JetVars, TaggedForm, _compose_taylor, principal_sqrt
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


def _group_inverse(A):
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


@dataclass(frozen=True)
class SlashFrame:
    """What a slash by A needs of the coordinates jv, whatever the weight,
    the index and the form: the coordinate jets at the transformed base
    point (with the memo of that point), `shift`, the transformed
    coordinates less that base, den = c tau + d and its conjugate, the root
    omega of c tau + d, and the index exponent
    -c (z + lam tau + mu)^2 / (c tau + d) + lam^2 tau + 2 lam z + lam mu + kappa,
    which the index m turns into the factor e^(2 pi i m index).  For a
    sequence A, one element per point, each point's entries are those of
    its element."""

    base: JetVars
    shift: tuple
    den: Jet
    denbar: Jet
    root: Jet
    index: Jet


# the fields of an element, in their order, read directly
_FIELDS = attrgetter(*(f.name for f in fields(JacobiGroupElement)))


def _fields(A, jv):
    """The fields (a, b, c, d, eps, lam, mu, kappa) of A: numbers for one
    element, and for a tuple of elements arrays over the point axis of jv,
    which has as many points as A has elements (DomainError otherwise)."""
    if isinstance(A, JacobiGroupElement):
        return _FIELDS(A)
    points = jv.x.c.shape[:-1]
    if points != (len(A),):
        raise DomainError("a slash by %d elements on a stack of shape %r"
                          % (len(A), points))
    return tuple(np.array([_FIELDS(e) for e in A]).T)


def _frame(A, jv):
    """The SlashFrame of A (one element, or a tuple of them, one per point
    of the stack jv) on the coordinates jv, held in their memo by
    (A, order); its base carries the memo held there by A, which every
    frame of A shares whatever the order.  A tuple acts pointwise: its
    fields are arrays over the point axis, on which the frame arithmetic
    is elementwise."""
    key = (A, jv.order)
    frame = jv.held.get(key)
    if frame is not None:
        return frame
    a, b, c, d, eps, lam, mu, kappa = _fields(A, jv)
    tau = jv.tau
    taubar = jv.taubar
    z = jv.z
    zbar = jv.zbar
    den = c * tau + d
    denbar = c * taubar + d
    inv = den.reciprocal()
    invbar = denbar.reciprocal()
    zs = z + lam * tau + mu
    zsbar = zbar + lam * taubar + mu
    tau2 = (a * tau + b) * inv
    taubar2 = (a * taubar + b) * invbar
    z2 = zs * inv
    zbar2 = zsbar * invbar
    moved = ((tau2 + taubar2) * 0.5, (tau2 - taubar2) * (-0.5j),
             (z2 + zbar2) * 0.5, (z2 - zbar2) * (-0.5j))
    base = tuple(j.value.real for j in moved)
    index = (
        -c * zs * zs * inv
        + lam * lam * tau
        + 2.0 * lam * z
        + (lam * mu + kappa)
    )
    frame = jv.held[key] = SlashFrame(
        JetVars.held_at(base, jv.order, jv.held.setdefault(A, {})),
        tuple(j - at for j, at in zip(moved, base)),
        den,
        denbar,
        eps * den.cpow(0.5),  # the branch omega of sqrt(c tau + d)
        index,
    )
    return frame


def _slashed(phi, A, kind, weigh):
    """phi slashed by A with the action of the given kind: phi's jet at the
    transformed base composed with the shift to the transformed coordinates,
    times the weight factor that weigh(F, k2, root, den, denbar) applies to
    it, times the index factor (per row for a per-row index)."""
    if phi.action_kind != kind:
        raise DomainError("the %s slash needs a %s-action form" % (kind, kind))
    wi = phi.weight_index
    if not isinstance(wi.two_k, int):
        raise DomainError("a slash needs one weight for every row, got 2k = %s" % (wi.two_k,))
    m = wi.m
    if not isinstance(A, JacobiGroupElement):
        A = tuple(A)  # the key of its frames, one element per point

    def je(jv):
        wi.check_on(jv)
        fr = _frame(A, jv)
        F = _compose_taylor(phi.f.jet_at(fr.base), fr.shift, jv.order)
        return weigh(F, wi.two_k, fr.root, fr.den, fr.denbar) * (2j * math.pi * m * fr.index).exp()

    tag = "sk" if kind == "skew" else ""
    label = "(%s)|%s[%s]" % (phi.f.label, tag, wi.label())
    return TaggedForm(FunctionHandle(jet_fn=je, label=label), wi, kind)


def slash(phi, A):
    """phi |_{k,m} A for a standard-action tagged form.  A is one
    JacobiGroupElement, or a sequence of them, one per point of the stack
    the slashed form is evaluated on (DomainError there for another
    count)."""
    return _slashed(phi, A, "standard", lambda F, k2, root, den, denbar: F * root ** (-k2))


def skew_slash(phi, A):
    """phi |^sk_{k,m} A for a skew-action tagged form; A as for slash."""

    def weigh(F, k2, root, den, denbar):
        return F * root.conj() ** (2 - k2) * (den * denbar).cpow(-0.5)

    return _slashed(phi, A, "skew", weigh)


def apply_slash(phi, A):
    """Dispatch on the form's action kind; A as for slash."""
    if phi.action_kind == "skew":
        return skew_slash(phi, A)
    return slash(phi, A)
