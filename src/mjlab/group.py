"""The metaplectic real Jacobi group: elements, group law, and the two
slash actions.

Elements carry an SL2 part, a branch sign for sqrt(c tau + d) relative to
the principal branch, a Heisenberg part (lambda, mu) and a central kappa.
Cocycle signs for products are resolved numerically at the reference point
tau = i rather than by a symbolic 2-cocycle table.
"""

import json
import math
from dataclasses import dataclass, replace

from .core import FunctionHandle, JetVars, WeightIndex, principal_sqrt
from .errors import DomainError

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

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "a": self.a,
                "b": self.b,
                "c": self.c,
                "d": self.d,
                "eps": self.eps,
                "lambda": self.lam,
                "mu": self.mu,
                "kappa": self.kappa,
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            a=obj.get("a", 1.0),
            b=obj.get("b", 0.0),
            c=obj.get("c", 0.0),
            d=obj.get("d", 1.0),
            eps=int(obj.get("eps", 1)),
            lam=obj.get("lambda", 0.0),
            mu=obj.get("mu", 0.0),
            kappa=obj.get("kappa", 0.0),
        )


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


@dataclass(frozen=True)
class TaggedForm:
    """A function handle together with its weight/index and action kind."""

    f: FunctionHandle
    weight_index: WeightIndex
    action_kind: str = "standard"  # standard | skew

    def __post_init__(self):
        if self.action_kind not in ("standard", "skew"):
            raise DomainError("action_kind must be standard or skew")

    def eval(self, p):
        return self.f.eval(p)


def _transformed_vars(A, jv):
    """Coordinate jets after the Jacobi group action, plus the pieces the
    automorphy factors need."""
    tau = jv.tau
    taubar = jv.taubar
    z = jv.z
    zbar = jv.zbar
    den = A.c * tau + A.d
    denbar = A.c * taubar + A.d
    zs = z + A.lam * tau + A.mu
    zsbar = zbar + A.lam * taubar + A.mu
    tau2 = (A.a * tau + A.b) / den
    taubar2 = (A.a * taubar + A.b) / denbar
    z2 = zs / den
    zbar2 = zsbar / denbar
    jv2 = JetVars.from_complex(tau2, taubar2, z2, zbar2)
    return jv2, den, denbar, zs


def _index_exponent(A, m, tau, z, zs, den):
    # e^(2 pi i m (-c (z + lam tau + mu)^2 / (c tau + d)
    #              + lam^2 tau + 2 lam z + lam mu + kappa))
    inner = (
        -A.c * zs * zs / den
        + A.lam * A.lam * tau
        + 2.0 * A.lam * z
        + (A.lam * A.mu + A.kappa)
    )
    return (2j * math.pi * m * inner).exp()


def _root_jet(A, jv):
    """Jet of the chosen branch of sqrt(c tau + d)."""
    den = A.c * jv.tau + A.d
    w0 = den.value
    root0 = A.eps * principal_sqrt(w0) if A.c != 0 else A.eps * principal_sqrt(
        complex(A.d)
    )
    # series of sqrt around w0 on the chosen sheet
    ts = [root0]
    for j in range(1, jv.order + 1):
        ts.append(ts[-1] * (1.5 - j) / (j * w0))
    return den.apply_taylor(ts)


def slash(phi, A):
    """phi |_{k,m} A for a standard-action tagged form."""
    if phi.action_kind != "standard":
        raise DomainError("slash needs a standard-action form")
    wi = phi.weight_index
    k2 = wi.two_k
    m = wi.m

    def je(jv):
        jv2, den, denbar, zs = _transformed_vars(A, jv)
        root = _root_jet(A, jv)
        weight_factor = root ** (-k2)
        index_factor = _index_exponent(A, m, jv.tau, jv.z, zs, den)
        return phi.f.jet_at(jv2) * weight_factor * index_factor

    label = "(%s)|[%g,%g]" % (phi.f.label, wi.k, wi.m)
    return TaggedForm(
        FunctionHandle(jet_fn=je, label=label), wi, "standard"
    )


def skew_slash(phi, A):
    """phi |^sk_{k,m} A for a skew-action tagged form."""
    if phi.action_kind != "skew":
        raise DomainError("skew_slash needs a skew-action form")
    wi = phi.weight_index
    k2 = wi.two_k
    m = wi.m

    def je(jv):
        jv2, den, denbar, zs = _transformed_vars(A, jv)
        root = _root_jet(A, jv)
        rootbar = root.conj()
        weight_factor = rootbar ** (2 - k2)
        abs_factor = (den * denbar).cpow(-0.5)
        index_factor = _index_exponent(A, m, jv.tau, jv.z, zs, den)
        return phi.f.jet_at(jv2) * weight_factor * abs_factor * index_factor

    label = "(%s)|sk[%g,%g]" % (phi.f.label, wi.k, wi.m)
    return TaggedForm(FunctionHandle(jet_fn=je, label=label), wi, "skew")


def apply_slash(phi, A):
    """Dispatch on the form's action kind."""
    if phi.action_kind == "skew":
        return skew_slash(phi, A)
    return slash(phi, A)
