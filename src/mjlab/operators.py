"""Covariant differential operators as jet maps: the eight raising/lowering
operators, both Casimir operators, the Heisenberg and hyperbolic Laplace
operators, the classical weight raising/lowering operators on functions of
tau, and the four xi-operators, with the named operator table behind
`apply_operator`.

A jet map sends the jet of an operand at order n + loss to the jet of its
image at order n, both on plain coordinates; its coefficient jets in y and v
come from the plain coordinate jets at order n.  The first-order operators
are written directly as maps; the composites are compositions (`@`) and
linear combinations of them.  `image` is the one function that turns a map
and an operand handle into a handle: it evaluates the operand once, at the
image order plus the total loss, and on transformed coordinates (after a
slash) composes the plain-coordinate image jet as a Taylor polynomial.
Operands without exact jets go through the finite-difference path of
`FunctionHandle.jet_at`.  The identities these operators satisfy are
checked in `mjlab.verify`.
"""

import math
from dataclasses import dataclass

from .core import FunctionHandle, WeightIndex, _compose_taylor
from .errors import DomainError
from .group import TaggedForm
from .jets import d_tau, d_taubar, d_z, d_zbar


class JetMap:
    """A map `apply(F, jv)` from an operand jet F of order jv.order + loss to
    the image jet of order jv.order, with jv the plain coordinate jets."""

    __slots__ = ("loss", "apply")

    def __init__(self, loss, apply):
        self.loss = loss
        self.apply = apply

    def __matmul__(self, inner):
        """The composition self o inner."""
        outer, d = self.apply, self.loss
        first = inner.apply
        if d == 0:
            return JetMap(inner.loss, lambda F, jv: outer(first(F, jv), jv))
        return JetMap(d + inner.loss, lambda F, jv: outer(first(F, jv.extend(d)), jv))

    def __add__(self, other):
        a, b = self, other

        def apply(F, jv):
            n = jv.order
            return a.apply(F.truncate(n + a.loss), jv) + b.apply(F.truncate(n + b.loss), jv)

        return JetMap(max(a.loss, b.loss), apply)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, coeff):
        apply = self.apply
        return JetMap(self.loss, lambda F, jv: apply(F, jv) * coeff)


IDENTITY = JetMap(0, lambda F, jv: F)
_CONJ = JetMap(0, lambda F, jv: F.conj())


def _times(coeff):
    """Multiplication by the coefficient jet coeff(jv)."""
    return JetMap(0, lambda F, jv: coeff(jv) * F)


def _y_power(alpha):
    return _times(lambda jv: jv.y.cpow(alpha))


def image(jmap, f, label=""):
    """The handle of jmap applied to the handle f."""

    def je(jv):
        plain = jv if jv.plain else jv.at_base(jv.order)
        out = jmap.apply(f.jet_at(plain.extend(jmap.loss)), plain)
        return out if jv.plain else _compose_taylor(out, jv, plain.base)

    return FunctionHandle(jet_fn=je, label=label)


# ----------------------------------------------------------------------
# first-order raising and lowering operators


def raise_X(k, m):
    def apply(F, jv):
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return (
            2j * (d_tau(F) + (V / Y) * d_z(F) + (2j * math.pi * m) * (V * V) / (Y * Y) * Ft)
            + (k / Y) * Ft
        )

    return JetMap(1, apply)


def lower_X(k, m):
    def apply(F, jv):
        Y, V = jv.y, jv.v
        return -2j * Y * (Y * d_taubar(F) + V * d_zbar(F))

    return JetMap(1, apply)


def raise_Y(k, m):
    def apply(F, jv):
        return 1j * d_z(F) - (4.0 * math.pi * m) * (jv.v / jv.y) * F.truncate(jv.order)

    return JetMap(1, apply)


def lower_Y(k, m):
    return JetMap(1, lambda F, jv: -1j * jv.y * d_zbar(F))


def raise_X_skew(k, m):
    def apply(F, jv):
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return (
            2j * (Y * Y * d_tau(F) + Y * V * d_z(F) + (2j * math.pi * m) * V * V * Ft)
            + 0.5 * Y * Ft
        )

    return JetMap(1, apply)


def lower_X_skew(k, m):
    def apply(F, jv):
        Y, V = jv.y, jv.v
        return -2j * (d_taubar(F) + (V / Y) * d_zbar(F)) + (k - 0.5) / Y * F.truncate(jv.order)

    return JetMap(1, apply)


def raise_Y_skew(k, m):
    def apply(F, jv):
        Y, V = jv.y, jv.v
        return 1j * Y * d_z(F) - (4.0 * math.pi * m) * V * F.truncate(jv.order)

    return JetMap(1, apply)


def lower_Y_skew(k, m):
    return JetMap(1, lambda F, jv: -1j * d_zbar(F))


# ----------------------------------------------------------------------
# second- and third-order operators


def laplace_heisenberg_map(k, m):
    """Delta^H_m = Y+^{k-1,m} Y-^{k,m} (equal to the skew version)."""
    return raise_Y(k - 1, m) @ lower_Y(k, m)


def casimir_map(k, m):
    """The third-order Casimir operator of the standard action,

        2 X+ X- - inv X+ Y- Y- + inv Y+ Y+ X- + inv (k - 2) Y+ Y-

    (inv = 1 / (2 pi m), weights left implicit), grouped by the first
    lowering so that X-^{k,m} and Y-^{k,m} are each applied once."""
    inv = 1.0 / (2.0 * math.pi * m)
    after_x = 2.0 * raise_X(k - 2, m) + inv * (raise_Y(k - 1, m) @ raise_Y(k - 2, m))
    after_y = (
        (-inv) * (raise_X(k - 2, m) @ lower_Y(k - 1, m))
        + (inv * (k - 2.0)) * raise_Y(k - 1, m)
    )
    return after_x @ lower_X(k, m) + after_y @ lower_Y(k, m)


def casimir_skew_map(k, m):
    """C^sk_{k,m} = 8 pi i m (y^(1/2-k) C_{1-k,m} y^(k-1/2) + 2k - 1).

    The additive constant 2k - 1 sits inside the 8 pi i m scaling: the
    conjugated Casimir maps every skew kernel term to -(2k - 1) times
    itself, so this placement is the unique one (up to overall scale) for
    which the operator annihilates the skew kernel basis.
    """
    conjugated = _y_power(0.5 - k) @ casimir_map(1.0 - k, m) @ _y_power(k - 0.5)
    return (8j * math.pi * m) * conjugated + (8j * math.pi * m * (2.0 * k - 1.0)) * IDENTITY


def laplace_hyperbolic(k):
    """Delta_k = -4 y^2 d_tau d_taubar + 2 k i y d_taubar."""

    def apply(F, jv):
        Y = jv.y
        return -4.0 * Y * Y * d_tau(d_taubar(F)) + 2j * k * Y * d_taubar(
            F.truncate(jv.order + 1)
        )

    return JetMap(2, apply)


def classical_raise(k):
    """Weight raising operator 2 i d_tau + k / y on functions of tau."""
    return JetMap(1, lambda F, jv: 2j * d_tau(F) + (k / jv.y) * F.truncate(jv.order))


def classical_lower():
    """Weight lowering operator -2 i y^2 d_taubar on functions of tau."""
    return JetMap(1, lambda F, jv: -2j * jv.y * jv.y * d_taubar(F))


# ----------------------------------------------------------------------
# xi-operators


# Branch convention for sqrt(-my): realized as the positive real root
# sqrt(|m| y).  The principal branch (imaginary for m > 0) makes the
# compositions xi^{sk,H}_{k,-m} o xi^H_{k,m} come out as +-i times the
# Heisenberg Laplace operator; the real root is the unique unimodular
# multiple for which both composition orders equal it exactly.
XI_H_BRANCH_CONSTANT = 1.0


def _xi_H_factor(m, power):
    """Multiplication by sqrt(-my)^power exp(-4 pi m v^2/y), power = +-1."""

    def coeff(jv):
        root = (XI_H_BRANCH_CONSTANT * abs(m) * jv.y).cpow(0.5)
        if power < 0:
            root = root.cpow(-1.0)
        return root * ((-4.0 * math.pi * m) * jv.v * jv.v / jv.y).exp()

    return _times(coeff)


def xi_H_map(k, m):
    """xi^H_{k,m}(phi) = sqrt(-my)^(-1) exp(-4 pi m v^2/y) conj(Y-(phi))."""
    return _xi_H_factor(m, -1) @ _CONJ @ lower_Y(k, m)


def xi_H_skew_map(k, m):
    """xi^{sk,H}_{k,m}(phi) = sqrt(-my) exp(-4 pi m v^2/y) conj(Ysk-(phi))."""
    return _xi_H_factor(m, +1) @ _CONJ @ lower_Y_skew(k, m)


def xi_map(k, m):
    """xi_{k,m}(phi) = y^(k-5/2) (X-(phi) - (1/4 pi m) Y-Y-(phi))."""
    return _y_power(k - 2.5) @ (
        lower_X(k, m) - (1.0 / (4.0 * math.pi * m)) * (lower_Y(k - 1, m) @ lower_Y(k, m))
    )


def xi_skew_map(k, m):
    """xi^sk_{k,m}(phi) = (1/4 pi m) y^(k-1/2) L_m(phi) with the heat operator
    L_m = 8 pi i m d_tau - d_z^2 (the Xsk+/Ysk+ combination collapses to it:
    all v-dependent terms cancel)."""

    def heat(F, jv):
        return (8j * math.pi * m) * d_tau(F.truncate(jv.order + 1)) - d_z(d_z(F))

    scale = _times(lambda jv: (1.0 / (4.0 * math.pi * m)) * jv.y.cpow(k - 0.5))
    return scale @ JetMap(2, heat)


def xi_bruinier_funke(k):
    """The scalar xi_k(f) = 2 i y^k conj(d_taubar f) (external definition)."""
    return JetMap(1, lambda F, jv: 2j * jv.y.cpow(k) * d_taubar(F).conj())


# ----------------------------------------------------------------------
# the named operator table


def _shift_k(dk2):
    return lambda wi: wi.shift_k(dk2)


def _same(wi):
    return wi


def _reflect_k(wi):
    """Weight 3 - k at the same index."""
    return WeightIndex(6 - wi.two_k, wi.two_m)


# name -> (map constructor of (k, m), input kind, output kind, output weight)
_OPERATORS = {
    "X+": (raise_X, "standard", "standard", _shift_k(+4)),
    "X-": (lower_X, "standard", "standard", _shift_k(-4)),
    "Y+": (raise_Y, "standard", "standard", _shift_k(+2)),
    "Y-": (lower_Y, "standard", "standard", _shift_k(-2)),
    "Xsk+": (raise_X_skew, "skew", "skew", _shift_k(-4)),
    "Xsk-": (lower_X_skew, "skew", "skew", _shift_k(+4)),
    "Ysk+": (raise_Y_skew, "skew", "skew", _shift_k(-2)),
    "Ysk-": (lower_Y_skew, "skew", "skew", _shift_k(+2)),
    "Casimir": (casimir_map, "standard", "standard", _same),
    "CasimirSk": (casimir_skew_map, "skew", "skew", _same),
    "LaplaceH": (laplace_heisenberg_map, "standard", "standard", _same),
    "xiH": (xi_H_map, "standard", "skew", WeightIndex.negate_m),
    "xiSkH": (xi_H_skew_map, "skew", "standard", WeightIndex.negate_m),
    "xi": (xi_map, "standard", "skew", _reflect_k),
    "xiSk": (xi_skew_map, "skew", "standard", _reflect_k),
}

OPERATOR_NAMES = tuple(_OPERATORS)


@dataclass(frozen=True)
class OperatorSpec:
    name: str
    weight_index: WeightIndex

    def __post_init__(self):
        if self.name not in _OPERATORS:
            raise DomainError("unknown operator %r" % (self.name,))

    def input_kind(self):
        return _OPERATORS[self.name][1]

    def output_kind(self):
        return _OPERATORS[self.name][2]

    def output_weight(self):
        return _OPERATORS[self.name][3](self.weight_index)


def apply_operator(spec, f):
    """Apply the named operator (with outer weight spec.weight_index) to a
    FunctionHandle, returning a new handle."""
    wi = spec.weight_index
    jmap = _OPERATORS[spec.name][0](wi.k, wi.m)
    return image(jmap, f, "%s[%g,%g](%s)" % (spec.name, wi.k, wi.m, f.label))


def apply_to_tagged(name, phi):
    """Apply an operator to a TaggedForm, updating weight/index/action kind."""
    spec = OperatorSpec(name, phi.weight_index)
    if spec.input_kind() != phi.action_kind:
        raise DomainError(
            "%s expects a %s-action form" % (name, spec.input_kind())
        )
    out = apply_operator(spec, phi.f)
    return TaggedForm(out, spec.output_weight(), spec.output_kind())


# handle-level entry points for callers that take
# (WeightIndex, FunctionHandle) -> FunctionHandle


def casimir(wi, f):
    return apply_operator(OperatorSpec("Casimir", wi), f)


def xi(wi, f):
    return apply_operator(OperatorSpec("xi", wi), f)


def xi_H(wi, f):
    return apply_operator(OperatorSpec("xiH", wi), f)
