"""Covariant differential operators: the eight raising/lowering operators,
both Casimir operators, the Heisenberg and hyperbolic Laplace operators, the
classical weight raising/lowering operators on functions of tau, and the
four xi-operators, with the named operator table behind `apply_operator`.

All compositions are evaluated by chaining on exact jets when the operand
carries them; plain handles go through the finite-difference path.  The
identities these operators satisfy are checked in `mjlab.verify`.
"""

import math
from dataclasses import dataclass

from .core import FunctionHandle, JetVars, WeightIndex, _compose_taylor
from .errors import DomainError
from .group import TaggedForm
from .jets import d_tau, d_taubar, d_z, d_zbar


def make_handle(je_plain, label=""):
    """Wrap a plain-coordinate jet evaluator so the handle also works on
    transformed coordinates (after a slash) via Taylor composition."""

    def je(jv):
        if jv.plain:
            return je_plain(jv)
        base = jv.point
        tj = je_plain(JetVars.at(base, jv.order))
        return _compose_taylor(tj, jv, base)

    return FunctionHandle(jet_fn=je, label=label)


def _jet_pieces(f, jv, order_up=1):
    hi = jv.extend(order_up)
    return f.jet_at(hi)


# ----------------------------------------------------------------------
# first-order raising and lowering operators


def raise_X(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return (
            2j * (d_tau(F) + (V / Y) * d_z(F) + (2j * math.pi * m) * (V * V) / (Y * Y) * Ft)
            + (k / Y) * Ft
        )

    return make_handle(je, "X+[%g,%g](%s)" % (k, m, f.label))


def lower_X(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        Y, V = jv.y, jv.v
        return -2j * Y * (Y * d_taubar(F) + V * d_zbar(F))

    return make_handle(je, "X-[%g,%g](%s)" % (k, m, f.label))


def raise_Y(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return 1j * d_z(F) - (4.0 * math.pi * m) * (V / Y) * Ft

    return make_handle(je, "Y+[%g,%g](%s)" % (k, m, f.label))


def lower_Y(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        return -1j * jv.y * d_zbar(F)

    return make_handle(je, "Y-[%g,%g](%s)" % (k, m, f.label))


def raise_X_skew(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return (
            2j * (Y * Y * d_tau(F) + Y * V * d_z(F) + (2j * math.pi * m) * V * V * Ft)
            + 0.5 * Y * Ft
        )

    return make_handle(je, "Xsk+[%g,%g](%s)" % (k, m, f.label))


def lower_X_skew(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return -2j * (d_taubar(F) + (V / Y) * d_zbar(F)) + (k - 0.5) / Y * Ft

    return make_handle(je, "Xsk-[%g,%g](%s)" % (k, m, f.label))


def raise_Y_skew(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        Ft = F.truncate(jv.order)
        Y, V = jv.y, jv.v
        return 1j * Y * d_z(F) - (4.0 * math.pi * m) * V * Ft

    return make_handle(je, "Ysk+[%g,%g](%s)" % (k, m, f.label))


def lower_Y_skew(f, k, m):
    def je(jv):
        F = _jet_pieces(f, jv)
        return -1j * d_zbar(F)

    return make_handle(je, "Ysk-[%g,%g](%s)" % (k, m, f.label))


# ----------------------------------------------------------------------
# second- and third-order operators


def handle_lincomb(terms, label=""):
    """Sum of coeff * handle with exact jets."""

    def je(jv):
        out = None
        for coeff, h in terms:
            piece = h.jet_at(jv) * coeff
            out = piece if out is None else out + piece
        return out

    return FunctionHandle(jet_fn=je, label=label)


def multiply_by_y_power(f, alpha):
    def je(jv):
        return jv.y.cpow(alpha) * f.jet_at(jv)

    return FunctionHandle(jet_fn=je, label="y^%g*(%s)" % (alpha, f.label))


def laplace_heisenberg(wi, f):
    """Delta^H_m = Y+^{k-1,m} Y-^{k,m} (equal to the skew version)."""
    k, m = wi.k, wi.m
    return raise_Y(lower_Y(f, k, m), k - 1, m)


def casimir(wi, f):
    """The third-order Casimir operator of the standard action."""
    k, m = wi.k, wi.m
    inv = 1.0 / (2.0 * math.pi * m)
    t1 = raise_X(lower_X(f, k, m), k - 2, m)
    t2 = raise_X(lower_Y(lower_Y(f, k, m), k - 1, m), k - 2, m)
    t3 = raise_Y(raise_Y(lower_X(f, k, m), k - 2, m), k - 1, m)
    t4 = raise_Y(lower_Y(f, k, m), k - 1, m)
    return handle_lincomb(
        [(2.0, t1), (-inv, t2), (inv, t3), (inv * (k - 2.0), t4)],
        "Casimir[%g,%g](%s)" % (k, m, f.label),
    )


def casimir_skew(wi, f):
    """C^sk_{k,m} = 8 pi i m (y^(1/2-k) C_{1-k,m} y^(k-1/2) + 2k - 1).

    The additive constant 2k - 1 sits inside the 8 pi i m scaling: the
    conjugated Casimir maps every skew kernel term to -(2k - 1) times
    itself, so this placement is the unique one (up to overall scale) for
    which the operator annihilates the skew kernel basis.
    """
    k, m = wi.k, wi.m
    inner = multiply_by_y_power(f, k - 0.5)
    cas = casimir(WeightIndex.of(1.0 - k, m), inner)
    outer = multiply_by_y_power(cas, 0.5 - k)
    return handle_lincomb(
        [(8j * math.pi * m, outer), (8j * math.pi * m * (2.0 * k - 1.0), f)],
        "CasimirSk[%g,%g](%s)" % (k, m, f.label),
    )


def laplace_hyperbolic(k, f):
    """Delta_k = -4 y^2 d_tau d_taubar + 2 k i y d_taubar."""

    def je(jv):
        F = f.jet_at(jv.extend(2))
        Y = jv.y
        return -4.0 * Y * Y * d_tau(d_taubar(F)) + 2j * k * Y * d_taubar(
            F.truncate(jv.order + 1)
        )

    return make_handle(je, "Delta_%g(%s)" % (k, f.label))


def classical_raise(f, k):
    """Weight raising operator 2 i d_tau + k / y on functions of tau."""

    def je(jv):
        F = f.jet_at(jv.extend(1))
        return 2j * d_tau(F) + (k / jv.y) * F.truncate(jv.order)

    return make_handle(je, "R_%g(%s)" % (k, f.label))


def classical_lower(f):
    """Weight lowering operator -2 i y^2 d_taubar on functions of tau."""

    def je(jv):
        F = f.jet_at(jv.extend(1))
        return -2j * jv.y * jv.y * d_taubar(F)

    return make_handle(je, "L(%s)" % (f.label,))


# ----------------------------------------------------------------------
# xi-operators


# Branch convention for sqrt(-my): realized as the positive real root
# sqrt(|m| y).  The principal branch (imaginary for m > 0) makes the
# compositions xi^{sk,H}_{k,-m} o xi^H_{k,m} come out as +-i times the
# Heisenberg Laplace operator; the real root is the unique unimodular
# multiple for which both composition orders equal it exactly.
XI_H_BRANCH_CONSTANT = 1.0


def _sqrt_neg_my(m, yjet):
    return (XI_H_BRANCH_CONSTANT * abs(m) * yjet).cpow(0.5)


def xi_H(wi, f):
    """xi^H_{k,m}(phi) = sqrt(-my)^(-1) exp(-4 pi m v^2/y) conj(Y-(phi))."""
    k, m = wi.k, wi.m
    ym = lower_Y(f, k, m)

    def je(jv):
        G = ym.jet_at(jv).conj()
        Y, V = jv.y, jv.v
        pref = _sqrt_neg_my(m, Y).cpow(-1.0) * ((-4.0 * math.pi * m) * V * V / Y).exp()
        return pref * G

    return make_handle(je, "xiH[%g,%g](%s)" % (k, m, f.label))


def xi_H_skew(wi, f):
    """xi^{sk,H}_{k,m}(phi) = sqrt(-my) exp(-4 pi m v^2/y) conj(Ysk-(phi))."""
    k, m = wi.k, wi.m
    ym = lower_Y_skew(f, k, m)

    def je(jv):
        G = ym.jet_at(jv).conj()
        Y, V = jv.y, jv.v
        pref = _sqrt_neg_my(m, Y) * ((-4.0 * math.pi * m) * V * V / Y).exp()
        return pref * G

    return make_handle(je, "xiSkH[%g,%g](%s)" % (k, m, f.label))


def xi(wi, f):
    """xi_{k,m}(phi) = y^(k-5/2) (X-(phi) - (1/4 pi m) Y-Y-(phi))."""
    k, m = wi.k, wi.m
    xm = lower_X(f, k, m)
    yy = lower_Y(lower_Y(f, k, m), k - 1, m)

    def je(jv):
        out = xm.jet_at(jv) - (1.0 / (4.0 * math.pi * m)) * yy.jet_at(jv)
        return jv.y.cpow(k - 2.5) * out

    return make_handle(je, "xi[%g,%g](%s)" % (k, m, f.label))


def xi_skew(wi, f):
    """xi^sk_{k,m}(phi) = (1/4 pi m) y^(k-1/2) L_m(phi) with the heat operator
    L_m = 8 pi i m d_tau - d_z^2 (the Xsk+/Ysk+ combination collapses to it:
    all v-dependent terms cancel)."""
    k, m = wi.k, wi.m

    def je(jv):
        F = f.jet_at(jv.extend(2))
        heat = (8j * math.pi * m) * d_tau(F.truncate(jv.order + 1)) - d_z(d_z(F))
        return (1.0 / (4.0 * math.pi * m)) * jv.y.cpow(k - 0.5) * heat

    return make_handle(je, "xiSk[%g,%g](%s)" % (k, m, f.label))


def xi_bruinier_funke(k, f):
    """The scalar xi_k(f) = 2 i y^k conj(d_taubar f) (external definition)."""

    def je(jv):
        F = f.jet_at(jv.extend(1))
        return 2j * jv.y.cpow(k) * d_taubar(F).conj()

    return make_handle(je, "xiBF_%g(%s)" % (k, f.label))


# ----------------------------------------------------------------------
# the named operator table

# name -> (builder, input kind, 2k shift, flip m, output kind)
_OPERATORS = {
    "X+": (raise_X, "standard", +4, False, "standard"),
    "X-": (lower_X, "standard", -4, False, "standard"),
    "Y+": (raise_Y, "standard", +2, False, "standard"),
    "Y-": (lower_Y, "standard", -2, False, "standard"),
    "Xsk+": (raise_X_skew, "skew", -4, False, "skew"),
    "Xsk-": (lower_X_skew, "skew", +4, False, "skew"),
    "Ysk+": (raise_Y_skew, "skew", -2, False, "skew"),
    "Ysk-": (lower_Y_skew, "skew", +2, False, "skew"),
}

_COMPOSITE = {
    "Casimir": (casimir, "standard", 0, False, "standard"),
    "CasimirSk": (casimir_skew, "skew", 0, False, "skew"),
    "LaplaceH": (laplace_heisenberg, "standard", 0, False, "standard"),
    "xiH": (xi_H, "standard", 0, True, "skew"),
    "xiSkH": (xi_H_skew, "skew", 0, True, "standard"),
    "xi": (xi, "standard", None, False, "skew"),
    "xiSk": (xi_skew, "skew", None, False, "standard"),
}

OPERATOR_NAMES = tuple(_OPERATORS) + tuple(_COMPOSITE)


@dataclass(frozen=True)
class OperatorSpec:
    name: str
    weight_index: WeightIndex

    def __post_init__(self):
        if self.name not in OPERATOR_NAMES:
            raise DomainError("unknown operator %r" % (self.name,))

    def output_weight(self):
        wi = self.weight_index
        if self.name in _OPERATORS:
            _, _, dk2, flip, _ = self._row()
            return WeightIndex(wi.two_k + dk2, -wi.two_m if flip else wi.two_m)
        if self.name in ("xi", "xiSk"):
            return WeightIndex(6 - wi.two_k, wi.two_m)
        if self.name in ("xiH", "xiSkH"):
            return WeightIndex(wi.two_k, -wi.two_m)
        return wi

    def output_kind(self):
        return self._row()[4]

    def input_kind(self):
        return self._row()[1]

    def _row(self):
        return _OPERATORS.get(self.name) or _COMPOSITE[self.name]


def apply_operator(spec, f):
    """Apply the named operator (with outer weight spec.weight_index) to a
    FunctionHandle, returning a new handle."""
    wi = spec.weight_index
    if spec.name in _OPERATORS:
        return _OPERATORS[spec.name][0](f, wi.k, wi.m)
    return _COMPOSITE[spec.name][0](wi, f)


def apply_to_tagged(name, phi):
    """Apply an operator to a TaggedForm, updating weight/index/action kind."""
    spec = OperatorSpec(name, phi.weight_index)
    if spec.input_kind() != phi.action_kind:
        raise DomainError(
            "%s expects a %s-action form" % (name, spec.input_kind())
        )
    out = apply_operator(spec, phi.f)
    return TaggedForm(out, spec.output_weight(), spec.output_kind())


