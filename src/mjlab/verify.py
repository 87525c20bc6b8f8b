"""Every identity check of the catalog, as named verification suites:
operator/slash covariance, kernel annihilation and xi-image tables,
factorization identities, Weil matrix relations, the completed Appell
component laws, the decomposition round trip, and numerics hygiene.

The `verify_*` drivers check one identity family on given functions and
points and return SuiteResult records; the `suite_*` functions run them
over the shipped catalog and point sets with pinned tolerances.  The
command line front end serializes the records and the test harness asserts
on them.  All default point sets are deterministic.
"""

import cmath
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .catalog import build
from .core import (
    EvalPoint,
    FunctionHandle,
    JetVars,
    TruncationPolicy,
    WeightIndex,
    exp_qn_zeta_r,
    finite_difference_jet,
)
from .errors import DomainError, JetUnavailable
from .group import GEN_S, GEN_T, apply_slash, heisenberg, shared_slash_frames
from .jets import Jet
from .kernels import (
    KERNEL_TERMS,
    FourierData,
    KernelParams,
    kernel_family_jet,
    theta_decompose,
    theta_fourier_data,
    theta_recompose_handle,
    xi_image_rows,
)
from .mu import check_component
from .operators import (
    IDENTITY,
    OperatorSpec,
    apply_operator,
    apply_to_tagged,
    casimir_map,
    casimir_skew_map,
    classical_lower,
    classical_raise,
    image,
    laplace_heisenberg_map,
    laplace_hyperbolic,
    lower_Y,
    raise_Y,
    xi_bruinier_funke,
    xi_H_map,
    xi_H_skew_map,
    xi_map,
    xi_skew_map,
)
from .special import theta_ml_handle, theta_ml_jet
from .weil import labels, rho_generator, rho_word, root_of_unity, vector_slash

GENERIC_POINTS = (
    EvalPoint(0.13, 1.1, 0.21, 0.17),
    EvalPoint(-0.40, 0.9, 0.05, 0.31),
    EvalPoint(0.31, 1.6, -0.12, 0.23),
    EvalPoint(0.02, 0.8, 0.40, -0.27),
    EvalPoint(-0.20, 1.3, 0.33, 0.41),
)

GENERIC_POINTS_10 = GENERIC_POINTS + (
    EvalPoint(0.41, 1.0, 0.11, 0.09),
    EvalPoint(-0.17, 1.4, -0.23, 0.14),
    EvalPoint(0.23, 0.85, 0.37, 0.19),
    EvalPoint(-0.08, 1.15, 0.26, -0.18),
    EvalPoint(0.35, 1.25, -0.31, 0.27),
)

GENERATORS = {
    "T": GEN_T,
    "S": GEN_S,
    "lambda": heisenberg(1.0, 0.0),
    "mu": heisenberg(0.0, 1.0),
}


@dataclass
class SuiteResult:
    """One check: its identity, its largest residual against its tolerance
    and, for a check taken over points, the point [x, y, u, v] where the
    residual is largest (None for any other check)."""

    identity: str
    max_residual: float
    tol: float
    worst_point: list = None

    @property
    def passed(self):
        return self.max_residual < self.tol

    def as_dict(self):
        return {
            "identity": self.identity,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
            "worst_point": self.worst_point,
        }


def _abs_max(values):
    """max |value| over all entries (NaN if any entry is NaN)."""
    return float(np.max(np.abs(values)))


def _max_residual(residual, points, rows=None):
    """max over the points of |residual(jv)|, with jv the order-0 plain
    coordinate jets of the whole point stack, and the point [x, y, u, v]
    where it is reached (the first of equal maxima; the first NaN, where
    the max is NaN).  residual returns one value per point, and the result
    is one (max, point) pair; or, with `rows` given, an array of shape
    (rows, points), one row per stacked operand, and the result is a list
    of `rows` pairs, each its own row's.  (0.0, None) for no points."""
    if not len(points):
        return (0.0, None) if rows is None else [(0.0, None)] * rows
    jv = JetVars.at(points, 0)
    values = np.abs(residual(jv))
    coords = np.stack(jv.base, axis=-1)

    def pair(row):
        return float(np.max(row)), coords[int(np.argmax(row))].tolist()

    return pair(values) if rows is None else [pair(row) for row in values]


def _results(names, residuals, tol):
    """SuiteResult records of the named checks from their (max, point)
    residual pairs."""
    return [SuiteResult(name, r, tol, point) for name, (r, point) in zip(names, residuals)]


def _stacked(handles):
    """One handle over the given handles: its jet on any coordinates is
    their jets, each evaluated alone on them, stacked on a new leading row
    axis, shape (rows, *points, M).  Operators, slashes and Taylor
    composition act row-wise on it, so each row is what its handle gives
    alone, bit for bit."""

    def je(jv):
        return Jet(jv.order, np.stack([h.jet_at(jv).c for h in handles]))

    return FunctionHandle(jet_fn=je)


def _concatenated(stacks, picks=None):
    """One handle over row-stacked handles: their jets (the rows picks[j] of
    the j-th, all of its rows without picks) concatenated on the leading
    row axis."""

    def je(jv):
        jets = [h.jet_at(jv).c for h in stacks]
        if picks is not None:
            jets = [c[rows] for c, rows in zip(jets, picks)]
        return Jet(jv.order, np.concatenate(jets))

    return FunctionHandle(jet_fn=je)


def _image_check(identity, jmap, f, points, tol):
    """The check jmap(f) = 0: max over the points of |jmap(f)| and its
    point, with f evaluated once per point."""
    out = image(jmap, f)
    return _results([identity], [_max_residual(lambda jv: out.jet_at(jv).value, points)], tol)[0]


def _image_rows(op_name, wi, stack, rows, points):
    """max over the points of |op f| and its point for each of the `rows`
    rows f of a row-stacked handle: one image of the stack, with the named
    operator at weight/index wi."""
    out = apply_operator(OperatorSpec(op_name, wi), stack)
    return _max_residual(lambda jv: out.jet_at(jv).value, points, rows=rows)


def _held(f, truncate=False):
    """The handle f with its jets on plain coordinates held by jet order and
    base point stack: a repeated call returns the jet the first identical
    call made.  With truncate, a held jet also serves every lower order,
    truncated, and a call at a higher order replaces it; that is for
    handles whose lower-order jets are truncations of their higher-order
    ones bit for bit, as the kernel terms' are (a series' truncation
    radius depends on the order, so its jets are not).  Jets on transformed
    coordinates are evaluated afresh every time."""
    cache = {}

    def je(jv):
        if not jv.plain:
            return f.jet_at(jv)
        key = jv.base_key() + (() if truncate else (jv.order,))
        held = cache.get(key)
        if held is None or held.order < jv.order:
            held = cache[key] = f.jet_at(jv)
        return held.truncate(jv.order)

    return FunctionHandle(jet_fn=je, label=f.label, fd_step=f.fd_step)


# ----------------------------------------------------------------------
# covariance


def _memoized(phi):
    """The tagged form phi with the jets of its handle on plain coordinates
    held by jet order and base point stack (see _held)."""
    return replace(phi, f=_held(phi.f))


def _stacked_forms(forms):
    """Tagged forms of one weight/index and action kind as one tagged form
    over their stacked handles."""
    return replace(forms[0], f=_stacked([phi.f for phi in forms]))


def _slashed_stack(phi, gens, frame):
    """The stacked tagged form phi slashed once by each generator of gens
    (name -> element) with the frame function, the slashed stacks
    concatenated generator-major into one memoized tagged form."""
    slashed = [apply_slash(phi, A, frame).f for A in gens.values()]
    return _memoized(replace(phi, f=_concatenated(slashed)))


def _covariance_checks(op_name, forms, gens, points, tol, phi, phi_A, frame):
    """op(phi|A) = (op phi)|A' for each of the tagged forms (one
    weight/index and action kind) and each generator of gens (name ->
    element), A' acting at the shifted weight/index, in generator-major
    order; a DomainError if op does not act on the forms' action kind.

    phi stacks the forms, and phi_A stacks every phi|A in the same order as
    the checks.  Each side is one operator image: of phi_A on the left, and
    of phi, slashed once per generator with the frame function, on the
    right."""
    image = apply_to_tagged(op_name, phi)
    lhs = apply_operator(OperatorSpec(op_name, phi.weight_index), phi_A.f)
    rhs = [apply_slash(image, A, frame).f for A in gens.values()]

    def gap(jv):
        return lhs.jet_at(jv).value - np.concatenate([h.jet_at(jv).value for h in rhs])

    names = [
        "covariance:%s|%s on %s" % (op_name, gname, f.f.label) for gname in gens for f in forms
    ]
    return _results(names, _max_residual(gap, points, rows=len(gens) * len(forms)), tol)


def _generator_name(A):
    """A's key in GENERATORS, or its repr for any other element."""
    for name, gen in GENERATORS.items():
        if gen == A:
            return name
    return repr(A)


def verify_covariance(op_name, phi, A, points, tol=1e-8):
    """op(phi|A) = (op phi)|A' over the points, A' acting at the shifted
    weight/index; a DomainError if op does not act on phi's action kind."""
    gens = {_generator_name(A): A}
    frame = shared_slash_frames()
    stack = _memoized(_stacked_forms([phi]))
    return _covariance_checks(op_name, [phi], gens, points, tol, stack,
                              _slashed_stack(stack, gens, frame), frame)[0]


# the kernel parameters [k, m, n, r] of the covariance and hygiene suites
KERNEL_OPTIONS = {"k": 0.5, "m": -1, "n": -1, "r": 1}

# the covariance suite's catalog functions by name and options: three of the
# standard action, two of the skew action
COVARIANCE_FORMS = (
    ("theta_ml", {"m": 1, "l": 0}),
    ("c3", KERNEL_OPTIONS),
    ("mu_hat_ml", {"m": 1, "l": 0.0}),
    ("c1sk", KERNEL_OPTIONS),
    ("c4sk", KERNEL_OPTIONS),
)

COVARIANCE_OPS = (
    "X+", "X-", "Y+", "Y-", "Xsk+", "Xsk-", "Ysk+", "Ysk-",
    "xiH", "xiSkH", "xi", "xiSk",
)


def suite_covariance(ops=None, gens=None, points=None, tol=1e-8):
    """op(phi|A) = (op phi)|A' for every operator and group generator.

    The catalog forms are grouped by action kind and weight/index.  Per
    group, the forms are stacked into one memoized handle phi, and phi
    slashed once per generator into another, so each form and each slashed
    form is evaluated once per point stack and jet order, and every
    operator of the group's action kind is one image of each stack and one
    slash per generator (see _covariance_checks).  All slashes share one
    frame per generator, index, jet order and point stack
    (group.shared_slash_frames).  The checks come in the order operator,
    generator, catalog form."""
    points = points or GENERIC_POINTS[:3]
    gens = gens or list(GENERATORS)
    for gname in gens:
        if gname not in GENERATORS:
            raise DomainError(
                "unknown generator %r; valid generators: %s" % (gname, ", ".join(GENERATORS))
            )
    gens = {gname: GENERATORS[gname] for gname in gens}
    catalog = [build(name, **options) for name, options in COVARIANCE_FORMS]
    groups = {}
    for phi in catalog:
        groups.setdefault((phi.action_kind, phi.weight_index), []).append(phi)
    frame = shared_slash_frames()
    stacks = {}
    for key, forms in groups.items():
        phi = _memoized(_stacked_forms(forms))
        stacks[key] = (phi, _slashed_stack(phi, gens, frame))
    results = []
    for op_name in ops or COVARIANCE_OPS:
        kind = OperatorSpec(op_name, WeightIndex(1, 2)).input_kind()
        checks = {}
        for key, forms in groups.items():
            if key[0] == kind:
                rows = _covariance_checks(op_name, forms, gens, points, tol, *stacks[key], frame)
                keys = [(gname, id(f)) for gname in gens for f in forms]
                checks.update(zip(keys, rows))
        results.extend(checks[(gname, id(f))] for gname in gens for f in catalog
                       if f.action_kind == kind)
    return results


# ----------------------------------------------------------------------
# kernel annihilation and xi images

KERNEL_PARAMS = (
    KernelParams.of(0.5, 1, 0, 1),
    KernelParams.of(0.5, 1, 0, 0),
    KernelParams.of(0.5, -1, 0, 1),
    KernelParams.of(0.5, -1, 0, 0),
    KernelParams.of(1.5, 0.5, 0, 1),
    KernelParams.of(1.5, 0.5, 0, 0),
    KernelParams.of(1.5, -0.5, 0, 1),
    KernelParams.of(1.5, -0.5, 0, 0),
)

XI_TABLE_PARAMS = (
    KernelParams.of(0.5, -1, -1, 1),
    KernelParams.of(0.5, -1, 0, 0),
)


def _params_tag(params):
    return "[%g,%g,%d,%d]" % (params.k, params.m, params.n, params.r)


def _kernel_family(params):
    """The eight kernel terms at params (KERNEL_TERMS) as one held kernel
    family handle: evaluated once per point stack at the highest order
    asked for, and truncated for the lower orders."""
    f = FunctionHandle(jet_fn=lambda jv: kernel_family_jet(params, KERNEL_TERMS, jv))
    return _held(f, truncate=True)


def _by_weight_index(check, params_list, points, tol):
    """check(group, points, tol) for the parameter sets of each
    weight/index, which returns a list of checks per parameter set of its
    group; the checks of every set in the order of params_list."""
    groups = {}
    for j, params in enumerate(params_list):
        groups.setdefault(params.weight_index(), []).append(j)
    checks = {}
    for group in groups.values():
        checks.update(zip(group, check([params_list[j] for j in group], points, tol)))
    return [res for j in range(len(params_list)) for res in checks[j]]


def _kernel_annihilation(params_list, points, tol):
    """The checks of verify_kernel_annihilation for each parameter set of
    one weight/index.  Each set's terms are one kernel family, evaluated
    once at the Casimir order (the Heisenberg Laplace order is its
    truncation).  One Casimir image of every set's four standard terms, one
    skew Casimir image of their skew terms and one Heisenberg Laplace image
    of all of them."""
    wi = params_list[0].weight_index()
    families = [_kernel_family(params) for params in params_list]
    n = len(families)
    standard_terms, skew_terms = [slice(0, 4)] * n, [slice(4, 8)] * n
    # the Casimir image first: it asks for the highest order
    casimir = _image_rows("Casimir", wi, _concatenated(families, standard_terms), 4 * n, points)
    casimir_sk = _image_rows("CasimirSk", wi, _concatenated(families, skew_terms), 4 * n, points)
    laplace = _image_rows("LaplaceH", wi, _concatenated(families), 8 * n, points)
    out = []
    for j, params in enumerate(params_list):
        results = []
        rows = casimir[4 * j:4 * j + 4] + casimir_sk[4 * j:4 * j + 4]
        for (i, skew), casimir_row, laplace_row in zip(KERNEL_TERMS, rows, laplace[8 * j:]):
            at = "(c%d%s)@%s" % (i, "sk" if skew else "", _params_tag(params))
            results += _results(
                ["kernel-annihilation:Casimir" + at, "kernel-annihilation:LaplaceH" + at],
                [casimir_row, laplace_row], tol,
            )
        out.append(results)
    return out


def verify_kernel_annihilation(params, points, tol=1e-7):
    """Casimir (skew Casimir on skew terms) and Heisenberg Laplace
    annihilation of every kernel term at the given parameters: one Casimir
    image of the four standard terms, one skew Casimir image of the four
    skew terms and one Heisenberg Laplace image of all eight."""
    return _kernel_annihilation([params], points, tol)[0]


def _xi_image_tables(params_list, points, tol):
    """The checks of verify_xi_image_table for each parameter set of one
    weight/index.  Each set's terms are one kernel family; each xi operator
    is one image of its rows' terms over all the sets, and the targets are
    one order-0 kernel family per partner parameter set, of the terms the
    rows name."""
    wi = params_list[0].weight_index()
    tables = [xi_image_rows(params) for params in params_list]
    families = [_kernel_family(params) for params in params_list]
    ops = list(dict.fromkeys(row[1] for row in tables[0]))
    images = [
        apply_operator(OperatorSpec(op_name, wi), _concatenated(families, [
            [KERNEL_TERMS.index(row[2]) for row in table if row[1] == op_name]
            for table in tables
        ]))
        for op_name in ops
    ]
    # every row: (its set's index, case, constant, target (i, skew, params) or None)
    rows = [(j, row[0], row[3], row[4]) for op_name in ops
            for j, table in enumerate(tables) for row in table if row[1] == op_name]
    targets = {}  # partner params -> its target terms, in the order of first use
    for *_, target in rows:
        if target is not None:
            targets.setdefault(target[2], {})[target[:2]] = None

    def gap(jv):
        lhs = np.concatenate([img.jet_at(jv).value for img in images])
        held = {
            tparams: dict(zip(terms, kernel_family_jet(tparams, tuple(terms), jv).value))
            for tparams, terms in targets.items()
        }
        return np.stack([
            value if target is None else value - const * held[target[2]][target[:2]]
            for value, (_, _, const, target) in zip(lhs, rows)
        ])

    residuals = dict(zip(((j, case) for j, case, _, _ in rows),
                         _max_residual(gap, points, rows=len(rows))))
    return [
        _results(["xi-image:%s@%s" % (case, _params_tag(params)) for case, *_ in table],
                 [residuals[(j, case)] for case, *_ in table], tol)
        for j, (params, table) in enumerate(zip(params_list, tables))
    ]


def verify_xi_image_table(params, points, tol=1e-7):
    """The sixteen rows of kernels.xi_image_rows at the given parameters:
    xi-operator image minus the expected multiple of a kernel term."""
    return _xi_image_tables([params], points, tol)[0]


def suite_kernels(points=None, tol=1e-7):
    """Casimir and Heisenberg Laplace annihilation of all kernel terms: one
    image per operator and weight/index (see _kernel_annihilation)."""
    return _by_weight_index(_kernel_annihilation, KERNEL_PARAMS, points or GENERIC_POINTS, tol)


def suite_xi_images(params_list=None, points=None, tol=1e-7):
    """The full image table of the four xi operators on kernel terms: one
    image per operator and weight/index (see _xi_image_tables)."""
    return _by_weight_index(_xi_image_tables, params_list or XI_TABLE_PARAMS,
                            points or GENERIC_POINTS, tol)


# ----------------------------------------------------------------------
# factorizations


def verify_factorizations(wi, f, depth, points, tol=1e-6):
    """The factorization identities of the Heisenberg operators:

    (a) [Y-, Y+] = -2 pi m;
    (b) Y+^D Y-^D = prod_{d<D} (Delta^H_m + 2 pi m d), for depth D <= 3;
    (c) Delta^H_m = xi^{sk,H}_{k,-m} o xi^H_{k,m}, in both orders.
    """
    k, m = wi.k, wi.m
    D = depth
    if D > 3:
        raise JetUnavailable("depth capped at 3")
    results = []

    # (a) commutator [Y-, Y+] = Y- Y+ - Y+ Y-
    commutator = lower_Y(k + 1, m) @ raise_Y(k, m) - raise_Y(k - 1, m) @ lower_Y(k, m)
    results.append(
        _image_check("commutator:[Y-,Y+]=-2pim",
                     commutator - (-2.0 * math.pi * m) * IDENTITY, f, points, tol)
    )

    # (b) Y+^D Y-^D vs the Delta^H polynomial
    g = IDENTITY
    for d in range(D):
        g = lower_Y(k - d, m) @ g
    for d in range(D - 1, -1, -1):
        g = raise_Y(k - d - 1, m) @ g
    h = IDENTITY
    for d in range(D):
        h = laplace_heisenberg_map(k, m) @ h + (2.0 * math.pi * m * d) * h
    results.append(_image_check("quasi-factorization:Y+^%dY-^%d" % (D, D), g - h, f, points, tol))

    # (c) Heisenberg Laplace factorization through the xi^H pair
    lap = laplace_heisenberg_map(k, m)
    for name, fac in (
        ("xiSkH o xiH", xi_H_skew_map(k, -m) @ xi_H_map(k, m)),
        ("xiH o xiSkH", xi_H_map(k, -m) @ xi_H_skew_map(k, m)),
    ):
        results.append(_image_check("lapH-factorization:" + name, lap - fac, f, points, tol))
    return results


def _pochhammer_falling(n, l):
    """(n)_l = prod_{i=0}^{l-1} (n - i), with (n)_0 = 0 by convention."""
    if l == 0:
        return 0.0
    out = 1.0
    for i in range(l):
        out *= n - i
    return out


def verify_x_factorization(k, f, depth, points, tol=1e-6):
    """X+^D X-^D expressed as a polynomial in the hyperbolic Laplacian on
    functions of tau: prod_{d<D} (-Delta_k + (k - 2d)_d) with the falling
    Pochhammer symbol and (n)_0 = 0.  (The opposite-sign Laplacian is the
    convention under which the product identity holds; verified against the
    raising/lowering compositions to machine precision.)"""
    D = depth
    g = IDENTITY
    for d in range(D):
        g = classical_lower() @ g
    for d in range(D - 1, -1, -1):
        g = classical_raise(k - 2 * (d + 1)) @ g
    h = IDENTITY
    for d in range(D):
        h = (-1.0) * (laplace_hyperbolic(k) @ h) + _pochhammer_falling(k - 2 * d, d) * h
    return _image_check("quasi-factorization:X+^%dX-^%d" % (D, D), g - h, f, points, tol)


def verify_hyperbolic_xi_factorization(k, f, points, tol=1e-6):
    """Delta_k = -xi_{2-k} o xi_k with the scalar Bruinier-Funke xi."""
    fac = xi_bruinier_funke(2.0 - k) @ xi_bruinier_funke(k)
    return _image_check("lapK-factorization:-xi_{2-k} o xi_k", laplace_hyperbolic(k) + fac, f,
                        points, tol)


def verify_semimeromorphic_casimir(wi, f, points, skew=False, tol=1e-6):
    """C_{k,m}(phi) = 2 xi^sk_{3-k,m} o xi_{k,m}(phi) for semi-meromorphic phi
    (and the skew analog)."""
    k, m = wi.k, wi.m
    if skew:
        # the skew factorization holds for the unnormalized conjugated
        # Casimir: y^(1/2-k) C_{1-k,m} y^(k-1/2) phi
        #        = 2 xi_{3-k,m} o xi^sk_{k,m} (phi) - (2k-1) phi,
        # and the (2k-1) phi terms of both sides cancel
        fac = xi_map(3.0 - k, m) @ xi_skew_map(k, m)
        return _image_check(
            "semimeromorphic:CasimirSk via xi o xiSk",
            (1.0 / (8j * math.pi * m)) * casimir_skew_map(k, m) - 2.0 * fac, f, points, tol,
        )
    fac = xi_skew_map(3.0 - k, m) @ xi_map(k, m)
    return _image_check("semimeromorphic:Casimir=2 xiSk o xi", casimir_map(k, m) - 2.0 * fac, f,
                        points, tol)


def _yv_test_handle(n, r):
    """exp(2 pi i (n tau + r z)) y v, a smooth non-holomorphic probe."""
    phase = exp_qn_zeta_r(n, r)

    def je(jv):
        return phase.jet_at(jv) * jv.y * jv.v

    return FunctionHandle(jet_fn=je, label="q^%d zeta^%d y v" % (n, r))


def _tau_test_handle():
    """exp(2 pi i tau) + y^(3/2), a smooth function of tau alone."""

    def je(jv):
        return (2j * math.pi * jv.tau).exp() + jv.y.cpow(1.5)

    return FunctionHandle(jet_fn=je, label="q + y^1.5")


def suite_factorizations(points=None, tol=1e-6):
    points = points or GENERIC_POINTS[:3]
    results = []
    wi = WeightIndex(1, 2)
    probe = _yv_test_handle(1, 1)
    for depth in (1, 2, 3):
        results.extend(verify_factorizations(wi, probe, depth, points, tol))
    wi_half = WeightIndex(3, 1)
    theta_half = theta_ml_handle(1, 0.5)
    results.extend(verify_factorizations(wi_half, theta_half, 2, points, tol))
    tau_probe = _tau_test_handle()
    for depth in (1, 2):
        results.append(verify_x_factorization(2.5, tau_probe, depth, points, tol))
    results.append(verify_hyperbolic_xi_factorization(1.5, tau_probe, points, tol))
    for wi_c, n, r in ((WeightIndex(1, 2), 1, 1), (WeightIndex(3, 2), 0, 1)):
        mero = exp_qn_zeta_r(n, r)
        for skew in (False, True):
            results.append(
                verify_semimeromorphic_casimir(wi_c, mero, points, skew=skew, tol=tol)
            )
    return results


# ----------------------------------------------------------------------
# Weil matrices


def suite_weil(two_m_list=(1, 2, 3, 4), point=None, tol_unitary=1e-13,
               tol_braid=1e-12, tol_theta=1e-8):
    # every rank's generator images first: rho_generator rejects a bad 2m
    # before any row is computed
    gens = [(two_m, {w: rho_generator(two_m, w) for w in "TS"}) for two_m in two_m_list]
    results = []
    for two_m, mats in gens:
        eye = np.eye(two_m)
        for which, mat in mats.items():
            results.append(
                SuiteResult(
                    "weil:unitarity:%s@2m=%d" % (which, two_m),
                    _abs_max(mat @ mat.conj().T - eye),
                    tol_unitary,
                )
            )
        results.append(
            SuiteResult(
                "weil:braid:(ST)^3=S^2@2m=%d" % two_m,
                _abs_max(rho_word(two_m, "STSTST") - rho_word(two_m, "SS")),
                tol_braid,
            )
        )
        results.append(
            SuiteResult(
                "weil:S^8=1@2m=%d" % two_m, _abs_max(rho_word(two_m, "S" * 8) - eye), tol_braid
            )
        )
    p = point or EvalPoint(0.17, 1.2, 0.13, 0.21)
    for two_m in two_m_list:
        if two_m % 2:
            continue
        comps = [theta_ml_handle(two_m, l) for l in labels(two_m)]
        base = np.array([h.eval(p) for h in comps])
        for word in ("T", "S"):
            out = vector_slash(comps, 1, two_m, word, p, dual=True)
            results.append(
                SuiteResult(
                    "weil:theta-vector-invariance:%s@2m=%d" % (word, two_m),
                    _abs_max(out - base),
                    tol_theta,
                )
            )
    return results


# ----------------------------------------------------------------------
# the completed Appell component family


def _components(two_m):
    """The completed components of rank 2m as one stacked tagged form."""
    return _stacked_forms([build("mu_hat_ml", m=two_m / 2, l=l) for l in labels(two_m)])


def suite_mu_transform(two_m_list=(1, 2), points=None, tol=1e-6):
    """The claimed T and S transformation laws of the component vector, and
    the vector-slash form of the S law.  The components of each rank are
    one stacked handle, slashed once by T and once by S.

    The T law holds; the S law of the displayed completion fails (the
    recorded obstruction) and is reported faithfully.
    """
    for two_m in two_m_list:
        check_component(two_m)
    points = points or GENERIC_POINTS[:5]
    results = []
    for two_m in two_m_list:
        ls = labels(two_m)
        tagged = _components(two_m)
        pref = 1j / cmath.sqrt(1j * two_m)

        def gaps(jv):
            """The T-law and S-law gaps of every component, in label order."""
            values = tagged.f.jet_at(jv).value
            slashed_T = apply_slash(tagged, GEN_T).f.jet_at(jv).value
            slashed_S = apply_slash(tagged, GEN_S).f.jet_at(jv).value
            rows = []
            for j, l in enumerate(ls):
                phase = root_of_unity(-l * l, 2 * two_m)
                mixed = sum(root_of_unity(l * lp, two_m) * values[jp] for jp, lp in enumerate(ls))
                rows += [slashed_T[j] - phase * values[j], slashed_S[j] - pref * mixed]
            return np.stack(rows)

        names = [
            "mu-transform:%s-law@2m=%d,l=%s" % (law, two_m, l) for l in ls for law in "TS"
        ]
        results += _results(names, _max_residual(gaps, points, rows=len(names)), tol)
    # the same S law phrased as a matrix acting on the component vector
    # (index m = 1): slash every component, compare against M h with
    # M = (i / sqrt(2im)) [e_{2m}(l l')]
    two_m = 2
    ls = labels(two_m)
    tagged = _components(two_m)
    p = points[0]
    slashed = apply_slash(tagged, GEN_S).f.eval(p)
    M = (1j / cmath.sqrt(2j * two_m / 2.0)) * np.array(
        [[root_of_unity(l * lp, two_m) for lp in ls] for l in ls]
    )
    base = tagged.f.eval(p)
    results.append(
        SuiteResult(
            "mu-transform:vector-S-law@2m=%d" % two_m,
            float(np.max(np.abs(slashed - M @ base))),
            tol,
        )
    )
    return results


def suite_mu_xi_theta(two_m_list=(1, 2), points=None, tol_xi=1e-7,
                      tol_lap=1e-7, tol_mu2=1e-6):
    """xi^H maps each completed component onto the matching theta
    component; the Heisenberg Laplace operator annihilates the components;
    the covariant xi operator annihilates the distinguished weight-1/2
    combination.  The components of each rank are one stacked operand of
    one xi^H image and one Heisenberg Laplace image."""
    points = points or GENERIC_POINTS_10
    results = []
    for two_m in two_m_list:
        ls = labels(two_m)
        stack = _components(two_m)
        wi = stack.weight_index
        img = apply_operator(OperatorSpec("xiH", wi), stack.f)

        def gap(jv):
            thetas = [theta_ml_jet(two_m, l, jv.tau, jv.z).value for l in ls]
            return img.jet_at(jv).value - np.stack(thetas)

        xi_rows = _max_residual(gap, points, rows=len(ls))
        lap_rows = _image_rows("LaplaceH", wi, stack.f, len(ls), points[:5])
        for l, xi_row, lap_row in zip(ls, xi_rows, lap_rows):
            results += _results(["mu-xi-theta:xiH(mu_hat)=theta@2m=%d,l=%s" % (two_m, l)],
                                [xi_row], tol_xi)
            results += _results(["mu-xi-theta:lapH(mu_hat)=0@2m=%d,l=%s" % (two_m, l)],
                                [lap_row], tol_lap)
    mu_hat_2 = build("mu_hat_2")
    wi = mu_hat_2.weight_index
    results.append(_image_check("mu-xi-theta:xi(mu_hat_2)=0", xi_map(wi.k, wi.m), mu_hat_2.f,
                                points[:5], tol_mu2))
    return results


# ----------------------------------------------------------------------
# decomposition round trip


def _synthetic_class_data(two_m, seed, r_range=8):
    rng = random.Random(seed)
    classes = {}
    for l in range(two_m):
        for D in range(-2 * two_m, 4 * two_m + 1):
            if rng.random() < 0.6:
                continue
            classes[(D, l)] = complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
    coeffs = {}
    seen = set()
    for (D, l), c in classes.items():
        for r in range(-r_range, r_range + 1):
            if r % two_m != l:
                continue
            num = D + r * r
            if num % (2 * two_m):
                continue
            coeffs[(num // (2 * two_m), r)] = c
            seen.add((D, l))
    classes = {key: classes[key] for key in seen}
    return FourierData(two_m, coeffs, holomorphic=True), classes


def suite_decomposition_roundtrip(seed=0, points=None, tol=1e-9):
    points = points or [
        EvalPoint(0.1 * i - 0.3, 1.2 + 0.05 * i, 0.07 * i - 0.2, 0.03 * i)
        for i in range(10)
    ]
    results = []
    for two_m in (2, 3):
        data, classes = _synthetic_class_data(two_m, seed + two_m)
        h = theta_decompose(data)

        def gap(jv):
            """Recomposed minus directly summed data."""
            tau = jv.tau.value
            v1 = theta_recompose_handle(two_m, h).jet_at(jv).value
            v2 = 0j
            for (D, l), c in classes.items():
                v2 += c * np.exp(
                    2j * math.pi * (D / (2.0 * two_m)) * tau
                ) * theta_ml_jet(two_m, l, jv.tau, jv.z).value
            return v1 - v2

        results += _results(["decomposition:roundtrip@2m=%d" % two_m],
                            [_max_residual(gap, points)], tol)
    h = theta_decompose(theta_fourier_data(2, 0))
    delta_ok = (
        h[0] == [(0, 1.0)] or (len(h[0]) == 1 and h[0][0][0] == 0
                               and abs(h[0][0][1] - 1.0) < 1e-15)
    ) and h[1] == []
    results.append(
        SuiteResult(
            "decomposition:delta-input-theta", 0.0 if delta_ok else 1.0, tol
        )
    )
    return results


# ----------------------------------------------------------------------
# numerics hygiene


# hygiene's radius-doubling values: name -> catalog name, options and the z
# of every point (None: the point's own z)
HYGIENE_VALUES = {
    "theta": ("theta", {}, None),
    "theta_ml[2,0]": ("theta_ml", {"m": 1, "l": 0}, None),
    "theta_ml[1,0.5]": ("theta_ml", {"m": 0.5, "l": 0.5}, None),
    "R": ("R", {}, None),
    "mu_m[2]": ("mu", {"m": 1, "z2": 0.17 - 0.23j}, 0.31 + 0.55j),
    "mu_hat[2,0]": ("mu_hat_ml", {"m": 1, "l": 0.0}, None),
    "mu_hat[1,0.5]": ("mu_hat_ml", {"m": 0.5, "l": 0.5}, None),
    "mu_hat_2": ("mu_hat_2", {}, None),
}


def _hygiene_values(points, policy):
    """HYGIENE_VALUES at a point stack under a policy: an array per name."""
    values = {}
    for name, (fn, options, z) in HYGIENE_VALUES.items():
        at = points if z is None else [EvalPoint.from_tau_z(p.tau, z) for p in points]
        values[name] = build(fn, policy, **options).jet_at(JetVars.at(at, 0)).value
    return values


def suite_hygiene(points=None, tol_trunc=1e-10, tol_fd=1e-6):
    """Truncation stability under radius doubling and finite-difference
    versus exact-jet agreement."""
    points = points or [EvalPoint(0.13, 1.1, 0.21, 0.17), EvalPoint(-0.3, 1.5, 0.11, 0.08)]
    results = []
    # squaring the tail target twice roughly doubles every Gaussian radius
    v1 = _hygiene_values(points, TruncationPolicy(tail_bound=1e-14))
    v2 = _hygiene_values(points, TruncationPolicy(tail_bound=1e-56))
    for i, p in enumerate(points):
        for name in v1:
            results.append(
                SuiteResult(
                    "hygiene:radius-doubling:%s@y=%g" % (name, p.y),
                    float(abs(v1[name][i] - v2[name][i])),
                    tol_trunc,
                )
            )
    # finite differences against exact jets, relative, order <= 2
    for fn, options in (("theta_ml", {"m": 1, "l": 0}), ("c1sk", KERNEL_OPTIONS)):
        h = build(fn, **options).f
        for p in points:
            exact = h.jet_at(JetVars.at(p, 2)).table()
            approx = finite_difference_jet(h, p, 2).table()
            scale = max(abs(v) for v in exact.values())
            resid = _abs_max([exact[k] - approx[k] for k in exact]) / scale
            results.append(
                SuiteResult(
                    "hygiene:fd-vs-exact:%s@y=%g" % (h.label, p.y), resid, tol_fd
                )
            )
    return results


SUITES = {
    "covariance": suite_covariance,
    "kernels": suite_kernels,
    "xi-images": suite_xi_images,
    "factorizations": suite_factorizations,
    "weil": suite_weil,
    "mu-transform": suite_mu_transform,
    "mu-xi-theta": suite_mu_xi_theta,
    "decomposition-roundtrip": suite_decomposition_roundtrip,
    "hygiene": suite_hygiene,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](**kwargs)
