"""Every identity check of the catalog, as named verification suites:
operator/slash covariance, kernel annihilation and xi-image tables,
factorization identities, Weil matrix relations, the completed Appell
component laws, the decomposition round trip, and numerics hygiene.

Each identity family has one `verify_*` driver, which checks it on given
functions, parameter sets and points and returns SuiteResult records; the
covariance, kernel and xi-image drivers take lists and stack them into one
row stack per action kind, each row at its own weight/index, with one
image per operator; `verify_identities` takes operator identities, such as
the factorization table, as (name, jet map, probe) checks.  Each `suite_*`
function is its drivers called at the shipped catalog, parameters and
point sets with pinned tolerances.  Every check taken over points is
reduced by `_rows`, which names the point of its largest residual.  The
command line front end serializes the records and the test harness asserts
on them.  All default point sets are deterministic.  A driver takes a
sequence of points or their order-0 coordinate jets; a suite evaluates all
of its checks on one `JetVars.at(points, 0)`, so they share each jet,
operator coefficient and slash frame through that computation's memo.  A
vector-valued form (the theta or completed components of one rank) is one
evaluation at all its labels.  Covariance puts its
generators on the point axis instead: its checks share one computation at
the points tiled once per generator, slashed by one element per point.
"""

import math
import random
from dataclasses import dataclass

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
from .group import GEN_S, GEN_T, TaggedForm, apply_slash, heisenberg
from .jets import Jet, monomials
from .fourier import FourierData, theta_decompose, theta_fourier_data
from .kernels import (
    KERNEL_TERMS,
    KernelParams,
    component_at,
    kernel_family_jet,
    theta_recompose_handle,
    xi_image_rows,
)
from .mu import check_component
from .operators import (
    IDENTITY,
    apply_operator,
    casimir_map,
    casimir_skew_map,
    classical_lower,
    classical_raise,
    image,
    input_kind,
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
from .weil import labels, rho_generator, rho_word, vector_law

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


def _at(points):
    """The order-0 plain coordinate jets of a check's points: a computation
    of their own for a sequence of EvalPoints, or the coordinates given."""
    return points if isinstance(points, JetVars) else JetVars.at(points, 0)


def _stack(points):
    """The points of a per-row driver as a stack: a lone EvalPoint as a
    stack of one, since a row stack's per-row weight/index needs one."""
    return [points] if isinstance(points, EvalPoint) else points


def _rows(names, gap, points, tol):
    """SuiteResult records of the named checks taken over points.  gap(jv),
    with jv the order-0 plain coordinate jets of the points (`_at`), gives
    one residual row per name over the points (at a point alone, one value
    per name).  Each record holds the max |residual| of its row and the
    point [x, y, u, v] where it is reached: the first of equal maxima, or
    the first NaN where the max is NaN.  0.0 and no point for no points."""
    jv = _at(points)
    coords = np.stack(jv.base, axis=-1).reshape(-1, 4)
    if not len(coords):
        return [SuiteResult(name, 0.0, tol) for name in names]
    values = np.abs(gap(jv)).reshape(len(names), -1)
    # argmax meets the first NaN, where max is NaN, and else the first maximum
    at = np.argmax(values, axis=1)
    coords = coords.tolist()
    return [SuiteResult(name, value, tol, list(coords[i]))
            for name, value, i in zip(names, values[np.arange(len(names)), at].tolist(),
                                      at.tolist())]


def _stacked(handles, picks=None, reach=0):
    """One handle over the given handles, whose jet on any coordinates is
    theirs, each evaluated alone on them, on a leading row axis, shape
    (rows, *points, M): each handle's jet as one row, or with picks, the
    rows picks[j] of the j-th (itself row-stacked) concatenated.  Operators,
    slashes and Taylor composition act row-wise on it, so each row is what
    its handle gives alone, bit for bit.  With a reach, each handle is
    evaluated at order max(order, reach) on the same base and truncated."""

    def je(jv):
        at = jv.at_base(reach) if reach > jv.order else jv
        jets = [h.jet_at(at).truncate(jv.order).c for h in handles]
        if picks is None:
            return Jet(jv.order, np.stack(jets))
        return Jet(jv.order, np.concatenate([c[rows] for c, rows in zip(jets, picks)]))

    return FunctionHandle(jet_fn=je)


# ----------------------------------------------------------------------
# covariance


def verify_covariance(ops, forms, gens, points, tol=1e-8):
    """op(phi|A) = (op phi)|A' for each operator of ops, each generator A of
    gens (name -> element) and each tagged form phi of forms on which the
    operator acts, A' acting at the shifted weight/index, in the order
    operator, generator, form.

    The generators go on the point axis: every check is taken on one
    computation at the points tiled once per generator, where a slash takes
    one element per point, each tile's generator.  The forms of one action
    kind are stacked into one handle phi (a weight/index per row), and phi
    slashed once into another, phi_A, both shared by every operator.  Each
    operator is one image of phi_A on the left, and one image of phi,
    slashed once, on the right.  Each form stack is evaluated once, at the
    generator images of the points, at order COVARIANCE_REACH, and both
    sides compose or truncate that jet.  Each row is reduced over the
    points of its generator's tile."""
    jv = _at(points)
    base = np.asarray(jv.base, dtype=float).reshape(4, -1)
    tiled = JetVars.held_at(np.tile(base, (1, len(gens))), 0, {})
    elements = [A for A in gens.values() for _ in range(base.shape[1])]
    stacks = {}  # action kind -> (phi, phi_A)
    results = []
    for op_name in ops:
        kind = input_kind(op_name)
        group = [phi for phi in forms if phi.action_kind == kind]
        if not group:
            continue
        if kind not in stacks:
            phi = TaggedForm(_stacked([f.f for f in group], reach=COVARIANCE_REACH),
                             WeightIndex.of_rows([f.weight_index for f in group]), kind)
            stacks[kind] = phi, apply_slash(phi, elements)
        phi, phi_A = stacks[kind]
        lhs = apply_operator(op_name, phi_A).f
        rhs = apply_slash(apply_operator(op_name, phi), elements).f

        def gap(_):
            # (form, generator, point) -> (generator, form) rows over the points
            rows = lhs.jet_at(tiled).value - rhs.jet_at(tiled).value
            return rows.reshape(len(group), len(gens), -1).swapaxes(0, 1)

        names = [
            "covariance:%s|%s on %s" % (op_name, gname, f.f.label) for gname in gens for f in group
        ]
        results += _rows(names, gap, jv, tol)
    return results


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

# the largest jet-order loss among COVARIANCE_OPS (xi and xiSk): the order
# the covariance forms are evaluated at, whichever operators a call checks
COVARIANCE_REACH = 2


def suite_covariance(ops=None, gens=None, points=None, tol=1e-8):
    """verify_covariance on the catalog forms COVARIANCE_FORMS, for every
    operator and group generator unless restricted to the named ones."""
    gens = gens or list(GENERATORS)
    for gname in gens:
        if gname not in GENERATORS:
            raise DomainError(
                "unknown generator %r; valid generators: %s" % (gname, ", ".join(GENERATORS))
            )
    forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
    return verify_covariance(ops or COVARIANCE_OPS, forms,
                             {gname: GENERATORS[gname] for gname in gens},
                             points or GENERIC_POINTS[:3], tol)


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


def _kernel_family(params):
    """The eight kernel terms (KERNEL_TERMS) at params, one parameter set
    or a list of them (one row per set and term, set by set), as one
    handle, whose jets truncate bit for bit."""
    return FunctionHandle(jet_fn=lambda jv: kernel_family_jet(params, KERNEL_TERMS, jv))


def _family_rows(terms):
    """The rows of a list family (`_kernel_family`) holding, set by set,
    the terms of the given KERNEL_TERMS positions of each set: terms[j]
    those of the j-th set."""
    return [j * len(KERNEL_TERMS) + t for j, picks in enumerate(terms) for t in picks]


def verify_kernel_annihilation(params_list, points, tol=1e-7):
    """Casimir (skew Casimir on skew terms) and Heisenberg Laplace
    annihilation of every kernel term at each parameter set, in the order
    of params_list.

    The terms of all the sets are one kernel family over the list of sets
    (`kernel_family_jet`), evaluated once at the Casimir order 3 (the
    Heisenberg Laplace order is its truncation).  One image per operator,
    each row at its set's weight/index: the Casimir image of every set's
    four standard terms, the skew Casimir image of their skew terms and the
    Heisenberg Laplace image of all of them, each picking its rows of the
    one family."""
    if not params_list:
        return []
    family = _kernel_family(list(params_list))

    def image_of(op_name, terms):
        # the Heisenberg Laplacian equals its skew version, so it takes
        # the skew kernel terms as they are
        picks = _family_rows([range(len(KERNEL_TERMS))[terms]] * len(params_list))
        wi = WeightIndex.of_rows([p for p in params_list for _ in KERNEL_TERMS[terms]])
        stack = TaggedForm(_stacked([family], [picks], reach=3), wi, input_kind(op_name))
        return apply_operator(op_name, stack).f

    casimir = image_of("Casimir", slice(0, 4)), image_of("CasimirSk", slice(4, 8))
    laplace = image_of("LaplaceH", slice(0, 8))

    def gap(jv):
        # per set and term, its (skew) Casimir row, then its LaplaceH row
        cas = np.concatenate([img.jet_at(jv).value.reshape(len(params_list), 4, -1)
                              for img in casimir], 1)
        return np.stack([cas, laplace.jet_at(jv).value.reshape(cas.shape)], 2)

    names = ["kernel-annihilation:%s(c%d%s)@%s" % (identity, i, "sk" if skew else "", params.tag())
             for params in params_list for i, skew in KERNEL_TERMS
             for identity in ("Casimir", "LaplaceH")]
    return _rows(names, gap, _stack(points), tol)


def verify_xi_image_table(params_list, points, tol=1e-7):
    """The sixteen rows of kernels.xi_image_rows at each parameter set, in
    the order of params_list: xi-operator image minus the expected multiple
    of a kernel term.

    The terms of all the sets are one kernel family over the list of sets,
    evaluated once at order 2 (the largest xi loss); each xi operator is
    one image of its rows' terms over all the sets, each row at its set's
    weight/index, and the targets are one order-0 kernel family per partner
    parameter set, of only the terms the rows name (a term no row names
    may fail where the named ones do not)."""
    if not params_list:
        return []
    tables = [xi_image_rows(params) for params in params_list]
    family = _kernel_family(list(params_list))
    images = {}  # operator -> its image, its rows in the order of the tables
    for op_name in dict.fromkeys(row[1] for table in tables for row in table):
        terms = [[KERNEL_TERMS.index(row[2]) for row in table if row[1] == op_name]
                 for table in tables]
        wi = WeightIndex.of_rows([p for p, picks in zip(params_list, terms) for _ in picks])
        stack = TaggedForm(_stacked([family], [_family_rows(terms)], reach=2), wi,
                           input_kind(op_name))
        images[op_name] = apply_operator(op_name, stack).f
    targets = {}  # partner params -> its target terms, in the order of first use
    for *_, target in (row for table in tables for row in table):
        if target is not None:
            targets.setdefault(target[2], {})[target[:2]] = None

    def gap(jv):
        lhs = {op_name: iter(img.jet_at(jv).value) for op_name, img in images.items()}
        held = {
            tparams: dict(zip(terms, kernel_family_jet(tparams, tuple(terms), jv).value))
            for tparams, terms in targets.items()
        }
        return np.stack([
            next(lhs[op_name]) if target is None
            else next(lhs[op_name]) - const * held[target[2]][target[:2]]
            for table in tables for _, op_name, _, const, target in table
        ])

    names = ["xi-image:%s@%s" % (row[0], params.tag())
             for params, table in zip(params_list, tables) for row in table]
    return _rows(names, gap, _stack(points), tol)


def suite_kernels(points=None, tol=1e-7):
    """verify_kernel_annihilation at KERNEL_PARAMS."""
    return verify_kernel_annihilation(KERNEL_PARAMS, points or GENERIC_POINTS, tol)


def suite_xi_images(params_list=None, points=None, tol=1e-7):
    """verify_xi_image_table at XI_TABLE_PARAMS unless given parameter
    sets."""
    return verify_xi_image_table(params_list or XI_TABLE_PARAMS, points or GENERIC_POINTS, tol)


# ----------------------------------------------------------------------
# operator identities


def verify_identities(checks, points, tol=1e-6):
    """The checks jmap(f) = 0 over the points, one (name, jet map, probe
    handle) each: one image per check, all reduced on one computation, so
    the checks of one probe share its jets."""
    images = [image(jmap, f) for _, jmap, f in checks]
    return _rows([name for name, _, _ in checks],
                 lambda jv: np.stack([img.jet_at(jv).value for img in images]), points, tol)


def heisenberg_factorizations(k, m, depths):
    """(name, map) of the factorization identities of the Heisenberg
    operators at weight k and index m:

    [Y-, Y+] = -2 pi m;
    Y+^D Y-^D = prod_{d<D} (Delta^H_m + 2 pi m d), for each depth D <= 3;
    Delta^H_m = xi^{sk,H}_{k,-m} o xi^H_{k,m}, in both orders.
    """
    if max(depths) > 3:
        raise JetUnavailable("depth capped at 3")
    # [Y-, Y+] = Y- Y+ - Y+ Y-
    commutator = lower_Y(k + 1, m) @ raise_Y(k, m) - raise_Y(k - 1, m) @ lower_Y(k, m)
    out = [("commutator:[Y-,Y+]=-2pim", commutator - (-2.0 * math.pi * m) * IDENTITY)]
    for D in depths:
        g = IDENTITY
        for d in range(D):
            g = lower_Y(k - d, m) @ g
        for d in range(D - 1, -1, -1):
            g = raise_Y(k - d - 1, m) @ g
        h = IDENTITY
        for d in range(D):
            h = (laplace_heisenberg_map(k, m) + (2.0 * math.pi * m * d) * IDENTITY) @ h
        out.append(("quasi-factorization:Y+^%dY-^%d" % (D, D), g - h))
    lap = laplace_heisenberg_map(k, m)
    return out + [
        ("lapH-factorization:xiSkH o xiH", lap - xi_H_skew_map(k, -m) @ xi_H_map(k, m)),
        ("lapH-factorization:xiH o xiSkH", lap - xi_H_map(k, -m) @ xi_H_skew_map(k, m)),
    ]


def x_factorizations(k, depths):
    """(name, map) of X+^D X-^D, for each depth D, expressed as a polynomial
    in the hyperbolic Laplacian on functions of tau:
    prod_{d<D} (-Delta_k + (k - 2d)_d) with the falling Pochhammer symbol
    (n)_l = n (n - 1) ... (n - l + 1) and (n)_0 = 0.  (The opposite-sign
    Laplacian is the convention under which the product identity holds;
    verified against the raising/lowering compositions to machine
    precision.)"""
    out = []
    for D in depths:
        g = IDENTITY
        for d in range(D):
            g = classical_lower() @ g
        for d in range(D - 1, -1, -1):
            g = classical_raise(k - 2 * (d + 1)) @ g
        h = IDENTITY
        for d in range(D):
            falling = math.prod((k - 2 * d - i for i in range(d)), start=1.0) if d else 0.0
            h = ((-1.0) * laplace_hyperbolic(k) + falling * IDENTITY) @ h
        out.append(("quasi-factorization:X+^%dX-^%d" % (D, D), g - h))
    return out


def lapK_factorization(k):
    """(name, map) of Delta_k = -xi_{2-k} o xi_k with the scalar
    Bruinier-Funke xi."""
    fac = xi_bruinier_funke(2.0 - k) @ xi_bruinier_funke(k)
    return [("lapK-factorization:-xi_{2-k} o xi_k", laplace_hyperbolic(k) + fac)]


def semimeromorphic_factorizations(k, m):
    """(name, map) of C_{k,m}(phi) = 2 xi^sk_{3-k,m} o xi_{k,m}(phi) for
    semi-meromorphic phi, and of its skew analog.  The skew factorization
    holds for the unnormalized conjugated Casimir:
    y^(1/2-k) C_{1-k,m} y^(k-1/2) phi = 2 xi_{3-k,m} o xi^sk_{k,m} (phi) - (2k-1) phi,
    and the (2k-1) phi terms of both sides cancel."""
    fac = xi_skew_map(3.0 - k, m) @ xi_map(k, m)
    fac_skew = xi_map(3.0 - k, m) @ xi_skew_map(k, m)
    return [
        ("semimeromorphic:Casimir=2 xiSk o xi", casimir_map(k, m) - 2.0 * fac),
        ("semimeromorphic:CasimirSk via xi o xiSk",
         (1.0 / (8j * math.pi * m)) * casimir_skew_map(k, m) - 2.0 * fac_skew),
    ]


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


def factorization_checks():
    """The factorization identities as one table of checks, each on its
    probe (made afresh per call), its name ending in the probe's label."""
    yv, tau = _yv_test_handle(1, 1), _tau_test_handle()
    table = [
        (heisenberg_factorizations(0.5, 1.0, (1, 2, 3)), yv),
        (heisenberg_factorizations(1.5, 0.5, (2,)), theta_ml_handle(1, 0.5)),
        (x_factorizations(2.5, (1, 2)), tau),
        (lapK_factorization(1.5), tau),
        (semimeromorphic_factorizations(0.5, 1.0), exp_qn_zeta_r(1, 1)),
        (semimeromorphic_factorizations(1.5, 1.0), exp_qn_zeta_r(0, 1)),
    ]
    return [("%s on %s" % (name, f.label), jmap, f) for maps, f in table for name, jmap in maps]


def suite_factorizations(points=None, tol=1e-6):
    """verify_identities of factorization_checks at the points."""
    return verify_identities(factorization_checks(), points or GENERIC_POINTS[:3], tol)


# ----------------------------------------------------------------------
# Weil matrices


def _vector(name, two_m):
    """The components of rank 2m of the catalog function name (theta_ml or
    mu_hat_ml), in label order, as one tagged form: its handle is the
    evaluator at every label at once, one row per label."""
    return build(name, m=two_m / 2, l=labels(two_m))


def suite_weil(two_m_list=(1, 2, 3, 4), point=None, tol_unitary=1e-13,
               tol_braid=1e-12, tol_theta=1e-8):
    """Unitarity of the Weil generator images, the braid relation and the
    order of S per rank, and the Weil law of the theta vector of each even
    rank under T and under S at one point, the largest gap over its
    components.  (The S law of an odd rank's theta vector misses by O(1)
    under rho and under its dual.)  Every rank lies in the declared domain
    1 <= 2m <= MAX_RANK (`check_component`), checked before any row is
    computed."""
    for two_m in two_m_list:
        check_component(two_m)
    gens = [(two_m, {w: rho_generator(two_m, w) for w in "TS"}) for two_m in two_m_list]
    results = []
    for two_m, mats in gens:
        eye = np.eye(two_m)
        results += [SuiteResult("weil:unitarity:%s@2m=%d" % (which, two_m),
                                _abs_max(mat @ mat.conj().T - eye), tol_unitary)
                    for which, mat in mats.items()]
        results += [
            SuiteResult("weil:braid:(ST)^3=S^2@2m=%d" % two_m,
                        _abs_max(rho_word(two_m, "STSTST") - rho_word(two_m, "SS")), tol_braid),
            SuiteResult("weil:S^8=1@2m=%d" % two_m,
                        _abs_max(rho_word(two_m, "S" * 8) - eye), tol_braid),
        ]
    # the theta vectors of every even rank on one computation at the point
    jv = JetVars.at(point or EvalPoint(0.17, 1.2, 0.13, 0.21), 0)
    for two_m in two_m_list:
        if two_m % 2:
            continue
        theta = _vector("theta_ml", two_m)
        laws = [vector_law(theta, word) for word in "TS"]
        names = ["weil:theta-vector-invariance:%s@2m=%d" % (word, two_m) for word in "TS"]
        results += _rows(names, lambda jv: [np.max(np.abs(law.jet_at(jv).value), axis=0)
                                            for law in laws], jv, tol_theta)
    return results


# ----------------------------------------------------------------------
# the completed Appell component family


def suite_mu_transform(two_m_list=(1, 2), points=None, tol=1e-6):
    """The claimed T and S laws of the completed component vector per rank,
    under the dual Weil representation (`weil.vector_law`), one row per law
    and component, on one computation at the points.

    The T law holds; the S law of the displayed completion fails (the
    recorded obstruction) and is reported faithfully.
    """
    for two_m in two_m_list:
        check_component(two_m)
    jv = JetVars.at(points or GENERIC_POINTS[:5], 0)
    results = []
    for two_m in two_m_list:
        mu_hat = _vector("mu_hat_ml", two_m)
        laws = [vector_law(mu_hat, word, dual=True) for word in "TS"]
        names = ["mu-transform:%s-law@2m=%d,l=%s" % (word, two_m, l)
                 for l in labels(two_m) for word in "TS"]
        # rows per component: its T-law gap, then its S-law gap
        results += _rows(names, lambda jv: np.stack([law.jet_at(jv).value for law in laws], 1),
                         jv, tol)
    return results


def suite_mu_xi_theta(two_m_list=(1, 2), points=None, tol_xi=1e-7,
                      tol_lap=1e-7, tol_mu2=1e-6):
    """xi^H maps each completed component onto the matching theta
    component; the Heisenberg Laplace operator annihilates the components;
    the covariant xi operator annihilates the distinguished weight-1/2
    combination.  The components of each rank are one vector evaluation,
    the operand of one xi^H image and one Heisenberg Laplace image, on one
    computation at the points: the operand is evaluated there once, at
    order 2, and the xi^H rows read the value of the order-1 xi^H image,
    whose operand that is.  The Laplace rows keep the first five points,
    where the xi check of mu_hat_2 is taken."""
    points = points or GENERIC_POINTS_10
    jv, five = JetVars.at(points, 0), JetVars.at(points[:5], 0)
    results = []
    for two_m in two_m_list:
        ls = labels(two_m)
        stack = _vector("mu_hat_ml", two_m)
        xi, lap = (apply_operator(op_name, stack).f for op_name in ("xiH", "LaplaceH"))

        def gap(jv):
            return (xi.jet_at(jv.extend(1)).value
                    - theta_ml_jet(two_m, ls, jv.tau, jv.z).value)

        xi_rows = _rows(["mu-xi-theta:xiH(mu_hat)=theta@2m=%d,l=%s" % (two_m, l) for l in ls],
                        gap, jv, tol_xi)
        lap_values = lap.jet_at(jv).value[:, :5]
        lap_rows = _rows(["mu-xi-theta:lapH(mu_hat)=0@2m=%d,l=%s" % (two_m, l) for l in ls],
                         lambda _: lap_values, five, tol_lap)
        results += [res for pair in zip(xi_rows, lap_rows) for res in pair]
    mu_hat_2 = build("mu_hat_2")
    wi = mu_hat_2.weight_index
    return results + verify_identities(
        [("mu-xi-theta:xi(mu_hat_2)=0", xi_map(wi.k, wi.m), mu_hat_2.f)], five, tol_mu2)


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
    jv = JetVars.at(points, 0)
    results = []
    for two_m in (2, 3):
        data, classes = _synthetic_class_data(two_m, seed + two_m)
        h = theta_decompose(data)

        def gap(jv):
            """Recomposed minus directly summed data."""
            tau = jv.tau.value
            v1 = theta_recompose_handle(two_m, h).jet_at(jv).value
            # every label's theta as the recomposition took it
            thetas = component_at(theta_ml_jet, two_m, tuple(h), jv).value
            row = {l: j for j, l in enumerate(h)}
            v2 = 0j
            for (D, l), c in classes.items():
                v2 += c * np.exp(2j * math.pi * (D / (2.0 * two_m)) * tau) * thetas[row[l]]
            return v1 - v2

        results += _rows(["decomposition:roundtrip@2m=%d" % two_m], gap, jv, tol)
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
    """HYGIENE_VALUES at a point stack under a policy: per name, the points
    it is taken at (the points, or the points moved to its z) and an array
    of its values there, each on one computation."""
    jv = JetVars.at(points, 0)
    values = {}
    for name, (fn, options, z) in HYGIENE_VALUES.items():
        at = points if z is None else [EvalPoint.from_tau_z(p.tau, z) for p in points]
        handle = build(fn, policy, **options)
        values[name] = at, handle.jet_at(jv if z is None else JetVars.at(at, 0)).value
    return values


def suite_hygiene(points=None, tol_trunc=1e-10, tol_fd=1e-6):
    """Truncation stability under radius doubling and finite-difference
    versus exact-jet agreement.  The radius-doubling rows compare each
    value at the tail target 1e-14 with the value at 1e-56, one row per
    point and name: each HYGIENE_VALUES function is evaluated once, on the
    points taken twice, with a per-point tail (`TruncationPolicy`), 1e-14
    on the first half and 1e-56 on the second.  Per finite-difference
    function, its exact jets are one order-2 stack at the points and its
    finite-difference jets one evaluation of every point's stencil
    (`finite_difference_jet` on the point list)."""
    points = points or [EvalPoint(0.13, 1.1, 0.21, 0.17), EvalPoint(-0.3, 1.5, 0.11, 0.08)]
    n = len(points)
    results = []
    # squaring the tail target twice roughly doubles every Gaussian radius
    values = _hygiene_values(list(points) * 2,
                             TruncationPolicy(tail_bound=(1e-14,) * n + (1e-56,) * n))
    for i, p in enumerate(points):
        for name, (at, value) in values.items():
            q = at[i]
            results.append(SuiteResult("hygiene:radius-doubling:%s@y=%g" % (name, p.y),
                                       float(np.abs(value[i] - value[n + i])), tol_trunc,
                                       [q.x, q.y, q.u, q.v]))
    # finite differences against exact jets, relative, order <= 2
    factorials = np.array([math.prod(map(math.factorial, mon)) for mon in monomials(2)],
                          dtype=float)
    jv = JetVars.at(points, 2)
    for fn, options in (("theta_ml", {"m": 1, "l": 0}), ("c1sk", KERNEL_OPTIONS)):
        h = build(fn, **options).f
        exact = h.jet_at(jv).c * factorials
        approx = finite_difference_jet(h, points, 2).c * factorials
        for p, e, a in zip(points, exact, approx):
            scale = max(abs(v) for v in e.tolist())  # Python's abs, as the scale always was
            results.append(SuiteResult("hygiene:fd-vs-exact:%s@y=%g" % (h.label, p.y),
                                       _abs_max(e - a) / scale, tol_fd, [p.x, p.y, p.u, p.v]))
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
