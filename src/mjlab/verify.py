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
from dataclasses import dataclass

import numpy as np

from .core import (
    EvalPoint,
    FunctionHandle,
    JetVars,
    TruncationPolicy,
    WeightIndex,
    exp_qn_zeta_r,
)
from .errors import JetUnavailable
from .group import GEN_S, GEN_T, TaggedForm, apply_slash, heisenberg
from .jets import Jet
from .kernels import (
    FourierData,
    KernelParams,
    kernel_term_handle,
    theta_decompose,
    theta_fourier_data,
    theta_recompose_handle,
    xi_image_rows,
)
from .mu import (
    mu_hat_2_handle,
    mu_hat_2_jet,
    mu_hat_component_jet,
    mu_hat_ml_handle,
    mu_m_jet,
)
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
from .special import jacobi_theta_jet, theta_ml_handle, theta_ml_jet, zwegers_R_jet
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
    identity: str
    max_residual: float
    tol: float

    @property
    def passed(self):
        return self.max_residual < self.tol

    def as_dict(self):
        return {
            "identity": self.identity,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
        }


def _row_max(values):
    """max |value| over the rows of a point stack (NaN if any row is NaN)."""
    return float(np.max(np.abs(values)))


def _max_residual(residual, points):
    """max over the points of |residual(jv)|, with jv the order-0 plain
    coordinate jets of the whole point stack, so that residual returns one
    row per point (0.0 for no points, NaN if any row is NaN)."""
    if not len(points):
        return 0.0
    return _row_max(residual(JetVars.at(points, 0)))


def _gap(lhs, rhs):
    """The residual lhs - rhs of two handles."""
    return lambda jv: lhs.jet_at(jv).value - rhs.jet_at(jv).value


def _image_residual(jmap, f, points):
    """max over the points of |jmap(f)|, with f evaluated once per point."""
    out = image(jmap, f)
    return _max_residual(lambda jv: out.jet_at(jv).value, points)


# ----------------------------------------------------------------------
# covariance


def _generator_name(A):
    """A's key in GENERATORS, or its repr for any other element."""
    for name, gen in GENERATORS.items():
        if gen == A:
            return name
    return repr(A)


def verify_covariance(op_name, phi, A, points, tol=1e-8):
    """op(phi|A) = (op phi)|A' over the points, A' acting at the shifted
    weight/index; a DomainError if op does not act on phi's action kind."""
    image = apply_to_tagged(op_name, phi)
    lhs = apply_operator(OperatorSpec(op_name, phi.weight_index), apply_slash(phi, A).f)
    rhs = apply_slash(image, A).f
    return SuiteResult(
        "covariance:%s|%s on %s" % (op_name, _generator_name(A), phi.f.label),
        _max_residual(_gap(lhs, rhs), points),
        tol,
    )


def covariance_catalog():
    """Tagged catalog functions used by the covariance suite."""
    std = [
        TaggedForm(theta_ml_handle(2, 0), WeightIndex(1, 2), "standard"),
        TaggedForm(
            kernel_term_handle(3, KernelParams.of(0.5, -1, -1, 1)),
            WeightIndex(1, -2),
            "standard",
        ),
        TaggedForm(mu_hat_ml_handle(2, 0.0), WeightIndex(1, -2), "standard"),
    ]
    skew = [
        TaggedForm(
            kernel_term_handle(1, KernelParams.of(0.5, -1, -1, 1), skew=True),
            WeightIndex(1, -2),
            "skew",
        ),
        TaggedForm(
            kernel_term_handle(4, KernelParams.of(0.5, -1, -1, 1), skew=True),
            WeightIndex(1, -2),
            "skew",
        ),
    ]
    return std, skew

COVARIANCE_OPS = (
    "X+", "X-", "Y+", "Y-", "Xsk+", "Xsk-", "Ysk+", "Ysk-",
    "xiH", "xiSkH", "xi", "xiSk",
)


def suite_covariance(ops=None, gens=None, points=None, tol=1e-8):
    """op(phi|A) = (op phi)|A' for every operator and group generator."""
    points = points or GENERIC_POINTS[:3]
    std, skew = covariance_catalog()
    results = []
    for op_name in ops or COVARIANCE_OPS:
        kind = OperatorSpec(op_name, WeightIndex(1, 2)).input_kind()
        catalog = std if kind == "standard" else skew
        for gname in gens or GENERATORS:
            for phi in catalog:
                results.append(
                    verify_covariance(op_name, phi, GENERATORS[gname], points, tol)
                )
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


def verify_kernel_annihilation(params, points, tol=1e-7):
    """Casimir (skew Casimir on skew terms) and Heisenberg Laplace
    annihilation of every kernel term at the given parameters."""
    wi = params.weight_index()
    results = []
    for skew in (False, True):
        for i in (1, 2, 3, 4):
            f = kernel_term_handle(i, params, skew=skew)
            tag = "c%d%s" % (i, "sk" if skew else "")
            for name, op_name in (
                ("Casimir", "CasimirSk" if skew else "Casimir"),
                ("LaplaceH", "LaplaceH"),
            ):
                image = apply_operator(OperatorSpec(op_name, wi), f)
                results.append(
                    SuiteResult(
                        "kernel-annihilation:%s(%s)@%s"
                        % (name, tag, _params_tag(params)),
                        _max_residual(lambda jv: image.jet_at(jv).value, points),
                        tol,
                    )
                )
    return results


def verify_xi_image_table(params, points, tol=1e-7):
    """The sixteen rows of kernels.xi_image_rows at the given parameters:
    xi-operator image minus the expected multiple of a kernel term."""
    wi = params.weight_index()
    results = []
    for case, op_name, (i, skew), const, target in xi_image_rows(params):
        lhs = apply_operator(
            OperatorSpec(op_name, wi), kernel_term_handle(i, params, skew=skew)
        )
        if target is None:
            residual = lambda jv: lhs.jet_at(jv).value
        else:
            ti, tskew, tparams = target
            rhs = kernel_term_handle(ti, tparams, skew=tskew)
            residual = lambda jv: lhs.jet_at(jv).value - const * rhs.jet_at(jv).value
        results.append(
            SuiteResult(
                "xi-image:%s@%s" % (case, _params_tag(params)),
                _max_residual(residual, points),
                tol,
            )
        )
    return results


def suite_kernels(points=None, tol=1e-7):
    """Casimir and Heisenberg Laplace annihilation of all kernel terms."""
    points = points or GENERIC_POINTS
    results = []
    for params in KERNEL_PARAMS:
        results.extend(verify_kernel_annihilation(params, points, tol))
    return results


def suite_xi_images(params_list=None, points=None, tol=1e-7):
    """The full image table of the four xi operators on kernel terms."""
    points = points or GENERIC_POINTS
    results = []
    for params in params_list or XI_TABLE_PARAMS:
        results.extend(verify_xi_image_table(params, points, tol))
    return results


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
        SuiteResult(
            "commutator:[Y-,Y+]=-2pim",
            _image_residual(commutator - (-2.0 * math.pi * m) * IDENTITY, f, points),
            tol,
        )
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
    results.append(
        SuiteResult(
            "quasi-factorization:Y+^%dY-^%d" % (D, D), _image_residual(g - h, f, points), tol
        )
    )

    # (c) Heisenberg Laplace factorization through the xi^H pair
    lap = laplace_heisenberg_map(k, m)
    for name, fac in (
        ("xiSkH o xiH", xi_H_skew_map(k, -m) @ xi_H_map(k, m)),
        ("xiH o xiSkH", xi_H_map(k, -m) @ xi_H_skew_map(k, m)),
    ):
        results.append(
            SuiteResult(
                "lapH-factorization:" + name, _image_residual(lap - fac, f, points), tol
            )
        )
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
    return SuiteResult(
        "quasi-factorization:X+^%dX-^%d" % (D, D), _image_residual(g - h, f, points), tol
    )


def verify_hyperbolic_xi_factorization(k, f, points, tol=1e-6):
    """Delta_k = -xi_{2-k} o xi_k with the scalar Bruinier-Funke xi."""
    fac = xi_bruinier_funke(2.0 - k) @ xi_bruinier_funke(k)
    return SuiteResult(
        "lapK-factorization:-xi_{2-k} o xi_k",
        _image_residual(laplace_hyperbolic(k) + fac, f, points),
        tol,
    )


def verify_semimeromorphic_casimir(wi, f, points, skew=False, tol=1e-6):
    """C_{k,m}(phi) = 2 xi^sk_{3-k,m} o xi_{k,m}(phi) for semi-meromorphic phi
    (and the skew analog)."""
    k, m = wi.k, wi.m
    if skew:
        # the skew factorization holds for the unnormalized conjugated
        # Casimir: y^(1/2-k) C_{1-k,m} y^(k-1/2) phi
        #        = 2 xi_{3-k,m} o xi^sk_{k,m} (phi) - (2k-1) phi
        cas = image(casimir_skew_map(k, m), f)
        fac = image(xi_map(3.0 - k, m) @ xi_skew_map(k, m), f)

        def residual(jv):
            conj_part = cas.jet_at(jv).value / (8j * math.pi * m) - (
                2.0 * k - 1.0
            ) * f.jet_at(jv).value
            rhs = 2.0 * fac.jet_at(jv).value - (2.0 * k - 1.0) * f.jet_at(jv).value
            return conj_part - rhs

        return SuiteResult(
            "semimeromorphic:CasimirSk via xi o xiSk", _max_residual(residual, points), tol
        )
    fac = xi_skew_map(3.0 - k, m) @ xi_map(k, m)
    return SuiteResult(
        "semimeromorphic:Casimir=2 xiSk o xi",
        _image_residual(casimir_map(k, m) - 2.0 * fac, f, points),
        tol,
    )


def _yv_test_handle(n, r):
    """exp(2 pi i (n tau + r z)) y v, a smooth non-holomorphic probe."""

    def je(jv):
        return (2j * math.pi * (n * jv.tau + r * jv.z)).exp() * jv.y * jv.v

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
    results = []
    for two_m in two_m_list:
        for which in ("T", "S"):
            mat = rho_generator(two_m, which)
            results.append(
                SuiteResult(
                    "weil:unitarity:%s@2m=%d" % (which, two_m),
                    mat.unitarity_defect(),
                    tol_unitary,
                )
            )
        st3 = rho_word(two_m, "STSTST")
        s2 = rho_word(two_m, "SS")
        results.append(
            SuiteResult(
                "weil:braid:(ST)^3=S^2@2m=%d" % two_m,
                st3.distance(s2),
                tol_braid,
            )
        )
        s8 = rho_word(two_m, "S" * 8)
        eye = rho_generator(two_m, "T").power(0)
        results.append(
            SuiteResult(
                "weil:S^8=1@2m=%d" % two_m, s8.distance(eye), tol_braid
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
                    float(np.max(np.abs(out.data - base))),
                    tol_theta,
                )
            )
    return results


# ----------------------------------------------------------------------
# the completed Appell component family


def suite_mu_transform(two_m_list=(1, 2), points=None, tol=1e-6):
    """The claimed T and S transformation laws of the component vector, and
    the vector-slash form of the S law.

    The T law holds; the S law of the displayed completion fails (the
    recorded obstruction) and is reported faithfully.
    """
    points = points or GENERIC_POINTS[:5]
    jv = JetVars.at(points, 0)
    results = []
    for two_m in two_m_list:
        ls = labels(two_m)
        handles = {l: mu_hat_ml_handle(two_m, l) for l in ls}
        values = {l: h.jet_at(jv).value for l, h in handles.items()}
        wi = WeightIndex(1, -two_m)
        pref = 1j / cmath.sqrt(1j * two_m)
        for l in ls:
            tagged = TaggedForm(handles[l], wi, "standard")
            slashed_T = apply_slash(tagged, GEN_T).f.jet_at(jv).value
            slashed_S = apply_slash(tagged, GEN_S).f.jet_at(jv).value
            phase = root_of_unity(-l * l, 2 * two_m)
            mixed = sum(root_of_unity(l * lp, two_m) * values[lp] for lp in ls)
            results.append(
                SuiteResult(
                    "mu-transform:T-law@2m=%d,l=%s" % (two_m, l),
                    _row_max(slashed_T - phase * values[l]),
                    tol,
                )
            )
            results.append(
                SuiteResult(
                    "mu-transform:S-law@2m=%d,l=%s" % (two_m, l),
                    _row_max(slashed_S - pref * mixed),
                    tol,
                )
            )
    # the same S law phrased as a matrix acting on the component vector
    # (index m = 1): slash every component, compare against M h with
    # M = (i / sqrt(2im)) [e_{2m}(l l')]
    two_m = 2
    ls = labels(two_m)
    handles = [mu_hat_ml_handle(two_m, l) for l in ls]
    wi = WeightIndex(1, -two_m)
    p = points[0]
    slashed = np.array(
        [
            apply_slash(TaggedForm(h, wi, "standard"), GEN_S).f.eval(p)
            for h in handles
        ]
    )
    M = (1j / cmath.sqrt(2j * two_m / 2.0)) * np.array(
        [[root_of_unity(l * lp, two_m) for lp in ls] for l in ls]
    )
    base = np.array([h.eval(p) for h in handles])
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
    combination."""
    points = points or GENERIC_POINTS_10
    results = []
    for two_m in two_m_list:
        wi = WeightIndex(1, -two_m)
        for l in labels(two_m):
            f = mu_hat_ml_handle(two_m, l)
            img = image(xi_H_map(wi.k, wi.m), f)
            results.append(
                SuiteResult(
                    "mu-xi-theta:xiH(mu_hat)=theta@2m=%d,l=%s" % (two_m, l),
                    _max_residual(
                        lambda jv: img.jet_at(jv).value
                        - theta_ml_jet(two_m, l, jv.tau, jv.z).value,
                        points,
                    ),
                    tol_xi,
                )
            )
            lap = image(laplace_heisenberg_map(wi.k, wi.m), f)
            results.append(
                SuiteResult(
                    "mu-xi-theta:lapH(mu_hat)=0@2m=%d,l=%s" % (two_m, l),
                    _max_residual(lambda jv: lap.jet_at(jv).value, points[:5]),
                    tol_lap,
                )
            )
    img = image(xi_map(0.5, -0.5), mu_hat_2_handle())
    results.append(
        SuiteResult(
            "mu-xi-theta:xi(mu_hat_2)=0",
            _max_residual(lambda jv: img.jet_at(jv).value, points[:5]),
            tol_mu2,
        )
    )
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
    jv = JetVars.at(points, 0)
    tau = jv.tau.value
    results = []
    for two_m in (2, 3):
        data, classes = _synthetic_class_data(two_m, seed + two_m)
        h = theta_decompose(data)
        v1 = theta_recompose_handle(two_m, h).jet_at(jv).value
        v2 = 0j
        for (D, l), c in classes.items():
            v2 += c * np.exp(
                2j * math.pi * (D / (2.0 * two_m)) * tau
            ) * theta_ml_jet(two_m, l, jv.tau, jv.z).value
        resid = _row_max(v1 - v2)
        results.append(
            SuiteResult(
                "decomposition:roundtrip@2m=%d" % two_m, resid, tol
            )
        )
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


def catalog_values(points, policy):
    """Reported catalog values at a stack of points under a truncation
    policy: one array (a row per point) per catalog name."""
    jv = JetVars.at(points, 0)
    tau, z = jv.tau, jv.z
    return {
        "theta": jacobi_theta_jet(tau, z, policy).value,
        "theta_ml[2,0]": theta_ml_jet(2, 0, tau, z, policy).value,
        "theta_ml[1,0.5]": theta_ml_jet(1, 0.5, tau, z, policy).value,
        "R": zwegers_R_jet(tau, z, policy).value,
        "mu_m[2]": mu_m_jet(
            2, tau, Jet.constant(0.31 + 0.55j, 0), Jet.constant(0.17 - 0.23j, 0), policy
        ).value,
        "mu_hat[2,0]": mu_hat_component_jet(2, 0.0, tau, z, policy).value,
        "mu_hat[1,0.5]": mu_hat_component_jet(1, 0.5, tau, z, policy).value,
        "mu_hat_2": mu_hat_2_jet(tau, z, policy).value,
    }


def suite_hygiene(points=None, tol_trunc=1e-10, tol_fd=1e-6):
    """Truncation stability under radius doubling and finite-difference
    versus exact-jet agreement."""
    points = points or [EvalPoint(0.13, 1.1, 0.21, 0.17), EvalPoint(-0.3, 1.5, 0.11, 0.08)]
    results = []
    # squaring the tail target twice roughly doubles every Gaussian radius
    v1 = catalog_values(points, TruncationPolicy(tail_bound=1e-14))
    v2 = catalog_values(points, TruncationPolicy(tail_bound=1e-56))
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
    exact_handles = [
        theta_ml_handle(2, 0),
        kernel_term_handle(1, KernelParams.of(0.5, -1, -1, 1), skew=True),
    ]
    for h in exact_handles:
        plain = FunctionHandle(fn=h.eval, label=h.label)
        for p in points:
            exact = h.jet(p, 2)
            approx = plain.jet(p, 2)
            scale = max(abs(v) for v in exact.values())
            resid = _row_max([exact[k] - approx[k] for k in exact]) / scale
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
