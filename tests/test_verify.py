"""The verification suite registry and its result records."""

import gc
import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mjlab import catalog, cli, group, kernels, mu, special, verify
from mjlab.catalog import build
from mjlab.core import EvalPoint, FunctionHandle, JetVars, WeightIndex
from mjlab.errors import DomainError
from mjlab.group import GEN_S, GEN_T, TaggedForm, apply_slash
from mjlab.kernels import KERNEL_TERMS, KernelParams, kernel_term_handle, xi_image_rows
from mjlab.mu import mu_hat_ml_handle
from mjlab.operators import JetMap, _entry, apply_operator, image, input_kind
from mjlab.special import theta_ml_jet
from mjlab.verify import (
    COVARIANCE_OPS,
    COVARIANCE_REACH,
    GENERATORS,
    GENERIC_POINTS,
    GENERIC_POINTS_10,
    KERNEL_PARAMS,
    SUITES,
    XI_TABLE_PARAMS,
    SuiteResult,
    _stacked,
    COVARIANCE_FORMS,
    factorization_checks,
    lapK_factorization,
    run_suite,
    suite_covariance,
    suite_factorizations,
    suite_kernels,
    suite_mu_transform,
    suite_mu_xi_theta,
    suite_xi_images,
    verify_covariance,
    verify_identities,
    verify_kernel_annihilation,
    verify_xi_image_table,
)
from mjlab.weil import labels, rho_word


def test_registry_contains_all_suites():
    assert set(SUITES) == {
        "covariance",
        "kernels",
        "xi-images",
        "factorizations",
        "weil",
        "mu-transform",
        "mu-xi-theta",
        "decomposition-roundtrip",
        "hygiene",
    }


def test_unknown_suite_raises():
    with pytest.raises((DomainError, KeyError)):
        run_suite("no-such-suite")


def test_suite_result_pass_logic():
    good = SuiteResult("x", 1e-9, 1e-6)
    bad = SuiteResult("x", 1e-3, 1e-6)
    assert good.passed and not bad.passed
    d = good.as_dict()
    assert d["identity"] == "x"
    assert d["max_residual"] == 1e-9
    assert d["tol"] == 1e-6


def test_weil_suite_runs_and_passes():
    results = run_suite("weil", two_m=2)
    assert results
    assert all(res.passed for res in results)


def test_factorizations_suite_passes():
    results = run_suite("factorizations")
    assert all(res.passed for res in results), [
        res.as_dict() for res in results if not res.passed
    ]


def test_decomposition_roundtrip_suite_passes():
    results = run_suite("decomposition-roundtrip", seed=1)
    assert all(res.passed for res in results)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_returns_only_suite_results(name):
    results = run_suite(name)
    assert results
    assert all(type(res) is SuiteResult for res in results)


# the rows of each suite at its defaults: perfbench's verify workload counts
# rows per second, so a suite that dropped or repeated rows would read as a
# change of speed
SUITE_ROWS = {
    "covariance": 120, "kernels": 128, "xi-images": 32, "factorizations": 17, "weil": 20,
    "mu-transform": 6, "mu-xi-theta": 7, "decomposition-roundtrip": 3, "hygiene": 20,
}


def test_every_suite_keeps_its_row_count():
    assert {name: len(run_suite(name)) for name in SUITES} == SUITE_ROWS


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_names_each_check_once(name):
    names = [res.identity for res in run_suite(name)]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []


@pytest.mark.parametrize("nan_at", [None, 0.9])
def test_nan_residual_fails_the_check(nan_at):
    """A NaN residual at any point (None: at every point) is the result."""

    def je(jv):  # one row per point of the stack
        bad = (jv.y.value.real == nan_at) | (nan_at is None)
        return jv.y * np.where(bad, math.nan, 1.0)

    h = FunctionHandle(jet_fn=je, label="nan")
    [result] = verify_identities([(name, jmap, h) for name, jmap in lapK_factorization(1.5)],
                                 GENERIC_POINTS[:3])
    assert math.isnan(result.max_residual)
    assert not result.passed


# ----------------------------------------------------------------------
# covariance: phi and phi|A evaluated once per point stack and jet order


def unshared_covariance_rows(points):
    """(identity, max residual) of every covariance check in the suite's
    order, each (operator, form) pair built from fresh catalog, operator
    and slash handles and evaluated on its own, its form a stack of one at
    the suite's reach, on the suite's stack: the points tiled once per
    generator, slashed by one element per point, its tile's generator."""
    stack = list(points) * len(GENERATORS)
    elements = [A for A in GENERATORS.values() for _ in points]
    rows = []
    for op_name in COVARIANCE_OPS:
        forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
        per_form = []
        for form in (f for f in forms if f.action_kind == input_kind(op_name)):
            phi = replace(form, f=_stacked([form.f], reach=COVARIANCE_REACH))
            lhs = apply_operator(op_name, apply_slash(phi, elements)).f
            rhs = apply_slash(apply_operator(op_name, phi), elements).f
            jv = JetVars.at(stack, 0)
            gap = (lhs.jet_at(jv).value - rhs.jet_at(jv).value).reshape(len(GENERATORS), -1)
            per_form.append([("covariance:%s|%s on %s" % (op_name, gname, form.f.label),
                              float(np.max(np.abs(block))))
                             for gname, block in zip(GENERATORS, gap)])
        rows += [row for per_gen in zip(*per_form) for row in per_gen]
    return rows


def test_covariance_suite_equals_its_checks_built_unshared():
    got = [(res.identity, res.max_residual) for res in suite_covariance()]
    assert got == unshared_covariance_rows(GENERIC_POINTS[:3])


def test_covariance_reach_is_the_largest_loss_of_its_operators():
    wi = WeightIndex(1, -2)
    assert COVARIANCE_REACH == max(_entry(op_name)[0](wi.k, wi.m).loss
                                   for op_name in COVARIANCE_OPS)


def test_covariance_evaluates_each_form_once_per_generator_base(monkeypatch):
    """One suite call evaluates each catalog form once, on the plain
    coordinate jets of order 2 at the one stack of every generator's image
    of the points: theta_ml and mu_hat_ml once each, the kernel family 3
    times for its three forms.  Only the theta_ml form's own calls (2m = 2,
    l = 0) are counted, not the theta (2m = 1, l = 1/2) inside mu_hat_ml."""
    calls = {}
    # the tau jet of plain coordinates, less its value
    plain_tau = JetVars(*JetVars._plain((0.0, 0.0, 0.0, 0.0), COVARIANCE_REACH)).tau

    def counted(name, module, attr):
        fn = getattr(module, attr)

        def wrapper(*args):
            if name == "theta_ml" and args[:2] != (2, 0):
                return fn(*args)
            tau = args[-1].tau if name == "kernel" else args[2]
            on_plain = tau.order == COVARIANCE_REACH and np.array_equal(
                tau.c[..., 1:], np.broadcast_to(plain_tau.c[1:], tau.c[..., 1:].shape))
            calls.setdefault(name, []).append(on_plain)
            return fn(*args)

        monkeypatch.setattr(module, attr, wrapper)

    counted("theta_ml", special, "theta_ml_jet")
    counted("mu_hat_ml", mu, "mu_hat_component_jet")
    counted("kernel", kernels, "kernel_family_jet")
    suite_covariance()
    assert {name: len(seen) for name, seen in calls.items()} == {
        "theta_ml": 1, "mu_hat_ml": 1, "kernel": 3}
    assert all(all(seen) for seen in calls.values())


def test_covariance_rows_keep_half_their_tolerance():
    for res in suite_covariance(points=GENERIC_POINTS[:3]):
        assert res.max_residual <= res.tol / 2, res.identity


def test_covariance_cli_filter_prints_the_rows_of_the_full_suite(capsys):
    try:
        code = cli.main(["verify", "covariance", "--op", "xi", "--gen", "lambda"])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, None)
    report = json.loads(capsys.readouterr().out)
    want = [
        res.as_dict() for res in suite_covariance()
        if res.identity.startswith("covariance:xi|lambda on ")
    ]
    assert len(want) == 3
    assert report["checks"] == want


def test_two_covariance_suites_agree():
    first, second = suite_covariance(), suite_covariance()
    assert [res.as_dict() for res in first] == [res.as_dict() for res in second]


def test_covariance_builds_each_coordinate_jet_and_frame_once(monkeypatch):
    """One suite call builds the order-0 coordinate jets of its points
    (which name the worst points), and one computation at the points tiled
    once per generator: its coordinate jets (at the tiles, and at their
    generator images) are built once per order 0, 1 and 2, and so is its
    slash frame, one element per point, whatever the index."""
    builds, frames = [], []
    plain, frame = JetVars._plain, group._frame

    def counted_plain(base, order):
        builds.append((np.asarray(base).tobytes(), order))
        return plain(base, order)

    def counted_frame(A, jv):
        if (A, jv.order) not in jv.held:
            frames.append((A, jv.order, np.asarray(jv.base).tobytes()))
        return frame(A, jv)

    monkeypatch.setattr(JetVars, "_plain", staticmethod(counted_plain))
    monkeypatch.setattr(group, "_frame", counted_frame)
    suite_covariance()
    assert len(builds) == len(set(builds)) == 7
    assert len(frames) == len(set(frames)) == 3


def test_weil_builds_one_slash_frame_per_generator_and_rank(monkeypatch):
    """The theta vector of each even rank and all its slashes are one
    computation at the point: one frame per word, whatever the index."""
    frames, frame = [], group._frame

    def counted_frame(A, jv):
        if (A, jv.order) not in jv.held:
            frames.append((A, jv.order))
        return frame(A, jv)

    monkeypatch.setattr(group, "_frame", counted_frame)
    run_suite("weil")
    assert len(frames) == len(set(frames)) == 2
    assert {A for A, _ in frames} == {GEN_T, GEN_S}


def test_suite_memos_are_freed_by_reference_counting():
    """Nothing a memo holds refers back to it, so a suite's computation is
    freed when the suite returns, with the cyclic collector off."""
    suites = (suite_covariance, suite_kernels)
    for suite in suites:  # fill the module-level caches of the jet tables
        suite()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for suite in suites:
            suite()
            assert tracemalloc.get_traced_memory()[0] - start < 0.1 * 2**20, suite.__name__
    finally:
        tracemalloc.stop()
        gc.enable()


# ----------------------------------------------------------------------
# row stacks: each suite row is its identity evaluated alone


def alone(value):
    """The max residual of one identity's values at a point stack."""
    return float(np.max(np.abs(value)))


def rows_of(results):
    return [(res.identity, res.max_residual, res.tol) for res in results]


def jittered(points, seed, by=0.02):
    """The points with every coordinate moved by a seeded amount of at most
    `by`."""
    rng = random.Random(seed)
    return tuple(EvalPoint(*(c + rng.uniform(-by, by) for c in (p.x, p.y, p.u, p.v)))
                 for p in points)


# the shipped points and three jittered copies (seeds 1-3)
POINT_SETS = (GENERIC_POINTS,) + tuple(jittered(GENERIC_POINTS, seed) for seed in (1, 2, 3))


def test_kernels_suite_rows_equal_their_identities_alone():
    """Each family is evaluated once and truncated, and each operator is one
    image of the terms of every parameter set, each row at its set's
    weight/index."""
    for points in POINT_SETS:
        jv = JetVars.at(points, 0)
        want = []
        for params in KERNEL_PARAMS:
            for skew in (False, True):
                for i in (1, 2, 3, 4):
                    f = kernel_term_handle(i, params, skew=skew)
                    tag = "c%d%s" % (i, "sk" if skew else "")
                    for name, op_name in (("Casimir", "CasimirSk" if skew else "Casimir"),
                                          ("LaplaceH", "LaplaceH")):
                        phi = TaggedForm(f, params, input_kind(op_name))
                        value = apply_operator(op_name, phi).f.jet_at(jv).value
                        want.append(("kernel-annihilation:%s(%s)@%s"
                                     % (name, tag, params.tag()), alone(value), 1e-7))
        assert rows_of(suite_kernels(points=points)) == want
        assert rows_of(verify_kernel_annihilation([KERNEL_PARAMS[1]], points)) == want[16:32]


def test_xi_images_suite_rows_equal_their_identities_alone():
    for points in POINT_SETS:
        jv = JetVars.at(points, 0)
        want = []
        for params in XI_TABLE_PARAMS:
            for case, op_name, (i, skew), const, target in xi_image_rows(params):
                f = kernel_term_handle(i, params, skew=skew)
                phi = TaggedForm(f, params, input_kind(op_name))
                value = apply_operator(op_name, phi).f.jet_at(jv).value
                if target is not None:
                    ti, tskew, tparams = target
                    value = value - const * kernel_term_handle(
                        ti, tparams, skew=tskew).jet_at(jv).value
                want.append(("xi-image:%s@%s" % (case, params.tag()), alone(value), 1e-7))
        assert rows_of(suite_xi_images(points=points)) == want
        assert rows_of(verify_xi_image_table([XI_TABLE_PARAMS[1]], points)) == want[16:]


def test_verify_covariance_is_the_one_row_case_of_the_suite():
    """One operator and one form, with all four generators (the suite's
    stack of generator images): the suite's rows of that pair, bit for
    bit."""
    full = {res.identity: res.as_dict() for res in suite_covariance()}
    points = GENERIC_POINTS[:3]
    for op_name in COVARIANCE_OPS:
        forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
        for phi in (f for f in forms if f.action_kind == input_kind(op_name)):
            rows = verify_covariance([op_name], [phi], GENERATORS, points)
            assert [res.identity for res in rows] == [
                "covariance:%s|%s on %s" % (op_name, gname, phi.f.label) for gname in GENERATORS]
            for res in rows:
                assert res.as_dict() == full[res.identity]


def test_covariance_worst_points_are_suite_points():
    points = [[p.x, p.y, p.u, p.v] for p in GENERIC_POINTS[:3]]
    for res in suite_covariance():
        assert res.worst_point in points, res.identity


def operand_scale(gname, label):
    """The largest order-2 coefficient of the covariance form of the given
    label at the image of the suite's points under a generator."""
    [form] = [f for f in (build(name, **options) for name, options in COVARIANCE_FORMS)
              if f.f.label == label]
    frame = group._frame(GENERATORS[gname], JetVars.at(GENERIC_POINTS[:3], 0))
    return float(np.max(np.abs(form.f.jet_at(frame.base.at_base(COVARIANCE_REACH)).c)))


def covariance_rows(ops, gens):
    """verify_covariance as suite_covariance calls it, at lists of operators
    and generators (None for all of them)."""
    forms = [build(name, **options) for name, options in COVARIANCE_FORMS]
    return verify_covariance(ops or COVARIANCE_OPS, forms,
                             {gname: GENERATORS[gname] for gname in gens or GENERATORS},
                             GENERIC_POINTS[:3])


@pytest.mark.parametrize(
    "ops,gens",
    [(["X+"], ["S"]), (["xiSk"], ["T"]), (["Y-", "Xsk+"], None), (None, ["mu", "lambda"])],
)
def test_covariance_subsets_are_rows_of_the_full_suite_in_its_order(ops, gens):
    """An operator subset is taken on the stack of the suite with the same
    generators, so its rows are that suite's, bit for bit.  A generator
    subset is another point stack, on which a form's jet may differ in its
    last bits: its rows keep the full suite's identities, in its order,
    tolerances and verdicts, and their residuals to within 1e-13 of the
    operand's largest order-2 coefficient.  The suite's --op and --gen are
    the subsets of one."""
    got = [res.as_dict() for res in covariance_rows(ops, gens)]
    if ops and gens and len(ops) == len(gens) == 1:
        assert [res.as_dict() for res in suite_covariance(op=ops[0], gen=gens[0])] == got
    same_stack = [
        res.as_dict() for op_name in ops or COVARIANCE_OPS
        for gname in gens or GENERATORS
        for res in covariance_rows([op_name], gens)
        if res.identity.startswith("covariance:%s|%s on " % (op_name, gname))
    ]
    assert got and got == same_stack
    full = [
        res.as_dict() for op_name in ops or COVARIANCE_OPS
        for gname in gens or GENERATORS
        for res in suite_covariance()
        if res.identity.startswith("covariance:%s|%s on " % (op_name, gname))
    ]
    assert [row["identity"] for row in got] == [row["identity"] for row in full]
    for row, want in zip(got, full):
        assert (row["tol"], row["passed"]) == (want["tol"], want["passed"])
        gname, label = row["identity"].split("|", 1)[1].split(" on ", 1)
        assert abs(row["max_residual"] - want["max_residual"]) <= \
            1e-13 * operand_scale(gname, label), row["identity"]


def test_mu_xi_theta_rows_equal_their_identities_alone():
    """Each component alone on a computation of its own at the ten points,
    its operand evaluated there at order 2: the value of its order-1 xi^H
    image against its theta, and its Laplace image at the first five
    points."""
    want = []
    for two_m in (1, 2):
        wi = WeightIndex(1, -two_m)
        for l in labels(two_m):
            f = TaggedForm(mu_hat_ml_handle(two_m, l), wi)
            jv = JetVars.at(GENERIC_POINTS_10, 0)
            xi = apply_operator("xiH", f).f.jet_at(jv.extend(1)).value
            theta = theta_ml_jet(two_m, l, jv.tau, jv.z).value
            lap = apply_operator("LaplaceH", f).f.jet_at(jv).value
            want.append(alone(xi - theta))
            want.append(alone(lap[:5]))
    assert [res.max_residual for res in suite_mu_xi_theta()[:-1]] == want


def test_mu_transform_rows_equal_their_laws_per_component():
    """Criterion 5's S-law rows included: each component slashed alone."""
    jv = JetVars.at(GENERIC_POINTS, 0)
    want = []
    for two_m in (1, 2):
        ls = labels(two_m)
        tagged = {l: TaggedForm(mu_hat_ml_handle(two_m, l), WeightIndex(1, -two_m)) for l in ls}
        values = np.stack([phi.f.jet_at(jv).value for phi in tagged.values()])
        mixed = {w: rho_word(two_m, w, dual=True) @ values for w in "TS"}
        for j, l in enumerate(ls):
            for w, A in (("T", GEN_T), ("S", GEN_S)):
                want.append(alone(apply_slash(tagged[l], A).f.jet_at(jv).value - mixed[w][j]))
    got = [res.max_residual for res in suite_mu_transform()]
    assert got == want


@pytest.mark.parametrize("build,laplacian", [
    (lambda: verify.heisenberg_factorizations(0.5, 1.0, [3]), "laplace_heisenberg_map"),
    (lambda: verify.x_factorizations(0.5, [3]), "laplace_hyperbolic"),
])
def test_a_depth_3_factorization_applies_each_laplacian_factor_once(build, laplacian,
                                                                    monkeypatch):
    """prod_{d<3} (Delta + c_d) composes its three factors: three Laplacian
    applications per evaluation (seven when each sum applied the product so
    far on both sides)."""
    applied = []
    make = getattr(verify, laplacian)

    def counted(*args):
        jmap = make(*args)
        return JetMap(jmap.loss, lambda F, jv: applied.append(1) or jmap.apply(F, jv))

    monkeypatch.setattr(verify, laplacian, counted)
    [jmap] = [jmap for name, jmap in build() if name.startswith("quasi-factorization")]
    image(jmap, catalog.build("theta_ml", m=1, l=0.0).f).jet_at(JetVars.at(GENERIC_POINTS[0], 0))
    assert len(applied) == 3


def test_factorization_rows_equal_their_identities_alone():
    """The suite shares its probes' jets across checks on one computation;
    each row here is verify_identities of its check alone, with fresh
    probes and a computation of its own."""
    rows = suite_factorizations()
    assert len(rows) == len(factorization_checks()) == 17
    for j, res in enumerate(rows):
        [alone_row] = verify_identities([factorization_checks()[j]], GENERIC_POINTS[:3])
        assert alone_row.as_dict() == res.as_dict()


# ----------------------------------------------------------------------
# one row stack per action kind, each row at its own weight/index


def test_one_kernel_stack_over_four_weight_indices_gives_each_sets_rows():
    """The families of all eight KERNEL_PARAMS (four weight/index pairs)
    stacked into one operand per operator: each set's rows of its Casimir,
    CasimirSk and LaplaceH images are that set's image alone, bit for
    bit."""
    assert len({(p.two_k, p.two_m) for p in KERNEL_PARAMS}) == 4
    jv = JetVars.at(GENERIC_POINTS, 0)
    families = [verify._kernel_family(params) for params in KERNEL_PARAMS]

    def image_of(op_name, terms, params_list, handles):
        wi = WeightIndex.of_rows([p for p in params_list for _ in KERNEL_TERMS[terms]])
        stack = TaggedForm(_stacked(handles, [terms] * len(handles), reach=3), wi,
                           input_kind(op_name))
        return apply_operator(op_name, stack).f.jet_at(jv).c

    for op_name, terms in (("Casimir", slice(0, 4)), ("CasimirSk", slice(4, 8)),
                           ("LaplaceH", slice(0, 8))):
        got = image_of(op_name, terms, KERNEL_PARAMS, families)
        assert got.shape[0] == len(KERNEL_PARAMS) * len(KERNEL_TERMS[terms])
        alone = [image_of(op_name, terms, [params], [family])
                 for params, family in zip(KERNEL_PARAMS, families)]
        assert np.array_equal(got, np.concatenate(alone)), op_name


def counted_calls(monkeypatch, *names):
    """Count the calls verify makes to each of the named functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(verify, name)

        def wrapper(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(verify, name, wrapper)
    return calls


@pytest.mark.parametrize("suite,want", [
    (suite_kernels, {"apply_operator": 3, "apply_slash": 0}),
    (suite_covariance, {"apply_operator": 24, "apply_slash": 14}),
    (suite_xi_images, {"apply_operator": 4, "apply_slash": 0}),
])
def test_one_image_per_operator_and_action_kind(monkeypatch, suite, want):
    """Kernels and xi-images take one image per operator; covariance one
    slash of each action kind's stack, and per operator one image of each
    side and one slash of the right side."""
    calls = counted_calls(monkeypatch, "apply_operator", "apply_slash")
    suite()
    assert calls == want


def test_decomposition_roundtrip_takes_each_theta_once(monkeypatch):
    """One theta vector per rank, of every label of its h: the direct sum
    reads each label's theta from the computation's memo, where the
    recomposition left it."""
    calls = []
    fn = special.theta_ml_jet

    def counted(*args):
        calls.append(args[:2])
        return fn(*args)

    for module in (special, kernels, verify):
        monkeypatch.setattr(module, "theta_ml_jet", counted)
    run_suite("decomposition-roundtrip")
    assert sorted(calls) == [(2, (0, 1)), (3, (0, 1, 2))]


@pytest.mark.parametrize("driver,params", [
    (verify_kernel_annihilation, KERNEL_PARAMS),
    (verify_xi_image_table, XI_TABLE_PARAMS + (KernelParams.of(1.5, 0.5, 0, 1),)),
])
def test_a_lone_point_is_a_stack_of_one_for_the_per_row_drivers(driver, params):
    """Parameter sets of different weights/indices on one point: the rows
    of the one-element list, whatever the point is given as."""
    assert len({(p.two_k, p.two_m) for p in params}) > 1
    lone = [res.as_dict() for res in driver(params, GENERIC_POINTS[0])]
    assert lone and lone == [res.as_dict() for res in driver(params, [GENERIC_POINTS[0]])]


# ----------------------------------------------------------------------
# the work a suite shares


def test_mu_xi_theta_makes_one_appell_sum_per_rank_and_one_for_mu_hat_2(monkeypatch):
    """Each rank's component vector is one Appell sum (all its labels),
    evaluated once at order 2 for both images; mu_hat_2 is the third."""
    calls = []
    fn = mu.mu_m_jet

    def counted(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(mu, "mu_m_jet", counted)
    suite_mu_xi_theta()
    assert sorted(calls) == [1, 1, 2]


def test_hygiene_evaluates_each_finite_difference_function_twice(monkeypatch):
    """Per finite-difference function, one order-2 stack of its exact jets
    at both points and one stack of both points' stencils."""
    evaluations = {}
    real = verify.build

    def counted(name, policy=None, **options):
        made = real(name, policy, **options)
        if policy is not None or name not in ("theta_ml", "c1sk"):  # a radius-doubling value
            return made
        f, key = made.f, (name, len(evaluations))
        evaluations[key] = 0

        def je(jv):
            evaluations[key] += 1
            return f.jet_at(jv)

        return replace(made, f=FunctionHandle(jet_fn=je, label=f.label, fd_step=f.fd_step))

    monkeypatch.setattr(verify, "build", counted)
    run_suite("hygiene")
    assert sorted(evaluations.values()) == [2, 2]


def test_hygiene_evaluates_each_radius_doubling_value_once(monkeypatch):
    """One evaluation per HYGIENE_VALUES function (8, not one per tail
    target): at the points taken twice, with the tail target 1e-14 on the
    first copy and 1e-56 on the second."""
    evaluations = []
    real = verify.build

    def counted(name, policy=None, **options):
        made = real(name, policy, **options)
        if policy is None:  # a finite-difference function
            return made
        f, seen = getattr(made, "f", made), []
        evaluations.append((policy.tail_bound, seen))

        def je(jv):
            seen.append(jv.x.c.shape[0])
            return f.jet_at(jv)

        handle = FunctionHandle(jet_fn=je, label=f.label, fd_step=f.fd_step)
        return replace(made, f=handle) if isinstance(made, TaggedForm) else handle

    monkeypatch.setattr(verify, "build", counted)
    run_suite("hygiene")
    assert evaluations == [((1e-14, 1e-14, 1e-56, 1e-56), [4])] * len(verify.HYGIENE_VALUES)


def test_kernels_and_xi_images_make_one_family_for_their_sets(monkeypatch):
    """suite_kernels makes one kernel family, of all KERNEL_PARAMS;
    suite_xi_images one of all XI_TABLE_PARAMS, plus one per partner set,
    of the terms its rows name."""
    calls = []
    real = verify.kernel_family_jet

    def counted(params, terms, jv):
        calls.append(params)
        return real(params, terms, jv)

    monkeypatch.setattr(verify, "kernel_family_jet", counted)
    suite_kernels()
    assert calls == [list(KERNEL_PARAMS)]
    calls.clear()
    suite_xi_images()
    partners = {p for params in XI_TABLE_PARAMS for p in (params.xi_partner(),
                                                         params.xi_H_partner())}
    assert calls[0] == list(XI_TABLE_PARAMS) and len(partners) == 4
    assert len(calls) == 1 + len(partners) and set(calls[1:]) == partners
