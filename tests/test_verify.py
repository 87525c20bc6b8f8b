"""The verification suite registry and its result records."""

import gc
import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mjlab import cli, group, kernels, mu, special
from mjlab.catalog import build
from mjlab.core import EvalPoint, FunctionHandle, JetVars, WeightIndex
from mjlab.errors import DomainError
from mjlab.group import GEN_S, GEN_T, TaggedForm, apply_slash
from mjlab.kernels import kernel_term_handle, xi_image_rows
from mjlab.mu import mu_hat_ml_handle
from mjlab.operators import _entry, apply_operator, input_kind
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
    results = run_suite("weil", two_m_list=[2])
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
    times for its three forms."""
    calls = {}
    # the tau jet of plain coordinates, less its value
    plain_tau = JetVars(*JetVars._plain((0.0, 0.0, 0.0, 0.0), COVARIANCE_REACH)).tau

    def counted(name, module, attr):
        fn = getattr(module, attr)

        def wrapper(*args):
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
    """Each family is evaluated once and truncated, and each image stacks
    the terms of both parameter sets of a weight/index."""
    for points in POINT_SETS:
        jv = JetVars.at(points, 0)
        want = []
        for params in KERNEL_PARAMS:
            wi = params.weight_index()
            for skew in (False, True):
                for i in (1, 2, 3, 4):
                    f = kernel_term_handle(i, params, skew=skew)
                    tag = "c%d%s" % (i, "sk" if skew else "")
                    for name, op_name in (("Casimir", "CasimirSk" if skew else "Casimir"),
                                          ("LaplaceH", "LaplaceH")):
                        phi = TaggedForm(f, wi, input_kind(op_name))
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
            wi = params.weight_index()
            for case, op_name, (i, skew), const, target in xi_image_rows(params):
                f = kernel_term_handle(i, params, skew=skew)
                phi = TaggedForm(f, wi, input_kind(op_name))
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
    operand's largest order-2 coefficient."""
    got = [res.as_dict() for res in suite_covariance(ops=ops, gens=gens)]
    same_stack = [
        res.as_dict() for op_name in ops or COVARIANCE_OPS
        for gname in gens or GENERATORS
        for res in suite_covariance(ops=[op_name], gens=gens)
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
    want = []
    for two_m in (1, 2):
        wi = WeightIndex(1, -two_m)
        for l in labels(two_m):
            f = TaggedForm(mu_hat_ml_handle(two_m, l), wi)
            jv = JetVars.at(GENERIC_POINTS_10, 0)
            xi = apply_operator("xiH", f).f.jet_at(jv).value
            theta = theta_ml_jet(two_m, l, jv.tau, jv.z).value
            lap = apply_operator("LaplaceH", f).f
            want.append(alone(xi - theta))
            want.append(alone(lap.jet_at(JetVars.at(GENERIC_POINTS, 0)).value))
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


def test_factorization_rows_equal_their_identities_alone():
    """The suite shares its probes' jets across checks on one computation;
    each row here is verify_identities of its check alone, with fresh
    probes and a computation of its own."""
    rows = suite_factorizations()
    assert len(rows) == len(factorization_checks()) == 17
    for j, res in enumerate(rows):
        [alone_row] = verify_identities([factorization_checks()[j]], GENERIC_POINTS[:3])
        assert alone_row.as_dict() == res.as_dict()
