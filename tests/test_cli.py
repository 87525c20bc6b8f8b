"""The command line interface: formats, exit codes, determinism."""

import gc
import inspect
import io
import json
import math
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest
import series_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from mjlab import catalog, cli
from mjlab.cli import parse_complex
from mjlab.core import EvalPoint, FunctionHandle, JetVars, TaggedForm, labels
from mjlab.errors import JetUnavailable, NonFinite, StencilOutOfDomain
from mjlab.jets import Jet
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.mu import mu_hat_2_jet, mu_hat_component_jet, mu_m_jet, r_hat_component_jet
from mjlab.operators import xi_H
from mjlab.special import (
    H_function,
    error_completion_E,
    jacobi_theta_jet,
    theta_ml_jet,
    zwegers_R_jet,
)


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "mjlab.cli"] + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


# ----------------------------------------------------------------------
# complex literals


@pytest.mark.parametrize(
    "text,want",
    [
        ("1+2i", 1 + 2j),
        ("-0.5i", -0.5j),
        ("3", 3 + 0j),
        ("0.25-1.5i", 0.25 - 1.5j),
        ("2i", 2j),
        # only the trailing i is the imaginary unit (inf is not jnf)
        ("inf+0i", complex(math.inf, 0)),
        ("0.1-infi", complex(0.1, -math.inf)),
    ],
)
def test_parse_complex(text, want):
    assert parse_complex(text) == want


def test_parse_complex_rejects_garbage():
    with pytest.raises(cli.UsageError):
        parse_complex("not-a-number")


# ----------------------------------------------------------------------
# eval


def test_eval_theta_matches_library():
    res = run_cli(
        "eval", "theta_ml", "--m", "1", "--l", "1",
        "--tau", "0.13+1.1i", "--z", "0.21+0.17i",
    )
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["function"] == "theta_ml"
    want = catalog.build("theta_ml", m=1, l=1).f.eval(EvalPoint(0.13, 1.1, 0.21, 0.17))
    got = complex(*record["value"])
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    assert record["truncation_radius"] >= 1
    assert record["est_tail"] > 0


def test_eval_is_deterministic():
    args = ("eval", "mu_hat_ml", "--m", "1", "--l", "0",
            "--tau", "0.13+1.1i", "--z", "0.21+0.17i")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_eval_unknown_function_is_usage_error():
    res = run_cli("eval", "nonexistent")
    assert res.returncode == 1


def test_eval_at_pole_exits_2():
    res = run_cli("eval", "mu_hat_2", "--tau", "1i", "--z", "0.5+0.5i")
    assert res.returncode == 2
    assert "pole" in res.stderr.lower()


TRUNCATION_CASES = [
    ("eval", "theta_ml", "--m", "1", "--tau", "0+0.02i", "--radius", "3"),
    # radii beyond the float range
    ("eval", "R", "--tau", "1e-310i"),
    ("eval", "theta", "--z", "1e300i"),
    ("eval", "theta_ml", "--m", "1", "--z", "1e300i"),
    ("eval", "mu_hat_ml", "--m", "1", "--z", "1e300i"),
    # pi Im tau beyond the float range: the Appell bound inf / inf is no radius
    ("eval", "mu_hat_2", "--tau", "1e308i"),
]


@pytest.mark.parametrize("args", TRUNCATION_CASES)
def test_eval_truncation_overflow_exits_3_without_traceback(args):
    res = run_cli(*args)
    assert res.returncode == cli.EXIT_TRUNCATION == 3, res.stderr
    assert res.stderr.startswith("truncation overflow:")
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def run_main(capsys, *args):
    """In-process `mjlab ARGS...`: (exit code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_in_process_main_frees_its_redirected_streams():
    """main keeps no reference to sys.stdout / sys.stderr, so the buffers of
    an in-process caller die with the caller's references."""
    refs = []
    for args in (("eval", "theta"), ("eval", "theta", "--tau", "0-1i")):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main(list(args))
            except SystemExit as exc:
                assert exc.code == cli.EXIT_USAGE
        assert bool(out.getvalue()) != bool(err.getvalue())  # a success, then an error
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


# every library error ends in a documented exit code and one message line

OVERFLOW_CASES = [
    ("eval", "R", "--tau", "0.1+10i", "--z", "0.1+3i"),
    ("eval", "c2", "--n", "50", "--tau", "0.1+3i"),
    ("eval", "H", "--w", "800"),
    # 3.99e308 = e^(-2 pi) Gamma(173, -3 pi), just beyond the float range
    ("eval", "c2", "--k", "-171.5", "--m", "1", "--n", "1", "--r", "1"),
    ("verify", "mu-transform", "--two-m", "3"),
    # the c3 factor i sqrt(pi) erfi(b) at b^2 = 500 pi
    ("eval", "c3", "--k", "0.5", "--m", "0.5", "--n", "0", "--r", "5", "--tau", "0.1+10i"),
    # the reciprocal of a jet whose value is a subnormal float
    ("eval", "c3", "--tau", "1e-320i", "--n", "1", "--r", "1", "--m", "1"),
    ("eval", "c4sk", "--tau", "1e-320i", "--n", "1", "--r", "1", "--m", "1"),
    ("eval", "c3", "--tau", "1e-310i", "--n", "1", "--r", "1", "--m", "-1"),
    # q^(-n^2/2) of the R-series, and 1/theta(z2) of the Appell part, at a
    # large Im tau
    ("eval", "R", "--tau", "1e308i"),
    ("eval", "mu_hat_ml", "--m", "1", "--tau", "1e308i"),
    ("eval", "mu_hat_ml", "--m", "1", "--tau", "1000i"),
    # G_-3(w) near w = 0, where it diverges like 1 / w^2 (k = 7/2)
    ("eval", "c4", "--k", "3.5", "--m", "1", "--n", "-5", "--r", "0", "--tau", "0+1e-300i"),
    ("eval", "c2", "--k", "3.5", "--m", "1", "--n", "-5", "--r", "0", "--tau", "0+1e-300i"),
    ("grid", "c2", "--k", "3.5", "--m", "1", "--n", "-5", "--r", "0", "--tau", "0+1e-300i"),
]


@pytest.mark.parametrize("args", OVERFLOW_CASES)
def test_value_overflow_exits_5_without_traceback(args):
    res = run_cli(*args)
    assert res.returncode == cli.EXIT_OVERFLOW == 5, res.stderr
    assert res.stderr.startswith("value overflow:")
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("tau", ["1e306i", "1e308i"])
@pytest.mark.parametrize("args,want", [
    (("theta",), 0.0),
    (("theta_ml", "--m", "1"), 1.0),
], ids=["theta", "theta_ml"])
def test_theta_series_at_huge_im_tau_keep_their_constant_term(args, want, tau):
    # every term but q^0 is 0; at 1e308i pi Im tau itself is beyond the
    # float range, and the radius bound is 0 rather than inf / inf
    res = run_cli("eval", *args, "--tau", tau)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    assert json.loads(res.stdout)["value"] == [want, 0.0]


# at k = -170.5 the exponent j = 1/2 - k is 171, and j! = 1.24e309 alone
# exceeds the float range, where the values below do not
@pytest.mark.parametrize("args,want", [
    # c2 at tau = i, z = 0: q^n zeta^r e^(2w) G_j(w) = e^(-2 pi) Gamma(172, -2w),
    # with w = pi D y / 2m = 3 pi / 2
    (("c2", "--k", "-170.5", "--m", "1", "--n", "1", "--r", "1"),
     lambda: mpmath.exp(-2 * mpmath.pi) * mpmath.gammainc(172, -3 * mpmath.pi)),
    # H(w) = e^(-w) Gamma(172, -2w)
    (("H", "--k", "-170.5", "--w", "5"), lambda: mpmath.exp(-5) * mpmath.gammainc(172, -10)),
    # c2 at tau = 200i, z = 0, n = 0: Gamma(172, 200 pi) = 5.6e205, while
    # G_171(w) = e^(200 pi) Gamma(172, 200 pi) at w = -100 pi is beyond the
    # float range: the term folds log G into its exponent
    (("c2", "--k", "-170.5", "--m", "1", "--n", "0", "--r", "1", "--tau", "0+200i"),
     lambda: mpmath.gammainc(172, 200 * mpmath.pi)),
], ids=["c2", "H", "c2-large-G"])
def test_eval_at_large_exponent_matches_mpmath(args, want, capsys):
    code, out, err = run_main(capsys, "eval", *args)
    assert code == 0, err
    with mpmath.workdps(30):
        want = float(want())
    got = complex(*json.loads(out)["value"])
    assert abs(got - want) <= 1e-11 * abs(want)


def test_eval_c3_matches_mpmath_where_its_factor_is_large(capsys):
    # r + 2mv/y = 5 at z = 0, so the factor is i sqrt(pi) erfi(b) with
    # b^2 = pi y 25 / m = 200 pi, where its positive series needs 840 terms
    code, out, err = run_main(capsys, "eval", "c3", "--k", "0.5", "--m", "0.5", "--n", "0",
                              "--r", "5", "--tau", "0.1+4i")
    assert code == 0, err
    with mpmath.workdps(30):
        want = complex(1j * mpmath.sqrt(mpmath.pi) * mpmath.erfi(mpmath.sqrt(200 * mpmath.pi)))
    got = complex(*json.loads(out)["value"])
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("error", [JetUnavailable, NonFinite, StencilOutOfDomain])
def test_evaluation_failures_exit_6(error, monkeypatch, capsys):
    def fail(jv):
        raise error("no jet here")

    monkeypatch.setitem(catalog.CATALOG, "theta",
                        catalog.Entry((), "plain", lambda policy: FunctionHandle(jet_fn=fail)))
    code, out, err = run_main(capsys, "eval", "theta")
    assert code == cli.EXIT_EVALUATION == 6
    assert err.startswith("evaluation failure (%s): no jet here" % error.__name__)


def test_every_exit_code_is_documented():
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert codes == {1, 2, 3, 4, 5, 6}
    for code in codes:
        assert "%d " % code in cli.__doc__


# the series subcommands execute only the series modules (and no scipy);
# the other layers stay registered, unexecuted, until first use
SERIES_COMMANDS = [
    ["eval", "theta"],
    ["eval", "theta_ml", "--m", "3", "--l", "1"],
    ["eval", "R", "--z", "0.1+0.2i"],
    ["eval", "mu", "--z", "0.31+0.55i", "--z2", "0.17-0.23i"],
    ["eval", "mu_hat_ml", "--m", "1", "--l", "0"],
    ["eval", "R_hat_ml", "--m", "1", "--l", "0"],
    ["eval", "mu_hat_2", "--z", "0.1+0.2i"],
    ["grid", "theta_ml", "--steps", "2", "2"],
    ["grid", "mu_hat_ml", "--steps", "2", "2", "--tau", "0.1+1.1i"],
]


def test_series_commands_execute_only_the_series_modules():
    script = (
        "import sys, types\n"
        "from mjlab.cli import main\n"
        "for argv in %r:\n"
        "    main(argv)\n"
        "print(' '.join(sorted(m for m, mod in sys.modules.items()\n"
        "                      if m.startswith(('mjlab', 'scipy'))\n"
        "                      and type(mod) is types.ModuleType)))\n"
        % (SERIES_COMMANDS,)
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.splitlines()[-1].split())
    assert loaded == {"mjlab", "mjlab.catalog", "mjlab.cli", "mjlab.core", "mjlab.errors",
                      "mjlab.jets", "mjlab.mu", "mjlab.special"}


def test_kernel_terms_at_weight_one_half_do_not_load_scipy():
    script = (
        "import sys\n"
        "from mjlab.cli import main\n"
        "for name in ('c1', 'c2', 'c3', 'c4'):\n"
        "    for m in ('1', '-1'):\n"
        "        main(['eval', name, '--m', m, '--n', '1', '--r', '1', '--z', '0.1+0.2i'])\n"
        "print('scipy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_kernel_terms_at_weight_three_halves_and_H_do_not_load_scipy():
    # the weight-3/2 kernel needs the exponential integrals E1 and Ei
    script = (
        "import sys\n"
        "from mjlab.cli import main\n"
        "for name in ('c1', 'c2', 'c3', 'c4', 'c1sk', 'c2sk', 'c3sk', 'c4sk'):\n"
        "    for m in ('1', '-1'):\n"
        "        main(['eval', name, '--k', '1.5', '--m', m, '--n', '1', '--r', '1',\n"
        "              '--z', '0.1+0.2i'])\n"
        "for k in ('-1.5', '-0.5', '0.5', '1.5'):\n"
        "    for w in ('-0.7', '0.4'):\n"
        "        main(['eval', 'H', '--w', w, '--k', k])\n"
        "print('scipy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


TAU, Z = 0.13 + 1.1j, 0.21 + 0.17j
AT_POINT = ("--tau", "0.13+1.1i", "--z", "0.21+0.17i")
KERNEL_ARGS = ("--k", "0.5", "--m", "-1", "--n", "-1", "--r", "1")


def C(w):
    return Jet.constant(complex(w), 0)


def _kernel_case(name):
    params = KernelParams.of(0.5, -1, -1, 1)
    h = kernel_term_handle(int(name[1]), params, skew=name.endswith("sk"))
    jv = JetVars.at(EvalPoint.from_tau_z(TAU, Z), 0)
    return KERNEL_ARGS, lambda: h.jet_at(jv).value


# catalog name -> (eval arguments besides the point, order-0 evaluation of
# its jet form; the scalars E and H have only their point evaluators)
EVAL_CASES = {
    "theta": ((), lambda: jacobi_theta_jet(C(TAU), C(Z)).value),
    "theta_ml": (("--m", "1", "--l", "1"),
                 lambda: theta_ml_jet(2, 1.0, C(TAU), C(Z)).value),
    "R": ((), lambda: zwegers_R_jet(C(TAU), C(Z)).value),
    "E": (("--w", "0.3"), lambda: complex(error_completion_E(0.3))),
    "H": (("--w", "0.7", "--k", "1.5"), lambda: complex(H_function(0.7, 1.5))),
    "mu": (("--m", "1", "--z2", "0.17-0.23i"),
           lambda: mu_m_jet(2, C(TAU), C(Z), C(0.17 - 0.23j)).value),
    "mu_hat_ml": (("--m", "1", "--l", "1"),
                  lambda: mu_hat_component_jet(2, 1.0, C(TAU), C(Z)).value),
    "R_hat_ml": (("--m", "1.5", "--l", "0.5"),
                 lambda: r_hat_component_jet(3, 0.5, C(TAU), C(Z)).value),
    "mu_hat_2": ((), lambda: mu_hat_2_jet(C(TAU), C(Z)).value),
}
for _name in ("c1", "c2", "c3", "c4", "c1sk", "c2sk", "c3sk", "c4sk"):
    EVAL_CASES[_name] = _kernel_case(_name)


def test_eval_cases_cover_the_catalog():
    assert set(EVAL_CASES) == set(catalog.CATALOG)


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_catalog_entries_build_what_their_tag_says(name):
    args, _ = EVAL_CASES[name]
    given = dict(zip(args[::2], args[1::2]))
    options = {"k": float(given.get("--k", 0.5)), "m": float(given.get("--m", 1.0)),
               "l": float(given.get("--l", 0.0)), "n": int(given.get("--n", 0)),
               "r": int(given.get("--r", 0)), "z2": parse_complex(given.get("--z2", "0"))}
    tag = catalog.CATALOG[name].tag
    form = catalog.build(name, **options)
    if tag == "scalar":
        assert not isinstance(form, (FunctionHandle, TaggedForm)) and callable(form)
    elif tag == "plain":
        assert isinstance(form, FunctionHandle)
    else:
        # twice the value of each term a tag may name
        twice = {"k": 2 * options["k"], "m": 2 * options["m"], "-m": -2 * options["m"],
                 "1/2": 1, "-1/2": -1}
        weight, index, kind = tag
        assert (form.weight_index.two_k, form.weight_index.two_m) == (twice[weight], twice[index])
        assert form.action_kind == kind


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_eval_prints_the_jet_form_value(name, capsys):
    args, jet_value = EVAL_CASES[name]
    code, out, err = run_main(capsys, "eval", name, *args, *AT_POINT)
    assert code == 0, err
    want = jet_value()
    assert json.loads(out)["value"] == [want.real, want.imag]


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
@pytest.mark.parametrize("tau_grid", [False, True])
def test_every_grid_row_is_the_eval_at_its_point(name, tau_grid, capsys):
    # grid and eval build the catalog entry alike and evaluate it alike: a
    # scalar (E, H) at w, the first coordinate of the window, any other
    # function at the row's point
    args, _ = EVAL_CASES[name]
    w_at = args.index("--w") if "--w" in args else len(args)
    args = args[:w_at] + args[w_at + 2:]
    # corners whose grid coordinates are exact binary fractions
    window = ("--min", "0.125", "0.875", "--max", "0.375", "1.25") if tau_grid else (
        "--min", "0.125", "0.25", "--max", "0.375", "0.5")
    code, out, err = run_main(capsys, "grid", name, *args, *AT_POINT, "--steps", "2", "2",
                              *window, *(("--tau-grid",) if tau_grid else ()))
    assert code in (0, None), err
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert len(rows) == 4
    for x, y, u, v, re, im, pole in rows:
        assert pole == "0"
        code, out, err = run_main(capsys, "eval", name, *args, "--w", x if tau_grid else u,
                                  "--tau", "%s+%si" % (x, y), "--z", "%s+%si" % (u, v))
        assert code in (0, None), err
        want = json.loads(out)["value"]
        assert [re, im] == ["%.12g" % want[0], "%.12g" % want[1]]


def test_catalog_commands_run_under_the_perfbench_tracer(capsys, monkeypatch):
    # the perfbench tracer rebinds every public mjlab function, also inside
    # tuples held by module-level tables such as the catalog that cli imports;
    # the catalog must keep working and its evaluations must reach the
    # rebound series
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer

    from mjlab import verify  # noqa: F401  (the tracer reads verify.SUITES)

    t = tracer.Tracer()
    t.install()
    try:
        assert all(isinstance(entry, catalog.Entry) for entry in catalog.CATALOG.values())
        grid = run_main(capsys, "grid", "R", "--steps", "2", "2",
                        "--min", "0.1", "0.1", "--max", "0.3", "0.2")
        theta = run_main(capsys, "eval", "theta", *AT_POINT)
    finally:
        t.uninstall()
    assert grid[0] in (0, None), grid[2]
    assert theta[0] in (0, None), theta[2]
    assert t.stats["special.zwegers_R_jet"][0] == 4
    assert t.stats["special.jacobi_theta_jet"][0] == 1


def test_suites_run_under_the_perfbench_tracer(monkeypatch):
    # the tracer rebinds FunctionHandle.jet_at, group.slash and
    # group.skew_slash, and the memo of a suite's computation sits behind
    # all three: the traced rows are the untraced rows
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer

    from mjlab import verify

    suites = ("covariance", "hygiene")
    want = {name: [res.as_dict() for res in verify.run_suite(name)] for name in suites}
    t = tracer.Tracer()
    t.install()
    try:
        got = {name: [res.as_dict() for res in verify.run_suite(name)] for name in suites}
    finally:
        t.uninstall()
    assert got == want
    assert t.stats["core.FunctionHandle.jet_at"][0] > 0
    assert t.stats["group.slash"][0] > 0 and t.stats["group.skew_slash"][0] > 0


def test_no_suite_and_no_catalog_eval_loads_scipy():
    # scipy is a test-only dependency: the oracles of the test suite use it,
    # no program path does
    evals = [["eval", name, *args, *AT_POINT] for name, (args, _) in sorted(EVAL_CASES.items())]
    script = (
        "import sys\n"
        "from mjlab import verify\n"
        "from mjlab.cli import main\n"
        "for name in verify.SUITES:\n"
        "    verify.run_suite(name)\n"
        "for argv in %r:\n"
        "    main(argv)\n"
        "print('scipy' in sys.modules)\n"
        % (evals,)
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("m", ["4", "0"])
def test_eval_r_hat_ml_rejects_ranks_outside_the_family(m, capsys):
    code, _, err = run_main(capsys, "eval", "R_hat_ml", "--m", m)
    assert code == 1
    assert err.startswith("domain error:")


# each request lies outside the declared domain in one parameter
DOMAIN_CASES = [
    ("eval", "c2", "--k", "0.74", "--m", "-1.26", "--n", "-1", "--r", "1",
     "--tau", "0.1+1.1i"),
    ("eval", "mu", "--m", "1.2", "--tau", "0.1+1.1i"),
    ("eval", "mu_hat_ml", "--m", "1", "--l", "2", "--tau", "0.1+1.1i", "--z", "0.2+0.1i"),
    ("eval", "R_hat_ml", "--m", "1", "--l", "0.3", "--tau", "0.1+1.1i"),
    ("eval", "theta_ml", "--tau", "0.1-1i"),
    ("eval", "theta_ml", "--tau", "0.1"),
    # every number of a request is finite
    ("eval", "theta_ml", "--l", "nan"),
    ("eval", "theta_ml", "--l", "inf"),
    ("eval", "R", "--tau", "0.1+1i", "--z", "nan"),
    ("eval", "theta", "--tau", "nan+1i"),
    ("eval", "mu", "--z2", "nan"),
    ("eval", "H", "--w", "nan"),
    ("eval", "E", "--w", "nan"),
    # H at w = 0 diverges for k >= 3/2
    ("eval", "H", "--w", "0", "--k", "1.5"),
    ("eval", "theta", "--z", "inf+0i"),
    # the tail target lies strictly between 0 and 1
    ("eval", "theta", "--tail", "2"),
    ("eval", "theta", "--tail", "inf"),
    ("eval", "R", "--tail", "5"),
    ("grid", "theta", "--steps", "2", "2", "--tail", "inf"),
    # covariance names its operator and generator
    ("verify", "covariance", "--gen", "nu"),
    ("verify", "covariance", "--op", "X+", "--gen", "nu"),
    ("verify", "covariance", "--op", "Z+"),
    # every rank of a verify request is checked before any row is computed
    ("verify", "weil", "--two-m", "-1"),
    ("verify", "weil", "--two-m", "7"),
    ("verify", "mu-transform", "--two-m", "-2"),
    # a suite reads only its own options
    ("verify", "kernels", "--k", "1.5"),
    ("verify", "covariance", "--two-m", "3"),
    ("verify", "weil", "--seed", "5"),
    ("verify", "xi-images", "--two-m", "2"),
    ("verify", "hygiene", "--op", "X+"),
    ("verify", "decomposition-roundtrip", "--k", "0.5"),
    # every tolerance is finite and positive
    ("verify", "weil", "--tol", "nan"),
    ("verify", "weil", "--tol", "-1"),
    ("verify", "weil", "--tol", "0"),
]


@pytest.mark.parametrize("args", DOMAIN_CASES, ids=" ".join)
def test_requests_outside_the_domain_exit_1_with_one_line(args, capsys):
    code, out, err = run_main(capsys, *args)
    assert code == cli.EXIT_USAGE == 1
    assert out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1, err


HALF_INTEGERS = st.integers(-8, 8).map(lambda n: n / 2)
NOT_HALF_INTEGERS = st.floats(-4, 4).filter(lambda x: abs(2 * x - round(2 * x)) > 1e-6)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _or_non_finite(numbers):
    return st.one_of(numbers, NON_FINITE)


def _literal(w):
    im = repr(w.imag)
    return "%r%s%si" % (w.real, "" if im.startswith("-") else "+", im)


@st.composite
def eval_requests(draw):
    """`eval` arguments of any catalog function.  Half of the requests lie
    in the declared domain: k and m half-integers, 2m from 1 to 6,
    canonical labels, finite numbers, Im(tau) from 0.5 to 20 and r from -6
    to 6 (reaching the overflow of the c3/c4 factor).  The other half may
    also draw 2m = 0, 7, 8, k and m not half-integers, other labels,
    Im(tau) on and off the boundary of the upper half plane and below the
    normal float range, Im(z) near the float range, nan and +-inf for the
    label, w and each part of tau, z and z2, and tail targets of 1 or
    more."""
    inside = draw(st.booleans())

    def number(domain, outside=NON_FINITE):
        return draw(domain if inside else st.one_of(domain, outside))

    two_m = draw(st.integers(1, 6) if inside else st.integers(0, 8))
    m = number(st.sampled_from([two_m / 2, -two_m / 2]), NOT_HALF_INTEGERS)
    l = number(st.sampled_from(labels(two_m) or [0.0]),
               st.one_of(st.floats(-3, 9).map(lambda x: round(x, 2)), NON_FINITE))
    y = number(st.floats(0.5, 20.0),
               st.one_of(st.sampled_from([-1.0, 0.0, 1e-3, 1e-310, 1e-320]), NON_FINITE))
    tau = complex(number(st.floats(-0.5, 0.5)), y)
    v = number(st.floats(-1.0, 1.0), st.one_of(st.sampled_from([1e300, -1e300]), NON_FINITE))
    z = complex(number(st.floats(-0.5, 0.5)), v)
    z2 = complex(number(st.just(0.17)), number(st.just(-0.23)))
    tail = None if inside else draw(st.one_of(st.none(), st.sampled_from([2.0, math.inf])))
    return [
        "eval", draw(st.sampled_from(sorted(catalog.CATALOG))),
        "--k=%r" % number(HALF_INTEGERS, NOT_HALF_INTEGERS),
        "--m=%r" % m, "--l=%r" % l,
        "--n=%d" % draw(st.integers(-2, 2)), "--r=%d" % draw(st.integers(-6, 6)),
        "--w=%r" % number(st.one_of(st.just(0.0), st.floats(-5.0, 5.0))),
        "--tau=" + _literal(tau), "--z=" + _literal(z), "--z2=" + _literal(z2),
    ] + ([] if tail is None else ["--tail=%r" % tail])


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=eval_requests())
def test_eval_fuzz_ends_in_a_documented_exit_code_and_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(7), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    if not code:  # a record in strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@st.composite
def kernel_requests(draw):
    """`eval` arguments of the kernel terms inside their declared domain:
    k an odd multiple of 1/2 (as H needs), m a nonzero half-integer, n and
    r from -6 to 6, Im(tau) from 0.5 to 20 and Im(z) from -1 to 1, which
    reaches the overflow of the c3/c4 factor i sqrt(pi) erfi(b)."""
    return [
        "eval", draw(st.sampled_from(["c%d%s" % (i, sk) for i in (1, 2, 3, 4)
                                      for sk in ("", "sk")])),
        "--k=%r" % (draw(st.integers(-4, 3)) + 0.5),
        "--m=%r" % draw(HALF_INTEGERS.filter(bool)),
        "--n=%d" % draw(st.integers(-6, 6)), "--r=%d" % draw(st.integers(-6, 6)),
        "--tau=" + _literal(complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.5, 20.0)))),
        "--z=" + _literal(complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-1.0, 1.0)))),
    ]


def _kernel_reference(argv):
    """The mpmath value of the kernel term that `eval` arguments
    ("eval", name, "--opt=value", ...) request, with eval's defaults."""
    opts = {"k": "0.5", "m": "1.0", "n": "0", "r": "0", "tau": "0+1i", "z": "0+0i"}
    opts.update(arg[2:].split("=", 1) for arg in argv[2:])
    return ref.kernel_term(argv[1], float(opts["k"]), float(opts["m"]), int(opts["n"]),
                           int(opts["r"]), parse_complex(opts["tau"]), parse_complex(opts["z"]))


def _check_kernel_term(argv, code, out, err):
    """A kernel term request printed mpmath's value to 1e-11 relative or
    1e-290 absolute, or exited 5 where mpmath's |term| exceeds 1e290.  The
    exponent E of a term reaches several thousand here, and rounds to
    about |E| 1e-16."""
    want = _kernel_reference(argv)
    if code == cli.EXIT_OVERFLOW:
        assert abs(want) > 1e290, (argv, err, want)
        return
    assert not code, (argv, err)
    got = mpmath.mpc(*json.loads(out, parse_constant=_reject_constant)["value"])
    assert abs(got - want) <= max(1e-11 * abs(want), 1e-290), (argv, got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=kernel_requests())
def test_kernel_fuzz_evaluates_or_overflows(argv):
    # inside the domain a kernel term is mpmath's value, or a value overflow
    # where it exceeds the floating-point range
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    _check_kernel_term(argv, code, out.getvalue(), err.getvalue())


# kernel terms whose exponentials overflow or underflow apart, although the
# term is a float (or below the smallest one)
SCALED_TERM_CASES = [
    ("eval", "c3sk", "--k=3.5", "--m=0.5", "--n=2", "--r=-6", "--tau=0+17.25i", "--z=0+1i"),
    ("eval", "c4", "--k=1.5", "--m=0.5", "--n=0", "--r=5", "--tau=0.1+10i"),
    ("eval", "c2", "--n=-50", "--tau=0.1+3i"),
    ("eval", "c2sk", "--n=50", "--tau=0.1+3i"),
    ("eval", "c4sk", "--n=50", "--r=1", "--tau=0.1+3i"),
    ("eval", "c1sk", "--n=-3", "--tau=0.1+40i"),
]


@pytest.mark.parametrize("argv", SCALED_TERM_CASES, ids=" ".join)
def test_kernel_terms_with_one_exponential_match_mpmath(argv, capsys):
    code, out, err = run_main(capsys, *argv)
    assert code == 0, err
    _check_kernel_term(argv, code, out, err)


@st.composite
def verify_requests(draw):
    """`verify` arguments of the suites that take a rank or a weight, each
    with only the options it reads: 2m from -3 to 8 for weil and
    mu-transform; k and m half-integers, other floats or non-finite, and
    small n, r for xi-images."""
    suite = draw(st.sampled_from(["weil", "mu-transform", "xi-images"]))
    if suite != "xi-images":
        return ["verify", suite, "--two-m=%d" % draw(st.integers(-3, 8))]
    k, m = (draw(_or_non_finite(st.one_of(HALF_INTEGERS, st.floats(-4, 4)))) for _ in "km")
    return [
        "verify", suite, "--k=%r" % k, "--m=%r" % m,
        "--n=%d" % draw(st.integers(-2, 2)), "--r=%d" % draw(st.integers(-2, 2)),
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=verify_requests())
def test_verify_fuzz_ends_in_a_documented_exit_code_and_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(7), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    if code in (0, None, cli.EXIT_FAILED):  # a report in strict JSON
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_eval_writes_to_file(tmp_path):
    out = tmp_path / "value.json"
    res = run_cli("eval", "E", "--w", "0.0", "--out", str(out))
    assert res.returncode == 0
    record = json.loads(out.read_text())
    assert abs(complex(*record["value"])) < 1e-14


# a file that cannot be written or read is a usage error: exit 1, one line
IO_ERROR_CASES = [
    (("eval", "theta", "--out", "{missing}/x.json"), "cannot write {missing}/x.json"),
    (("verify", "weil", "--two-m", "2", "--out", "{missing}/x.json"),
     "cannot write {missing}/x.json"),
    (("grid", "theta", "--steps", "2", "2", "--out", "{missing}/x.csv"),
     "cannot write {missing}/x.csv"),
    (("decompose", "--in", "{tmp}"), "cannot read {tmp}: Is a directory"),
    (("decompose", "--in", "{missing}/data.txt"), "cannot read {missing}/data.txt"),
    (("decompose", "--in", "{binary}"), "cannot read {binary}: "),
]


@pytest.mark.parametrize("args,message", IO_ERROR_CASES, ids=[a[0] + " " + a[-2]
                                                              for a, _ in IO_ERROR_CASES])
def test_file_errors_exit_1_without_traceback(args, message, tmp_path):
    paths = {"missing": str(tmp_path / "missing"), "tmp": str(tmp_path),
             "binary": str(tmp_path / "binary.txt")}
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")  # not UTF-8 text
    res = run_cli(*(arg.format(**paths) for arg in args))
    assert res.returncode == cli.EXIT_USAGE == 1
    assert res.stdout == ""
    assert res.stderr.startswith("usage error: " + message.format(**paths))
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr


# ----------------------------------------------------------------------
# verify


def test_verify_weil_suite_passes():
    res = run_cli("verify", "weil", "--two-m", "2")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["passed"] is True
    assert all(c["max_residual"] < c["tol"] for c in report["checks"])


def test_verify_report_gives_the_suite_wall_time(capsys):
    code, out, err = run_main(capsys, "verify", "weil", "--two-m", "2")
    assert code in (0, None), err
    report = json.loads(out)
    assert list(report) == ["suite", "checks", "passed", "seconds"]
    seconds = report["seconds"]
    assert type(seconds) is float and math.isfinite(seconds) and seconds >= 0.0


def test_verify_report_names_the_worst_point_of_each_check(capsys):
    """A check taken over points names the point [x, y, u, v] of its
    largest residual; a check not taken over points names none."""
    code, out, err = run_main(capsys, "verify", "xi-images")
    assert code in (0, None), err
    checks = {c["identity"]: c for c in json.loads(out)["checks"]}
    points = [EvalPoint(0.13, 1.1, 0.21, 0.17), EvalPoint(-0.40, 0.9, 0.05, 0.31),
              EvalPoint(0.31, 1.6, -0.12, 0.23), EvalPoint(0.02, 0.8, 0.40, -0.27),
              EvalPoint(-0.20, 1.3, 0.33, 0.41)]
    coords = [[p.x, p.y, p.u, p.v] for p in points]
    assert all(c["worst_point"] in coords for c in checks.values())
    # xi^H(c_3) = -2 sqrt(pi) c_1^sk at [k, -m, -n, -r], one point at a time
    params = KernelParams.of(0.5, -1, -1, 1)
    lhs = xi_H(params, kernel_term_handle(3, params))
    rhs = kernel_term_handle(1, params.xi_H_partner(), skew=True)
    gaps = [abs(lhs.eval(p) + 2.0 * math.sqrt(math.pi) * rhs.eval(p)) for p in points]
    check = checks["xi-image:xiH(c3)@[0.5,-1,-1,1]"]
    assert check["worst_point"] == coords[gaps.index(max(gaps))]
    assert check["max_residual"] == pytest.approx(max(gaps), rel=1e-6)
    # a check taken at one point names it; the Weil matrix rows use none
    code, out, err = run_main(capsys, "verify", "weil", "--two-m", "2")
    assert code in (0, None), err
    worst = {c["identity"]: c["worst_point"] for c in json.loads(out)["checks"]}
    assert worst == {
        "weil:unitarity:T@2m=2": None, "weil:unitarity:S@2m=2": None,
        "weil:braid:(ST)^3=S^2@2m=2": None, "weil:S^8=1@2m=2": None,
        "weil:theta-vector-invariance:T@2m=2": [0.17, 1.2, 0.13, 0.21],
        "weil:theta-vector-invariance:S@2m=2": [0.17, 1.2, 0.13, 0.21],
    }


@pytest.mark.parametrize("args,params", [
    (("--n", "3", "--r", "2"), "[0.5,1,3,2]"),
    (("--r", "1"), "[0.5,1,0,1]"),
    (("--k", "1.5"), "[1.5,1,0,1]"),
])
def test_verify_xi_images_runs_the_requested_parameters(args, params, capsys):
    # any of --k, --m, --n and --r selects the parameters, with the defaults
    # k = 1/2, m = 1, n = 0 and r = 0 (r = 1 and 0 when n and r are absent)
    code, out, err = run_main(capsys, "verify", "xi-images", *args)
    assert code in (None, 0, cli.EXIT_FAILED), err
    tags = {c["identity"].rsplit("@", 1)[1] for c in json.loads(out)["checks"]}
    assert params in tags and "[0.5,-1,-1,1]" not in tags


def test_verify_seed_reaches_decomposition_roundtrip(monkeypatch, capsys):
    seen = []
    suite = cli.verify.SUITES["decomposition-roundtrip"]
    monkeypatch.setitem(cli.verify.SUITES, "decomposition-roundtrip",
                        lambda **kw: seen.append(kw) or suite(**kw))
    for argv in (("--seed", "5"), ()):
        code, out, err = run_main(capsys, "verify", "decomposition-roundtrip", *argv)
        assert code in (None, 0), err
    assert seen == [{"seed": 5}, {}]


def test_verify_unknown_suite_is_usage_error():
    res = run_cli("verify", "no-such-suite")
    assert res.returncode == 1


def test_verify_failing_suite_exits_4():
    # the S-transformation rows of the completed component family are a
    # recorded faithful failure, so this suite must exit nonzero
    res = run_cli("verify", "mu-transform", "--two-m", "1")
    assert res.returncode == 4
    report = json.loads(res.stdout)
    assert report["passed"] is False
    failing = [c for c in report["checks"] if c["max_residual"] >= c["tol"]]
    assert failing and all("S" in c["identity"] for c in failing)


@pytest.mark.parametrize("args", [
    ("eval", "c2", "--k", "1", "--m", "1", "--n", "1", "--r", "1"),
    ("verify", "xi-images", "--k", "1", "--m", "1", "--n", "1", "--r", "1"),
])
def test_g_kernel_terms_at_an_integral_weight_name_the_term(args, capsys):
    # G, the factor of c2, c4, c2sk and c4sk where D != 0, needs 2k odd
    code, out, err = run_main(capsys, *args)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == ("domain error: c2[1,1,1,1] needs k an odd multiple of 1/2 where D != 0,"
                   " got k=1\n")


def test_every_suite_option_is_a_verify_option_and_every_verify_option_is_read():
    options = {key[2:].replace("-", "_") for key in cli.COMMANDS["verify"].options}
    declared = {name for reads in cli.verify.SUITE_OPTIONS.values() for name in reads}
    assert declared <= options
    assert options - declared == {"tol", "out"}
    assert set(cli.verify.SUITE_OPTIONS) == set(cli.verify.SUITES)
    # a suite's options are its parameters after its points
    for name, suite in cli.verify.SUITES.items():
        params = list(inspect.signature(suite).parameters)
        assert params[0] in ("points", "point") and tuple(params[1:]) == \
            cli.verify.SUITE_OPTIONS[name]


def test_an_option_the_suite_does_not_read_is_named_with_what_it_reads(capsys):
    code, out, err = run_main(capsys, "verify", "kernels", "--two-m", "2")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "domain error: suite 'kernels' does not read --two-m; it reads --tol, --out\n"


# ----------------------------------------------------------------------
# decompose


THETA_INPUT = """index 2m=2
0 0 1 0
1 2 1 0
1 -2 1 0
4 4 1 0
"""


def test_decompose_theta_input(tmp_path):
    res = run_cli("decompose", stdin=THETA_INPUT)
    assert res.returncode == 0, res.stderr
    h = json.loads(res.stdout)
    assert h["0"] == [[0, 1, 1.0, 0.0]]
    assert h["1"] == []


def test_decompose_violation_exits_4():
    bad = "index 2m=2\n0 0 1 0\n1 2 2 0\n"
    res = run_cli("decompose", stdin=bad)
    assert res.returncode == 4
    assert "decomposable" in res.stderr.lower()


@pytest.mark.parametrize("text", ["index 2m=abc\n", "index 2m=2\n0 0 x 1\n"])
def test_decompose_malformed_numbers_exit_1(text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_main(capsys, "decompose")
    assert code == 1
    bad = text.splitlines()[-1]
    assert err.startswith("domain error: malformed line %r" % bad) and err.count("\n") == 1


def test_decompose_reads_file(tmp_path):
    src = tmp_path / "data.txt"
    src.write_text(THETA_INPUT)
    out = tmp_path / "h.json"
    res = run_cli("decompose", "--in", str(src), "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["0"] == [[0, 1, 1.0, 0.0]]


# ----------------------------------------------------------------------
# grid


def test_grid_shape_and_header():
    res = run_cli("grid", "theta_ml", "--m", "1", "--l", "0",
                  "--tau", "0.1+1.2i", "--steps", "4", "5")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "x,y,u,v,re,im,pole"
    assert len(lines) == 1 + 4 * 5
    assert all(row.endswith(",0") for row in lines[1:])


def test_grid_flags_pole_rows():
    res = run_cli("grid", "mu_hat_2", "--tau", "1i", "--steps", "3", "3",
                  "--min", "0", "0", "--max", "1", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()[1:]
    pole_rows = [row for row in lines if row.split(",")[6] == "1"]
    assert pole_rows, lines
    for row in pole_rows:
        parts = row.split(",")
        assert parts[4] == "" and parts[5] == ""


@pytest.mark.parametrize("k", [0.5, -1.5, 1.5, 2.5])
def test_grid_H_runs_through_w_0(k, capsys):
    """The default window starts at w = 0, where H(0) = (1/2 - k)! for
    k <= 1/2 and H is undefined for k >= 3/2: a flagged row with empty
    value fields.  Every other row is H at its w."""
    code, out, err = run_main(capsys, "grid", "H", "--k", repr(k), "--steps", "3", "3")
    assert code in (0, None), err
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert len(rows) == 9
    for row in rows:
        w = float(row[2])
        if w == 0 and k >= 1.5:
            assert row[4:] == ["", "", "1"]
        else:
            assert row[4:] == ["%.12g" % H_function(w, k), "0", "0"]
    assert {row[4] for row in rows[:3]} == ({""} if k >= 1.5 else {
        "%.12g" % math.factorial(int(0.5 - k))})


def test_grid_rejects_bad_steps():
    res = run_cli("grid", "theta_ml", "--steps", "0", "5")
    assert res.returncode == 1
