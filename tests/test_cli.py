"""The command line interface: formats, exit codes, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjlab import cli
from mjlab.cli import parse_complex
from mjlab.core import EvalPoint, JetVars, labels
from mjlab.errors import JetUnavailable, NonFinite, StencilOutOfDomain
from mjlab.jets import Jet
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.mu import mu_hat_2_jet, mu_hat_component_jet, mu_m_jet, r_hat_component_jet
from mjlab.special import (
    H_jet,
    error_completion_E,
    jacobi_theta_jet,
    theta_ml_handle,
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
    ],
)
def test_parse_complex(text, want):
    assert parse_complex(text) == want


def test_parse_complex_rejects_garbage():
    import click

    with pytest.raises(click.UsageError):
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
    want = theta_ml_handle(2, 1).eval(EvalPoint(0.13, 1.1, 0.21, 0.17))
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


def test_eval_truncation_overflow_exits_3():
    res = run_cli("eval", "theta_ml", "--m", "1", "--tau", "0+0.02i",
                  "--radius", "3")
    assert res.returncode == 3


def run_main(capsys, *args):
    """In-process `mjlab ARGS...`: (exit code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# every library error ends in a documented exit code and one message line

OVERFLOW_CASES = [
    ("eval", "R", "--tau", "0.1+10i", "--z", "0.1+3i"),
    ("eval", "c2", "--n", "50", "--tau", "0.1+3i"),
    ("eval", "H", "--w", "800"),
    ("verify", "mu-transform", "--two-m", "3"),
]


@pytest.mark.parametrize("args", OVERFLOW_CASES)
def test_value_overflow_exits_5_without_traceback(args):
    res = run_cli(*args)
    assert res.returncode == cli.EXIT_OVERFLOW == 5, res.stderr
    assert res.stderr.startswith("value overflow:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("error", [JetUnavailable, NonFinite, StencilOutOfDomain])
def test_evaluation_failures_exit_6(error, monkeypatch, capsys):
    def fail(opts, policy):
        raise error("no jet here")

    monkeypatch.setitem(cli.CATALOG, "theta", fail)
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
    assert loaded == {"mjlab", "mjlab.cli", "mjlab.core", "mjlab.errors", "mjlab.jets",
                      "mjlab.mu", "mjlab.special"}


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
# its jet form; the scalar E has only its point evaluator)
EVAL_CASES = {
    "theta": ((), lambda: jacobi_theta_jet(C(TAU), C(Z)).value),
    "theta_ml": (("--m", "1", "--l", "1"),
                 lambda: theta_ml_jet(2, 1.0, C(TAU), C(Z)).value),
    "R": ((), lambda: zwegers_R_jet(C(TAU), C(Z)).value),
    "E": (("--w", "0.3"), lambda: complex(error_completion_E(0.3))),
    "H": (("--w", "0.7", "--k", "1.5"), lambda: H_jet(C(0.7), 1.5).value),
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
    assert set(EVAL_CASES) == set(cli.CATALOG)


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_eval_prints_the_jet_form_value(name, capsys):
    args, jet_value = EVAL_CASES[name]
    code, out, err = run_main(capsys, "eval", name, *args, *AT_POINT)
    assert code == 0, err
    want = jet_value()
    assert json.loads(out)["value"] == [want.real, want.imag]


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
]


@pytest.mark.parametrize("args", DOMAIN_CASES, ids=" ".join)
def test_requests_outside_the_domain_exit_1_with_one_line(args, capsys):
    code, out, err = run_main(capsys, *args)
    assert code == cli.EXIT_USAGE == 1
    assert out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1, err


HALF_INTEGERS = st.integers(-8, 8).map(lambda n: n / 2)
NOT_HALF_INTEGERS = st.floats(-4, 4).filter(lambda x: abs(2 * x - round(2 * x)) > 1e-6)


def _literal(w):
    im = repr(w.imag)
    return "%r%s%si" % (w.real, "" if im.startswith("-") else "+", im)


@st.composite
def eval_requests(draw):
    """`eval` arguments of any catalog function: k and m half-integers or
    not, 2m from 0 to 8, canonical labels or others, Im(tau) on, near and
    off the boundary of the upper half plane."""
    two_m = draw(st.integers(0, 8))
    m = draw(st.one_of(st.just(two_m / 2), NOT_HALF_INTEGERS))
    l = draw(st.one_of(st.sampled_from(labels(two_m) or [0.0]),
                       st.floats(-3, 9).map(lambda x: round(x, 2))))
    y = draw(st.one_of(st.sampled_from([-1.0, 0.0, 1e-3]), st.floats(0.5, 3.0)))
    tau = complex(draw(st.floats(-0.5, 0.5)), y)
    z = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-1.0, 1.0)))
    return [
        "eval", draw(st.sampled_from(sorted(cli.CATALOG))),
        "--k=%r" % draw(st.one_of(HALF_INTEGERS, NOT_HALF_INTEGERS)),
        "--m=%r" % m, "--l=%r" % l,
        "--n=%d" % draw(st.integers(-2, 2)), "--r=%d" % draw(st.integers(-2, 2)),
        "--w=%r" % draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0))),
        "--tau=" + _literal(tau), "--z=" + _literal(z), "--z2=0.17-0.23i",
    ]


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


def test_eval_writes_to_file(tmp_path):
    out = tmp_path / "value.json"
    res = run_cli("eval", "E", "--w", "0.0", "--out", str(out))
    assert res.returncode == 0
    record = json.loads(out.read_text())
    assert abs(complex(*record["value"])) < 1e-14


# ----------------------------------------------------------------------
# verify


def test_verify_weil_suite_passes():
    res = run_cli("verify", "weil", "--two-m", "2")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["passed"] is True
    assert all(c["max_residual"] < c["tol"] for c in report["checks"])


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


def test_grid_mu_passes_z2_like_eval(capsys):
    window = ("--tau", "0.1+1.1i", "--min", "0.1", "0.2", "--max", "0.4", "0.5")
    code, out, err = run_main(capsys, "grid", "mu", "--z2", "0.17-0.23i",
                              "--steps", "2", "2", *window)
    assert code == 0, err
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert len(rows) == 4
    for x, y, u, v, re, im, pole in rows:
        assert pole == "0"
        code, out, err = run_main(capsys, "eval", "mu", "--z2", "0.17-0.23i",
                                  "--tau", "%s+%si" % (x, y), "--z", "%s+%si" % (u, v))
        assert code == 0, err
        want = json.loads(out)["value"]
        assert [re, im] == ["%.12g" % want[0], "%.12g" % want[1]]


def test_grid_rejects_bad_steps():
    res = run_cli("grid", "theta_ml", "--steps", "0", "5")
    assert res.returncode == 1
