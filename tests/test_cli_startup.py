"""The command line parser, its recorded outputs, and what a cold process
loads: `import mjlab.cli` executes no numpy, `decompose` runs on the
standard library alone, and the theta, R, E, H and kernel-term evals never
execute the Appell sums."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mjlab import cli

OUTPUTS = json.loads((Path(__file__).resolve().parent / "cli_outputs.json").read_text())
# the layers the perfbench tracer lists, and the two the CLI adds
LAYERS = ("jets", "core", "special", "mu", "group", "weil", "operators", "kernels", "verify",
          "catalog", "fourier")


def run_main(argv, stdin=""):
    """In-process `mjlab ARGV...`: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def run_python(script, stdin=None):
    res = subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


# ----------------------------------------------------------------------
# the parser


# command line -> the parameters it sets (every other one keeps its default)
PARSED = [
    # a value option takes the next token verbatim, also a negative number
    (["eval", "theta", "--tau", "-0.41+1.1i"], {"function": "theta", "tau": -0.41 + 1.1j}),
    (["eval", "theta_ml", "--l", "-0.5", "--w", "-2"], {"function": "theta_ml", "l": -0.5,
                                                        "w": -2.0}),
    (["eval", "c2", "--k", "-170.5", "--m", "-1", "--n", "-1", "--r", "-3"],
     {"function": "c2", "k": -170.5, "m": -1.0, "n": -1, "r": -3}),
    # --opt=value, also a negative one, and an option before the argument
    (["eval", "--z=-0.3-0.2i", "R", "--tau=0.1+2i", "--tail=1e-10"],
     {"function": "R", "z": -0.3 - 0.2j, "tau": 0.1 + 2j, "tail": 1e-10}),
    # the last of a repeated option wins
    (["eval", "theta", "--n", "1", "--n", "2"], {"function": "theta", "n": 2}),
    # two-value options and the flag
    (["grid", "theta", "--min", "-0.5", "-0.25", "--max", "0.5", "0.75", "--steps", "3", "4"],
     {"function": "theta", "lo": (-0.5, -0.25), "hi": (0.5, 0.75), "steps": (3, 4)}),
    (["grid", "mu", "--min=-0.5", "-0.25", "--tau-grid"],
     {"function": "mu", "lo": (-0.5, -0.25), "tau_grid": True}),
    (["verify", "weil", "--two-m", "3", "--tol", "1e-9"],
     {"suite": "weil", "two_m": 3, "tol": 1e-9}),
    (["verify", "covariance", "--op", "X+", "--gen", "T"],
     {"suite": "covariance", "op": "X+", "gen": "T"}),
    (["decompose", "--in", "data.txt", "--out", "h.json"], {"infile": "data.txt",
                                                           "out": "h.json"}),
    (["decompose"], {}),
]

DEFAULTS = {
    "eval": {"k": 0.5, "m": 1.0, "l": 0.0, "n": 0, "r": 0, "w": 0.0, "tau": 1j, "z": 0j,
             "z2": 0j, "radius": None, "tail": None, "out": None},
    "grid": {"k": 0.5, "m": 1.0, "l": 0.0, "n": 0, "r": 0, "tau": 1j, "z": 0j, "z2": 0j,
             "tau_grid": False, "lo": (0.0, 0.0), "hi": (1.0, 1.0), "steps": (50, 50),
             "radius": None, "tail": None, "out": None},
    "verify": dict.fromkeys(("op", "gen", "k", "m", "n", "r", "two_m", "tol", "seed", "out")),
    "decompose": {"infile": None, "out": None},
}


@pytest.mark.parametrize("argv,want", PARSED, ids=" ".join)
def test_parser_sets_the_given_parameters_and_defaults_the_rest(argv, want):
    run, kwargs = cli._parse(argv)
    assert run is cli.COMMANDS[argv[0]].run
    assert kwargs == {**DEFAULTS[argv[0]], **want}
    assert all(type(kwargs[key]) is type(value) for key, value in want.items())


# each a usage error: exit 1, one line on stderr, nothing on stdout
USAGE_ERRORS = [
    ([], "missing command"),
    (["evaluate", "theta"], "no such command 'evaluate'"),
    (["eval"], "missing argument FUNCTION"),
    (["eval", "theta", "extra"], "unexpected extra argument 'extra'"),
    # no prefix abbreviations
    (["eval", "theta", "--ta", "1i"], "no such option --ta"),
    (["eval", "theta", "-t", "1i"], "no such option -t"),
    (["eval", "theta", "--tau"], "option --tau takes 1 value"),
    (["grid", "theta", "--min", "1"], "option --min takes 2 values"),
    (["grid", "theta", "--tau-grid=1"], "option --tau-grid takes no value"),
    (["eval", "theta", "--n", "1.5"], "invalid value for --n: '1.5' is not a valid integer"),
    (["eval", "theta", "--k", "half"], "invalid value for --k: 'half' is not a valid float"),
    (["grid", "theta", "--steps", "2", "x"], "invalid value for --steps: 'x'"),
    (["eval", "theta", "--tau", "one+2i"], "cannot parse complex literal 'one+2i'"),
    (["eval", "nonexistent"], "unknown function 'nonexistent'"),
    (["grid", "nonexistent"], "unknown function 'nonexistent'"),
    (["verify", "no-such-suite"], "unknown suite 'no-such-suite'"),
    (["grid", "theta", "--steps", "0", "5"], "steps must be positive"),
    (["decompose", "--in", "/nonexistent/fourier.txt"], "cannot read /nonexistent/fourier.txt"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "(none)" for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_1_with_one_line(argv, message):
    code, out, err = run_main(argv)
    assert code == cli.EXIT_USAGE == 1
    assert out == ""
    assert err.startswith("usage error: " + message) and err.count("\n") == 1, err


def test_a_usage_error_of_a_cold_process_has_no_traceback():
    res = subprocess.run([sys.executable, "-m", "mjlab.cli", "eval", "theta", "--n", "x"],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 1
    assert res.stderr == "usage error: invalid value for --n: 'x' is not a valid integer\n"


@pytest.mark.parametrize("argv,lines", [
    (["--help"], ["commands:", "  eval ", "  verify ", "  decompose ", "  grid "]),
    (["eval", "--help"], ["usage: mjlab eval [OPTIONS] FUNCTION", "  --tau COMPLEX "]),
    (["grid", "theta", "--help"], ["  --min FLOAT FLOAT ", "  --tau-grid "]),
    (["verify", "--help"], ["usage: mjlab verify [OPTIONS] SUITE", "  --two-m INTEGER "]),
    (["decompose", "--help"], ["  --in PATH "]),
])
def test_help_prints_the_commands_or_options_and_exits_0(argv, lines):
    code, out, err = run_main(argv)
    assert code == 0 and err == ""
    for line in lines:
        assert any(row.startswith(line) for row in out.splitlines()), (line, out)


def test_help_lists_every_option_of_its_command():
    for name, command in cli.COMMANDS.items():
        _, out, _ = run_main([name, "--help"])
        assert {row.split()[0] for row in out.splitlines() if row.startswith("  --")} == (
            set(command.options) | {"--help"})


# ----------------------------------------------------------------------
# recorded outputs


@pytest.mark.parametrize("record", OUTPUTS, ids=lambda r: " ".join(r["argv"][:2]))
def test_stdout_is_byte_identical_to_the_recorded_output(record):
    """Every eval of test_cli's EVAL_CASES, two grids (one with negative
    values as separate tokens and as --opt=value) and two decompositions,
    as the click-based front end printed them: a grid's CSV ends in a blank
    line.  Every verify suite at its defaults and once per option it reads,
    its report without the wall time, with its exit code and stderr.  A
    change that moves an output regenerates the file with
    `PYTHONPATH=src python3 tests/cli_snapshot.py tests/cli_outputs.json`
    and lists the moves (`tests/cli_snapshot.py --compare A B`) in
    CHANGES.md."""
    import cli_snapshot

    assert cli_snapshot.run(record["argv"], record["stdin"]) == record


def test_recorded_outputs_cover_every_eval_case():
    from test_cli import AT_POINT, EVAL_CASES

    recorded = [r["argv"] for r in OUTPUTS]
    for name, (args, _) in EVAL_CASES.items():
        assert ["eval", name, *args, *AT_POINT] in recorded
    for suite in cli.verify.SUITES:
        assert ["verify", suite] in recorded
    assert {argv[0] for argv in recorded} == set(cli.COMMANDS)


# ----------------------------------------------------------------------
# what a cold process loads

EXECUTED = (
    "import sys, types\n"
    "def executed(prefix):\n"
    "    return sorted(m for m, mod in sys.modules.items()\n"
    "                  if m.startswith(prefix) and type(mod) is types.ModuleType)\n"
)


def test_importing_the_package_and_the_cli_executes_no_numpy_and_no_click():
    lines = run_python(
        EXECUTED
        + "import mjlab\n"
        "print('numpy' in sys.modules)\n"
        "import mjlab.cli\n"
        "print('numpy' in sys.modules, 'click' in sys.modules)\n"
        "print(' '.join(executed('mjlab')))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('mjlab.'))))\n"
    )
    assert lines[:2] == ["False", "False False"]
    assert lines[2].split() == ["mjlab", "mjlab.cli", "mjlab.errors"]
    # every layer is registered, unexecuted until first use
    assert set(lines[3].split()) == {"mjlab.cli", "mjlab.errors"} | {
        "mjlab." + layer for layer in LAYERS}


def test_the_package_names_from_core_resolve_on_first_use():
    lines = run_python(
        "import sys, mjlab\n"
        "names = ('EvalPoint', 'FunctionHandle', 'TruncationPolicy', 'WeightIndex')\n"
        "print(all(getattr(mjlab, n) is getattr(sys.modules['mjlab.core'], n) for n in names))\n"
        "print(mjlab.MjlabError.__module__, sorted(mjlab.__all__))\n"
    )
    assert lines == ["True", "mjlab.errors ['EvalPoint', 'FunctionHandle', 'MjlabError', "
                     "'TruncationPolicy', 'WeightIndex', '__version__']"]
    import mjlab

    with pytest.raises(AttributeError):
        getattr(mjlab, "no_such_name")


def test_decompose_runs_without_numpy():
    record = next(r for r in OUTPUTS if r["argv"] == ["decompose"])
    lines = run_python(
        EXECUTED
        + "from mjlab.cli import main\n"
        "main(['decompose'])\n"
        "print('numpy' in sys.modules, ' '.join(executed('mjlab')))\n",
        stdin=record["stdin"],
    )
    assert "\n".join(lines[:-1]) + "\n" == record["stdout"]
    assert lines[-1] == "False mjlab mjlab.cli mjlab.errors mjlab.fourier"


def test_theta_R_scalar_and_kernel_evals_execute_no_appell_sums():
    evals = [["eval", "theta"], ["eval", "theta_ml", "--m", "1.5", "--l", "0.5"],
             ["eval", "R", "--z", "0.1+0.2i"], ["eval", "E", "--w", "0.3"],
             ["eval", "H", "--w", "0.7", "--k", "1.5"]]
    evals += [["eval", "c%d%s" % (i, sk), "--m", "-1", "--n", "1", "--r", "1"]
              for i in (1, 2, 3, 4) for sk in ("", "sk")]
    lines = run_python(
        EXECUTED
        + "from mjlab.cli import main\n"
        "for argv in %r:\n"
        "    main(argv)\n"
        "print(' '.join(executed('mjlab')))\n" % (evals,)
    )
    assert lines[-1].split() == ["mjlab", "mjlab.catalog", "mjlab.cli", "mjlab.core",
                                 "mjlab.errors", "mjlab.jets", "mjlab.kernels", "mjlab.special"]


def test_no_command_imports_click():
    lines = run_python(
        "import sys\n"
        "from mjlab.cli import main\n"
        "for argv in (['eval', 'mu_hat_2'], ['grid', 'theta', '--steps', '2', '2'],\n"
        "             ['verify', 'weil', '--two-m', '2'], ['eval', '--help']):\n"
        "    main(argv)\n"
        "print('click' in sys.modules)\n"
    )
    assert lines[-1] == "False"
