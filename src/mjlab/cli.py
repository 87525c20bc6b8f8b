"""Command line front end: evaluate catalog functions, run verification
suites, decompose Fourier data, and emit plot-ready grids.

Machine output is JSON except for grids, which are CSV.  Every library
error (`MjlabError`) and every usage error ends in an exit code and a
one-line message, never a traceback:

1 usage or domain error (also a file that cannot be read or written),
2 evaluation at a pole, 3 truncation overflow, 4 failed identity or
non-decomposable input, 5 value overflow (a value or Taylor coefficient
beyond the floating-point range), 6 evaluation failure (derivatives
unavailable at the point, a non-finite sample, a finite-difference stencil
outside the domain, any other library error).

Each subcommand executes only the modules it uses: every layer of the
package is registered at import and executes on first use.  So
`decompose` runs on the standard library alone (`mjlab.fourier`, no
numpy); `eval` and `grid` of the theta series, the R-series, E, H and the
kernel terms never execute the Appell sums (`mjlab.mu`); and only `verify`
executes the operators, slashes, Weil matrices and suites.

The parser is one table of commands and their options.  A value option
takes the next token verbatim, also one that starts with "-" (`--tau
-0.41+1.1i`), or is given as `--opt=value`; `--min`, `--max` and `--steps`
take two values and `--tau-grid` is a flag.  Options are never
abbreviated.  `--help` after the tool or a command prints its commands or
options.
"""

import importlib.util
import itertools
import json
import sys
import time
from collections import namedtuple

from .errors import (
    DomainError,
    EvaluationAtPole,
    HUndefined,
    MjlabError,
    NotThetaDecomposable,
    TruncationOverflow,
    ValueOverflow,
)


def _on_first_use(name):
    """The module mjlab.<name>, executed when one of its attributes is first
    read (importlib.util.LazyLoader).  It is registered in sys.modules and
    on the package at once, so every import of it, and any tool that lists
    the package's modules, gets this one module object."""
    full = "%s.%s" % (__package__, name)
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# every layer registered at once, so that after `import mjlab.cli` each is
# in sys.modules, and a module that imports another gets the registered one
for _name in ("jets", "special", "mu", "group", "weil", "operators", "kernels"):
    _on_first_use(_name)
core = _on_first_use("core")
catalog = _on_first_use("catalog")
fourier = _on_first_use("fourier")
verify = _on_first_use("verify")

EXIT_USAGE = 1
EXIT_POLE = 2
EXIT_TRUNCATION = 3
EXIT_FAILED = 4
EXIT_OVERFLOW = 5
EXIT_EVALUATION = 6


class UsageError(Exception):
    """A command line the tool cannot run: an unknown command, option,
    function or suite, a missing argument or value, a malformed number, or
    a file that cannot be read or written."""


def parse_complex(text):
    """Complex literals of the form a+bi with no spaces (also plain reals
    and pure imaginaries)."""
    cleaned = text.strip()
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError("cannot parse complex literal %r" % text) from None


# A value type: its name, the parser of one token (ValueError on a
# malformed one) and whether the value must be finite (nan and inf are
# domain errors).
Type = namedtuple("Type", ("name", "parse", "finite"))
INT = Type("integer", int, False)
REAL = Type("float", float, False)
FLOAT = Type("float", float, True)
COMPLEX = Type("complex", parse_complex, True)
TEXT = Type("text", str, False)
PATH = Type("path", str, False)

# An option: its value type (None for a flag), its default, its help, the
# number of tokens it takes and the parameter it fills (by default its
# name without the dashes, "-" read as "_").
Opt = namedtuple("Opt", ("type", "default", "help", "nargs", "dest"), defaults=("", 1, None))

# A command: the function it runs, the name of its one argument (None for
# none) and its options by name.
Command = namedtuple("Command", ("run", "argument", "options"))


def _policy(radius, tail):
    kwargs = {}
    if tail is not None:
        kwargs["tail_bound"] = tail
    if radius is not None:
        kwargs["max_radius"] = radius
    return core.TruncationPolicy(**kwargs)


def _value(form, w, tau, z):
    """A built catalog entry's value: a scalar function's at w, any other's at (tau, z)."""
    if isinstance(form, (core.FunctionHandle, core.TaggedForm)):
        return form.eval(core.EvalPoint.from_tau_z(tau, z))
    return complex(form(w))


def _check_function(name):
    if name not in catalog.CATALOG:
        raise UsageError(
            "unknown function %r; valid names: %s"
            % (name, ", ".join(sorted(catalog.CATALOG)))
        )


def _write_out(text, out):
    """text to the file out, or text and a newline to stdout."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out, exc.strerror)) from None
    else:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()


def _eval(function, k, m, l, n, r, w, tau, z, z2, radius, tail, out):
    """Evaluate a catalog function at a point and print a JSON record."""
    _check_function(function)
    policy = _policy(radius, tail)
    form = catalog.build(function, policy, k=k, m=m, l=l, n=n, r=r, z2=z2)
    value = _value(form, w, tau, z)
    record = {
        "function": function,
        "params": {"k": k, "m": m, "l": l, "n": n, "r": r, "w": w},
        "point": {
            "tau": [tau.real, tau.imag],
            "z": [z.real, z.imag],
        },
        "value": [value.real, value.imag],
        "truncation_radius": policy.max_radius,
        "est_tail": policy.tail_bound,
    }
    _write_out(json.dumps(record), out)


def _verify(suite, tol, out, **options):
    """Run a named identity suite and print a JSON report."""
    if suite not in verify.SUITES:
        raise UsageError(
            "unknown suite %r; valid suites: %s"
            % (suite, ", ".join(sorted(verify.SUITES)))
        )
    if tol is not None and tol <= 0:
        raise DomainError("--tol must be positive, got %r" % (tol,))
    reads = verify.SUITE_OPTIONS[suite]
    given = {name: value for name, value in options.items() if value is not None}
    for name in given:
        if name not in reads:
            raise DomainError("suite %r does not read --%s; it reads %s" % (
                suite, name.replace("_", "-"),
                ", ".join("--" + o.replace("_", "-") for o in reads + ("tol", "out"))))
    start = time.perf_counter()
    results = verify.run_suite(suite, **given)
    seconds = time.perf_counter() - start
    if tol is not None:
        for res in results:
            res.tol = tol
    report = {
        "suite": suite,
        "checks": [res.as_dict() for res in results],
        "passed": all(res.passed for res in results),
        "seconds": seconds,
    }
    _write_out(json.dumps(report, indent=2), out)
    if not report["passed"]:
        sys.exit(EXIT_FAILED)


def _decompose(infile, out):
    """Theta-decompose Fourier data given as text lines 'n r re im' under a
    header 'index 2m=<integer>'; output is JSON keyed by label."""
    if infile:
        try:
            with open(infile) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError("cannot read %s: %s" % (infile, exc.strerror)) from None
        except UnicodeDecodeError as exc:
            raise UsageError("cannot read %s: %s" % (infile, exc)) from None
    else:
        text = sys.stdin.read()
    data = fourier.FourierData.from_text(text, holomorphic=True)
    h = fourier.theta_decompose(data)
    _write_out(fourier.h_to_json(h), out)


def _grid(function, k, m, l, n, r, tau, z, z2, tau_grid, lo, hi, steps,
             radius, tail, out):
    """Evaluate a catalog function on a rectangular grid and emit CSV with
    columns x,y,u,v,re,im,pole (pole rows, and H at w = 0 where it is
    undefined, have empty value fields and the flag 1)."""
    _check_function(function)
    policy = _policy(radius, tail)
    n1, n2 = steps
    if n1 < 1 or n2 < 1:
        raise UsageError("steps must be positive")
    form = catalog.build(function, policy, k=k, m=m, l=l, n=n, r=r, z2=z2)
    rows = ["x,y,u,v,re,im,pole"]
    for i in range(n1):
        a = lo[0] + (hi[0] - lo[0]) * i / max(1, n1 - 1)
        for j in range(n2):
            b = lo[1] + (hi[1] - lo[1]) * j / max(1, n2 - 1)
            if tau_grid:
                tt, zz = complex(a, b), z
            else:
                tt, zz = tau, complex(a, b)
            try:
                val = _value(form, a, tt, zz)
                rows.append(
                    "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,0"
                    % (tt.real, tt.imag, zz.real, zz.imag, val.real, val.imag)
                )
            except (EvaluationAtPole, HUndefined):
                rows.append(
                    "%.12g,%.12g,%.12g,%.12g,,,1"
                    % (tt.real, tt.imag, zz.real, zz.imag)
                )
    _write_out("\n".join(rows) + "\n", out)


def _show_help(name=None):
    """Print the options of the command `name`, or the commands."""
    if name is None:
        head = ("usage: mjlab COMMAND [OPTIONS]\n\nNumerical catalog and verification"
                " suites for Jacobi-type modular objects.\n\ncommands:")
        rows = [(key, " ".join(command.run.__doc__.split()).partition(". ")[0])
                for key, command in COMMANDS.items()]
    else:
        command = COMMANDS[name]
        head = "usage: mjlab %s [OPTIONS]%s\n\n%s\n\noptions:" % (
            name, " " + command.argument if command.argument else "",
            " ".join(command.run.__doc__.split()))
        rows = [(" ".join([key] + [opt.type.name.upper()] * opt.nargs if opt.type else [key]),
                 opt.help) for key, opt in command.options.items()]
        rows.append(("--help", "show this message"))
    width = max(len(label) for label, _ in rows)
    _write_out(head + "".join("\n  %-*s  %s" % (width, label, text) for label, text in rows),
               None)


def _converted(key, opt, tokens):
    """The value of option `key` from its tokens: one value, or a tuple of
    opt.nargs values."""
    values = []
    for token in tokens:
        try:
            value = opt.type.parse(token)
        except ValueError:
            raise UsageError("invalid value for %s: %r is not a valid %s"
                             % (key, token, opt.type.name)) from None
        values.append(core.require_finite(value, key) if opt.type.finite else value)
    return values[0] if opt.nargs == 1 else tuple(values)


def _parse(args):
    """The function a command line runs and its keyword arguments: a
    command with every option given or defaulted, in the order of its
    options, or the help it asks for.  Values are converted in the order
    they are given."""
    if args[:1] == ["--help"]:
        return _show_help, {}
    if not args:
        raise UsageError("missing command; commands: %s" % ", ".join(COMMANDS))
    name, tokens = args[0], iter(args[1:])
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError("no such command %r; commands: %s" % (name, ", ".join(COMMANDS)))
    given, positional = {}, []
    for token in tokens:
        if token == "--help":
            return _show_help, {"name": name}
        if not token.startswith("-"):
            positional.append(token)
            continue
        key, eq, value = token.partition("=")
        opt = command.options.get(key)
        if opt is None:
            raise UsageError("no such option %s" % key)
        if opt.type is None:
            if eq:
                raise UsageError("option %s takes no value" % key)
            given[key] = True
            continue
        values = [value] if eq else []
        values += itertools.islice(tokens, opt.nargs - len(values))
        if len(values) < opt.nargs:
            raise UsageError("option %s takes %d value%s"
                             % (key, opt.nargs, "s" if opt.nargs > 1 else ""))
        given[key] = values
    kwargs = {}
    if command.argument:
        if not positional:
            raise UsageError("missing argument %s" % command.argument)
        kwargs[command.argument.lower()] = positional.pop(0)
    if positional:
        raise UsageError("unexpected extra argument %r" % positional[0])
    values = {key: True if command.options[key].type is None
              else _converted(key, command.options[key], tokens)
              for key, tokens in given.items()}
    for key, opt in command.options.items():
        kwargs[opt.dest or key[2:].replace("-", "_")] = values.get(key, opt.default)
    return command.run, kwargs


# the options eval and grid share
_FORM_OPTIONS = {
    "--k": Opt(REAL, 0.5, "weight (half-integer)"),
    "--m": Opt(REAL, 1.0, "index (half-integer)"),
    "--l": Opt(FLOAT, 0.0, "component label"),
    "--n": Opt(INT, 0),
    "--r": Opt(INT, 0),
    "--tau": Opt(COMPLEX, 1j),
    "--z": Opt(COMPLEX, 0j),
    "--z2": Opt(COMPLEX, 0j, "second argument of mu"),
    "--radius": Opt(INT, None, "truncation radius cap"),
    "--tail": Opt(REAL, None, "tail bound, strictly between 0 and 1"),
}
_OUT = {"--out": Opt(PATH, None, "output file (default: stdout)")}

COMMANDS = {
    "eval": Command(_eval, "FUNCTION", {
        **_FORM_OPTIONS, "--w": Opt(FLOAT, 0.0, "real scalar argument"), **_OUT}),
    "verify": Command(_verify, "SUITE", {
        "--op": Opt(TEXT, None, "restrict covariance to one operator"),
        "--gen": Opt(TEXT, None, "restrict covariance to one generator"),
        "--k": Opt(REAL, None),
        "--m": Opt(REAL, None),
        "--n": Opt(INT, None),
        "--r": Opt(INT, None),
        "--two-m": Opt(INT, None),
        "--tol": Opt(FLOAT, None, "override every tolerance (> 0)"),
        "--seed": Opt(INT, None),
        **_OUT}),
    "decompose": Command(_decompose, None, {
        "--in": Opt(PATH, None, "Fourier data file (default: stdin)", dest="infile"), **_OUT}),
    "grid": Command(_grid, "FUNCTION", {
        **_FORM_OPTIONS,
        "--tau-grid": Opt(None, False, "vary tau over the window instead of z"),
        "--min": Opt(FLOAT, (0.0, 0.0), "lower corner of the window", 2, "lo"),
        "--max": Opt(FLOAT, (1.0, 1.0), "upper corner of the window", 2, "hi"),
        "--steps": Opt(INT, (50, 50), "grid points along each axis", 2),
        **_OUT}),
}


def _fail(message, code):
    print(message, file=sys.stderr)
    sys.exit(code)


def main(argv=None):
    try:
        run, kwargs = _parse(sys.argv[1:] if argv is None else list(argv))
        run(**kwargs)
    except UsageError as exc:
        _fail("usage error: %s" % exc, EXIT_USAGE)
    except EvaluationAtPole as exc:
        _fail("pole: %s" % exc, EXIT_POLE)
    except TruncationOverflow as exc:
        _fail("truncation overflow: %s" % exc, EXIT_TRUNCATION)
    except NotThetaDecomposable as exc:
        _fail("not theta decomposable: %s" % exc, EXIT_FAILED)
    except DomainError as exc:
        _fail("domain error: %s" % exc, EXIT_USAGE)
    except ValueOverflow as exc:
        _fail("value overflow: %s" % exc, EXIT_OVERFLOW)
    except MjlabError as exc:
        _fail("evaluation failure (%s): %s" % (type(exc).__name__, exc), EXIT_EVALUATION)
    return 0


if __name__ == "__main__":
    main()
