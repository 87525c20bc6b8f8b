"""Command line front end: evaluate catalog functions, run verification
suites, decompose Fourier data, and emit plot-ready grids.

Machine output is JSON except for grids, which are CSV.  Every library
error (`MjlabError`) ends in an exit code and a one-line message, never a
traceback:

1 usage or domain error, 2 evaluation at a pole, 3 truncation overflow,
4 failed identity or non-decomposable input, 5 value overflow (a value or
Taylor coefficient beyond the floating-point range), 6 evaluation failure
(derivatives unavailable at the point, a non-finite sample, a
finite-difference stencil outside the domain, any other library error).

Each subcommand executes only the modules it uses: the kernels, operators,
slashes, Weil matrices and verification suites load on first use, so
`eval` and `grid` of the theta series, the R-series and the Appell family
never execute them.
"""

import importlib.util
import json
import sys
import time

import click

from .catalog import CATALOG, build
from .core import EvalPoint, FunctionHandle, TaggedForm, TruncationPolicy, require_finite
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


# the layers only some subcommands use, all registered at once, so that
# after `import mjlab.cli` every layer of the package is in sys.modules
for _name in ("group", "weil", "operators"):
    _on_first_use(_name)
kernels = _on_first_use("kernels")
verify = _on_first_use("verify")

EXIT_USAGE = 1
EXIT_POLE = 2
EXIT_TRUNCATION = 3
EXIT_FAILED = 4
EXIT_OVERFLOW = 5
EXIT_EVALUATION = 6


def parse_complex(text):
    """Complex literals of the form a+bi with no spaces (also plain reals
    and pure imaginaries)."""
    cleaned = text.strip()
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError:
        raise click.UsageError("cannot parse complex literal %r" % text)


class _Finite(click.ParamType):
    """A number option whose value must be finite (nan and inf are domain
    errors): a float, or a complex literal a+bi."""

    def __init__(self, name, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            value = self.parse(value, param, ctx)
        return require_finite(value, param.opts[0] if param else self.name)


FLOAT = _Finite("float", click.FLOAT.convert)
COMPLEX = _Finite("complex", lambda text, param, ctx: parse_complex(text))


def _policy(radius, tail):
    kwargs = {}
    if tail is not None:
        kwargs["tail_bound"] = tail
    if radius is not None:
        kwargs["max_radius"] = radius
    return TruncationPolicy(**kwargs)


def _value(form, w, tau, z):
    """A built catalog entry's value: a scalar function's at w, any other's at (tau, z)."""
    if isinstance(form, (FunctionHandle, TaggedForm)):
        return form.eval(EvalPoint.from_tau_z(tau, z))
    return complex(form(w))


def _check_function(name):
    if name not in CATALOG:
        raise click.UsageError(
            "unknown function %r; valid names: %s"
            % (name, ", ".join(sorted(CATALOG)))
        )


# every echo names its stream: without one, click caches a wrapper per
# sys.stdout / sys.stderr object, which for a StringIO is the stream itself,
# so an in-process caller's redirected buffers would never be freed
def _write_out(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, file=sys.stdout)


@click.group()
def cli():
    """Numerical catalog and verification suites for Jacobi-type modular
    objects."""


@cli.command("eval")
@click.argument("function")
@click.option("--k", type=float, default=0.5, help="weight (half-integer)")
@click.option("--m", type=float, default=1.0, help="index (half-integer)")
@click.option("--l", type=FLOAT, default=0.0, help="component label")
@click.option("--n", type=int, default=0)
@click.option("--r", type=int, default=0)
@click.option("--w", type=FLOAT, default=0.0, help="real scalar argument")
@click.option("--tau", type=COMPLEX, default="0+1i")
@click.option("--z", type=COMPLEX, default="0+0i")
@click.option("--z2", type=COMPLEX, default="0+0i")
@click.option("--radius", type=int, default=None)
@click.option("--tail", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def eval_cmd(function, k, m, l, n, r, w, tau, z, z2, radius, tail, out):
    """Evaluate a catalog function at a point and print a JSON record."""
    _check_function(function)
    policy = _policy(radius, tail)
    form = build(function, policy, k=k, m=m, l=l, n=n, r=r, z2=z2)
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


# the options each suite reads besides --tol and --out; any other option
# given to a suite is a domain error
SUITE_OPTIONS = {
    "covariance": ("op", "gen"),
    "xi-images": ("k", "m", "n", "r"),
    "weil": ("two_m",),
    "mu-transform": ("two_m",),
    "decomposition-roundtrip": ("seed",),
}


@cli.command("verify")
@click.argument("suite")
@click.option("--op", default=None, help="restrict covariance to one operator")
@click.option("--gen", default=None, help="restrict covariance to one generator")
@click.option("--k", type=float, default=None)
@click.option("--m", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--r", type=int, default=None)
@click.option("--two-m", "two_m", type=int, default=None)
@click.option("--tol", type=FLOAT, default=None, help="override every tolerance (> 0)")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def verify_cmd(suite, op, gen, k, m, n, r, two_m, tol, seed, out):
    """Run a named identity suite and print a JSON report."""
    if suite not in verify.SUITES:
        raise click.UsageError(
            "unknown suite %r; valid suites: %s"
            % (suite, ", ".join(sorted(verify.SUITES)))
        )
    if tol is not None and tol <= 0:
        raise DomainError("--tol must be positive, got %r" % (tol,))
    given = {"op": op, "gen": gen, "k": k, "m": m, "n": n, "r": r, "two_m": two_m,
             "seed": seed}
    reads = SUITE_OPTIONS.get(suite, ())
    for name, value in given.items():
        if value is not None and name not in reads:
            raise DomainError(
                "suite %r does not read --%s; it reads %s"
                % (suite, name.replace("_", "-"),
                   ", ".join("--" + o.replace("_", "-") for o in reads + ("tol", "out")))
            )
    kwargs = {}
    if op:
        kwargs["ops"] = [op]
    if gen:
        kwargs["gens"] = [gen]
    if suite == "xi-images" and any(v is not None for v in (k, m, n, r)):
        kk = 0.5 if k is None else k
        mm = 1.0 if m is None else m
        if n is None and r is None:
            params = [kernels.KernelParams.of(kk, mm, 0, r0) for r0 in (1, 0)]
        else:
            params = [kernels.KernelParams.of(kk, mm, n or 0, r or 0)]
        kwargs["params_list"] = params
    if two_m is not None:
        kwargs["two_m_list"] = [two_m]
    if seed is not None:
        kwargs["seed"] = seed
    start = time.perf_counter()
    results = verify.run_suite(suite, **kwargs)
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


@cli.command("decompose")
@click.option("--in", "infile", type=click.Path(exists=True), default=None,
              help="Fourier data file (default: stdin)")
@click.option("--out", type=click.Path(), default=None)
def decompose_cmd(infile, out):
    """Theta-decompose Fourier data given as text lines 'n r re im' under a
    header 'index 2m=<integer>'; output is JSON keyed by label."""
    if infile:
        with open(infile) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    data = kernels.FourierData.from_text(text, holomorphic=True)
    h = kernels.theta_decompose(data)
    _write_out(kernels.h_to_json(h), out)


@cli.command("grid")
@click.argument("function")
@click.option("--k", type=float, default=0.5)
@click.option("--m", type=float, default=1.0)
@click.option("--l", type=FLOAT, default=0.0)
@click.option("--n", type=int, default=0)
@click.option("--r", type=int, default=0)
@click.option("--tau", type=COMPLEX, default="0+1i")
@click.option("--z", type=COMPLEX, default="0+0i")
@click.option("--z2", type=COMPLEX, default="0+0i")
@click.option("--tau-grid", is_flag=True, default=False,
              help="vary tau over the window instead of z")
@click.option("--min", "lo", type=(FLOAT, FLOAT), default=(0.0, 0.0),
              help="lower corner of the window")
@click.option("--max", "hi", type=(FLOAT, FLOAT), default=(1.0, 1.0),
              help="upper corner of the window")
@click.option("--steps", type=(int, int), default=(50, 50))
@click.option("--radius", type=int, default=None)
@click.option("--tail", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def grid_cmd(function, k, m, l, n, r, tau, z, z2, tau_grid, lo, hi, steps,
             radius, tail, out):
    """Evaluate a catalog function on a rectangular grid and emit CSV with
    columns x,y,u,v,re,im,pole (pole rows, and H at w = 0 where it is
    undefined, have empty value fields and the flag 1)."""
    _check_function(function)
    policy = _policy(radius, tail)
    n1, n2 = steps
    if n1 < 1 or n2 < 1:
        raise click.UsageError("steps must be positive")
    form = build(function, policy, k=k, m=m, l=l, n=n, r=r, z2=z2)
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


def _fail(message, code):
    click.echo(message, file=sys.stderr)
    sys.exit(code)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.Abort:
        sys.exit(EXIT_USAGE)
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
