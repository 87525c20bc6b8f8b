"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed and uses only the standard
library, so the inputs can be generated (and tested) without importing the
program under test.  Each workload is a stream of rounds; a round is a fixed
composition of operations whose parameters the seed draws.  Fixing the
composition and stratifying tau over each round keeps the cost of a round
steady from seed to seed, so run-to-run spread comes from the program and
not from the luck of the draw.
"""

import math
import random

# Im(tau) is log-uniform over this range on every workload that draws tau
Y_RANGE = (0.5, 3.0)


def labels(two_m):
    """Canonical component labels mod 2m: integers for even 2m,
    half-integers for odd 2m."""
    off = 0.5 if two_m % 2 else 0.0
    return [j + off for j in range(two_m)]


def fmt_complex(w):
    """A complex number as the CLI literal a+bi, exact to the last bit."""
    im = repr(w.imag)
    return "%r%s%si" % (w.real, "" if im.startswith("-") else "+", im)


def _log_uniform(rng, bounds, stratum=0, strata=1):
    """A log-uniform draw from the given stratum of `strata` equal slices of
    log(bounds)."""
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    return math.exp(lo + (hi - lo) * (stratum + rng.random()) / strata)


# ----------------------------------------------------------------------
# grid: one request is one `mjlab grid` call over a z-window

# one round: mu_hat_ml twice at every rank 2m = 1..6, plus mu_hat_2, R and
# theta_ml.  Window sizes (steps per side) fall with the per-point cost of
# the function, from 4 to 256 points, so that no request dominates a round.
GRID_DECK = (
    tuple(("mu_hat_ml", t) for t in range(1, 7)) * 2
    + (("mu_hat_2", 0), ("R", 0), ("theta_ml", 0))
)
GRID_SIDES = {
    "theta_ml": 16, "R": 9, "mu_hat_2": 6,
    ("mu_hat_ml", 1): 5, ("mu_hat_ml", 2): 5,
    ("mu_hat_ml", 3): 3, ("mu_hat_ml", 4): 3,
    ("mu_hat_ml", 5): 2, ("mu_hat_ml", 6): 2,
}
# Each deck slot walks a Latin design over a cycle of this many rounds: it
# meets every slice of log Im(tau), every slice of the window's upper edge
# within the request's domain, and the labels in turn, so that a cycle's
# cost hardly depends on the seed.
GRID_CYCLE = 14

# The R-series (mjlab.special.zwegers_R_jet) forms each term's Gaussian
# factor exp(pi n^2 y + 2 pi n v) apart from its erfc factor.  Once that
# exponent reaches about 710 at the edge of the summation the float
# overflows and the call raises OverflowError; from about 530 the jets lose
# the digits that xi^H(mu_hat[2m,l]) = theta_ml[2m,l] needs (ROADMAP item 4).
# The benchmark times the domain on which every operation succeeds, so every
# R-series a request evaluates keeps that exponent at or below R_EXPONENT_MAX,
# and its Im(tau) (2m Im(tau) for mu_hat[2m,l]) within Y_RANGE.  There every
# label keeps a window of Im z / Im tau at least 0.4 wide.
R_EXPONENT_MAX = 400.0
# the tail target of mjlab.core.TruncationPolicy, which sets the radius
R_TAIL = 1e-14
# |Im z| / Im tau stays at or below this.  The Appell part of mu_hat[2m,l]
# has a line of poles at Im z = -Im tau; within a few hundredths of it the
# components of high label lose the digits their xi^H identity needs.
A_MAX = 0.9
# The Appell part of mu_hat[2m,l] has poles of order 2m where
# z2 = 1/(4m) - z - 1/2 lies in Z + Z tau.  Near one the value grows like
# distance^(-2m), and xi^H(mu_hat[2m,l]) misses its pinned absolute
# tolerance: failures reach out to 0.00056, 0.0032, 0.01, 0.032 and 0.032
# at 2m = 2..6.  mu_hat_ml points keep three times that from every pole.
POLE_CLEARANCE = {1: 0.001, 2: 0.002, 3: 0.01, 4: 0.03, 5: 0.1, 6: 0.1}


def r_exponent(y, shift):
    """The largest Gaussian exponent pi n^2 y + 2 pi |n v| the R-series at
    Im(tau) = y and |Im z| / Im(tau) = shift forms, with the summation
    radius zwegers_R_jet chooses."""
    L = math.log(1.0 / R_TAIL)
    n = math.ceil(math.sqrt(L / (math.pi * y)) + shift) + 2.5
    return math.pi * y * (n * n + 2.0 * n * shift)


def r_shift_max(y):
    """The largest shift with r_exponent(y, shift) <= R_EXPONENT_MAX; the
    exponent grows with the shift."""
    lo, hi = 0.0, 4.0
    if r_exponent(y, lo) > R_EXPONENT_MAX:
        raise ValueError("no shift keeps the R-series exponent bounded at y=%g" % y)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if r_exponent(y, mid) <= R_EXPONENT_MAX else (lo, mid)
    return lo


def r_series_of(function, two_m, l):
    """(scale, offset) of the R-series a function evaluates: it runs at
    Im(tau') = scale * y with Im z' / Im tau' = v / y + offset, for
    Im(tau) = y and Im(z) = v.  None for a function without one."""
    if function in ("R", "mu_hat_2"):
        return 1, 0.0
    if function == "mu_hat_ml":
        # mjlab.mu._r_argument: z' = 2m z + (l + m) tau + const, tau' = 2m tau
        return two_m, (l + two_m / 2.0) / two_m
    return None


def grid_domain(function, two_m, l):
    """The domain of a request: the range of Im(tau), and a function of
    Im(tau) giving the range of Im z / Im tau.  These are Y_RANGE and
    [-1, 1], cut down so that every R-series the function evaluates keeps
    its Im(tau) within Y_RANGE and its exponent within R_EXPONENT_MAX."""
    series = r_series_of(function, two_m, l)
    if series is None:
        return Y_RANGE, lambda y: (-A_MAX, A_MAX)
    scale, offset = series
    ys = (Y_RANGE[0], Y_RANGE[1] / scale)

    def window(y):
        s = r_shift_max(scale * y)
        lo, hi = max(-A_MAX, -offset - s), min(A_MAX, -offset + s)
        if not hi - lo > 0.1:
            raise ValueError("no window for %s at 2m=%d, l=%s, y=%g"
                             % (function, two_m, l, y))
        return lo, hi

    return ys, window


def appell_pole_distance(two_m, tau, z):
    """The distance from z to the nearest pole of the Appell part of
    mu_hat[2m,l]."""
    w = 1.0 / (2 * two_m) - 0.5 - z
    j = round(w.imag / tau.imag)
    return min(abs(w - jj * tau - round((w - jj * tau).real) - kk)
               for jj in (j - 1, j, j + 1) for kk in (-1, 0, 1))


def clear_of_poles(function, two_m, points):
    """Whether every (tau, z) keeps POLE_CLEARANCE from the poles."""
    return function != "mu_hat_ml" or all(
        appell_pole_distance(two_m, tau, z) >= POLE_CLEARANCE[two_m]
        for tau, z in points)


def grid_request(rng, function, two_m, strata):
    """One request; strata = (Im tau slice, upper edge slice, label turn)."""
    if function == "theta_ml":
        two_m = rng.randint(1, 6)
    side = GRID_SIDES.get((function, two_m)) or GRID_SIDES[function]
    sy, st, turn = strata
    l = labels(two_m)[turn % two_m] if two_m else 0.0
    ys, window = grid_domain(function, two_m, l)
    y = _log_uniform(rng, ys, sy, GRID_CYCLE)
    a_lo, a_hi = window(y)
    # the upper edge walks the upper nine tenths of the domain, the lower
    # edge lies below it
    top = a_hi - 0.9 * (a_hi - a_lo) * (GRID_CYCLE - st - rng.random()) / GRID_CYCLE
    bottom = a_lo + (top - a_lo) * rng.uniform(0.0, 0.9)
    tau = complex(rng.uniform(-0.5, 0.5), y)
    # the real parts are drawn again until the window clears the poles
    while True:
        u0 = rng.uniform(-0.5, 0.5)
        req = {
            "function": function,
            "two_m": two_m,
            "l": l,
            "tau": tau,
            "lo": (u0, bottom * y),
            "hi": (u0 + rng.uniform(0.1, 1.0), top * y),
            "steps": (side, side),
        }
        if clear_of_poles(function, two_m, grid_points(req)):
            break
    req["argv"] = grid_argv(req)
    return req


def grid_argv(req):
    argv = ["grid", req["function"]]
    if req["two_m"]:
        argv += ["--m", repr(req["two_m"] / 2.0), "--l", repr(req["l"])]
    argv += ["--tau", fmt_complex(req["tau"])]
    argv += ["--min", repr(req["lo"][0]), repr(req["lo"][1])]
    argv += ["--max", repr(req["hi"][0]), repr(req["hi"][1])]
    argv += ["--steps", str(req["steps"][0]), str(req["steps"][1])]
    return argv


def grid_rounds(seed):
    rng = random.Random("grid:%d" % seed)
    n = GRID_CYCLE
    while True:
        designs = []
        for _ in GRID_DECK:
            start = rng.randrange(n)
            designs.append(list(zip(rng.sample(range(n), n), rng.sample(range(n), n),
                                    range(start, start + n))))
        for k in range(n):
            order = rng.sample(range(len(GRID_DECK)), len(GRID_DECK))
            yield [grid_request(rng, *GRID_DECK[i], designs[i][k]) for i in order]


def grid_points(req):
    """The (tau, z) of every row `mjlab grid` emits for a request, in order."""
    (u0, v0), (u1, v1) = req["lo"], req["hi"]
    n1, n2 = req["steps"]
    pts = []
    for i in range(n1):
        a = u0 + (u1 - u0) * i / max(1, n1 - 1)
        for j in range(n2):
            b = v0 + (v1 - v0) * j / max(1, n2 - 1)
            pts.append((req["tau"], complex(a, b)))
    return pts


# ----------------------------------------------------------------------
# verify: one operation is one run_suite call; a round is a pass over the
# suites

# the point sets shipped in mjlab.verify, as (x, y, u, v): GENERIC_POINTS,
# GENERIC_POINTS_10, and the defaults of the weil, decomposition and
# hygiene suites
GENERIC_5 = ((0.13, 1.1, 0.21, 0.17), (-0.40, 0.9, 0.05, 0.31),
             (0.31, 1.6, -0.12, 0.23), (0.02, 0.8, 0.40, -0.27),
             (-0.20, 1.3, 0.33, 0.41))
GENERIC_10 = GENERIC_5 + ((0.41, 1.0, 0.11, 0.09), (-0.17, 1.4, -0.23, 0.14),
                          (0.23, 0.85, 0.37, 0.19), (-0.08, 1.15, 0.26, -0.18),
                          (0.35, 1.25, -0.31, 0.27))
WEIL_POINT = (0.17, 1.2, 0.13, 0.21)
DECOMPOSITION_POINTS = tuple((0.1 * i - 0.3, 1.2 + 0.05 * i, 0.07 * i - 0.2, 0.03 * i)
                             for i in range(10))
HYGIENE_POINTS = ((0.13, 1.1, 0.21, 0.17), (-0.3, 1.5, 0.11, 0.08))

# Suite order as mjlab.verify.SUITES lists them, each with the point set it
# ships with and how far (at most) a call moves every coordinate of those
# points, by a seeded amount.  Points drawn anywhere in the shipped region
# fail now and then: kernels raises JetUnavailable within 1e-3 of the sgn
# locus r + 2mv/y = 0, and the Casimir check of c3sk misses its absolute
# tolerance by up to half.  Near the shipped points all of these pass, with
# a tenth of the tolerance to spare.  covariance keeps its shipped points:
# at the third, (0.31, 1.6, -0.12, 0.23), X+ and X- under the lambda
# generator on mu_hat[2,0] use half of the absolute 1e-8, and moving that
# point by 0.02 takes them to 1.3 times it (the R-series loses digits after
# the lambda shift; ROADMAP item 4).  mu-transform is left out: its four
# S-law checks fail on every input (acceptance criterion 5).  A benchmark
# workload runs only operations that succeed.
VERIFY_JITTER = 0.02
VERIFY_SUITES = (
    ("covariance", GENERIC_5[:3], 0.0),
    ("kernels", GENERIC_5, VERIFY_JITTER),
    ("xi-images", GENERIC_5, VERIFY_JITTER),
    ("factorizations", GENERIC_5[:3], VERIFY_JITTER),
    ("weil", (WEIL_POINT,), VERIFY_JITTER),
    ("mu-xi-theta", GENERIC_10, VERIFY_JITTER),
    ("decomposition-roundtrip", DECOMPOSITION_POINTS, VERIFY_JITTER),
    ("hygiene", HYGIENE_POINTS, VERIFY_JITTER),
)


def verify_rounds(seed):
    rng = random.Random("verify:%d" % seed)
    while True:
        calls = []
        for name, shipped, jitter in VERIFY_SUITES:
            pts = [tuple(c + rng.uniform(-jitter, jitter) if jitter else c for c in p)
                   for p in shipped]
            kwargs = {"point": pts[0]} if name == "weil" else {"points": pts}
            if name == "decomposition-roundtrip":
                kwargs["seed"] = rng.randrange(1 << 30)
            calls.append((name, kwargs))
        yield calls


# ----------------------------------------------------------------------
# cli: one operation is one cold `python -m mjlab.cli ...` process

CLI_THETAS = ("theta", "theta_ml")
CLI_SCALARS = ("E", "H", "c1", "c2", "c3", "c4", "c1sk", "c2sk", "c3sk", "c4sk")
CLI_SUITES = ("weil", "xi-images", "factorizations", "decomposition-roundtrip")


def cli_eval(rng, function, stratum, two_m=None):
    """An eval of a function at a point of its grid domain (see
    grid_domain), with Im(tau) in the given quarter of its range."""
    op = {"kind": "eval", "function": function}
    if function in ("theta_ml", "mu_hat_ml"):
        op["two_m"] = two_m or rng.randint(1, 6)
        op["l"] = rng.choice(labels(op["two_m"]))
    ys, window = grid_domain(function, op.get("two_m", 0), op.get("l", 0.0))
    y = _log_uniform(rng, ys, stratum, 4)
    tau = complex(rng.uniform(-0.5, 0.5), y)
    z = complex(rng.uniform(-0.5, 0.5), y * rng.uniform(*window(y)))
    while not clear_of_poles(function, op.get("two_m"), [(tau, z)]):
        z = complex(rng.uniform(-0.5, 0.5), z.imag)
    op["tau"], op["z"] = tau, z
    argv = ["eval", function, "--tau", fmt_complex(tau), "--z", fmt_complex(z)]
    if "two_m" in op:
        argv += ["--m", repr(op["two_m"] / 2.0), "--l", repr(op["l"])]
    elif function in ("E", "H"):
        op["w"] = rng.choice((-1.0, 1.0)) * _log_uniform(rng, (0.1, 5.0))
        op["k"] = rng.choice((-1.5, -0.5, 0.5, 1.5))
        argv += ["--w", repr(op["w"]), "--k", repr(op["k"])]
    elif function.startswith("c"):
        op["k"] = rng.choice((0.5, 1.5))
        op["m"] = rng.choice((-1.0, -0.5, 0.5, 1.0))
        op["n"], op["r"] = rng.randint(-2, 2), rng.randint(-2, 2)
        argv += ["--k", repr(op["k"]), "--m", repr(op["m"]),
                 "--n", str(op["n"]), "--r", str(op["r"])]
    op["argv"] = argv
    return op


def class_function_data(rng):
    """Fourier data of a random class function and its theta decomposition.

    Returns (two_m, coefficients {(n, r): c}, expected {l: [(D, c), ...]})
    where the decomposition is sum_l h_l theta_{m,l} with
    h_l = sum c q^(D / 4m) and D = 4mn - r^2.
    """
    two_m = rng.randint(1, 4)
    coeffs, expected = {}, {}
    for l in range(two_m):
        for D in range(-4 * two_m, 2 * two_m + 1):
            if rng.random() < 0.5:
                continue
            c = complex(round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6))
            for r in range(-8, 9):
                if r % two_m == l and (D + r * r) % (2 * two_m) == 0:
                    coeffs[((D + r * r) // (2 * two_m), r)] = c
                    expected.setdefault(l, {})[D] = c
    expected = {l: sorted(series.items()) for l, series in expected.items()}
    return two_m, coeffs, expected


def fourier_text(two_m, coeffs):
    lines = ["index 2m=%d" % two_m]
    for (n, r), c in sorted(coeffs.items()):
        lines.append("%d %d %r %r" % (n, r, c.real, c.imag))
    return "\n".join(lines) + "\n"


def cli_rounds(seed):
    """Rounds of seven invocations: five evals over the catalog, one cheap
    verify suite (round robin) and one decompose."""
    rng = random.Random("cli:%d" % seed)
    start = rng.randrange(len(CLI_SUITES))
    k = 0
    while True:
        strata = rng.sample(range(4), 4)
        ops = [
            cli_eval(rng, rng.choice(CLI_THETAS), strata[0]),
            cli_eval(rng, "R", strata[1]),
            cli_eval(rng, rng.choice(CLI_SCALARS), strata[2]),
            cli_eval(rng, "mu_hat_2", strata[3]),
            # one rank per round, in turn
            cli_eval(rng, "mu_hat_ml", rng.randrange(4), two_m=1 + (start + k) % 6),
        ]
        suite = CLI_SUITES[(start + k) % len(CLI_SUITES)]
        argv = ["verify", suite]
        if suite == "decomposition-roundtrip":
            argv += ["--seed", str(rng.randrange(1 << 30))]
        ops.append({"kind": "verify", "suite": suite, "argv": argv})
        two_m, coeffs, expected = class_function_data(rng)
        ops.append({
            "kind": "decompose",
            "text": fourier_text(two_m, coeffs),
            "two_m": two_m,
            "expected": expected,
            "argv": ["decompose"],
        })
        rng.shuffle(ops)
        k += 1
        yield ops
