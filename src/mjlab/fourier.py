"""Fourier data c(n, r) of index m and its theta decomposition: the
class-function check, the label-indexed q-series h_l with exact rational
exponents, and their text and JSON forms.

Standard library only, so that `mjlab decompose` runs without numpy: the
one numerical piece, the generating function as a handle, imports `core`
when it is asked for.  A plain class rather than a dataclass keeps
`dataclasses` (and the `inspect` it imports) out of that process too.
"""

import json
from fractions import Fraction

from .errors import DomainError, NotThetaDecomposable

CLASS_TOL = 1e-12


class FourierData:
    """Finite-support Fourier coefficients c(n, r) at index m = two_m / 2 > 0.

    When `holomorphic` is set the class-function property is enforced on
    construction: coefficients agree whenever the discriminants agree and
    r = r' mod 2m.
    """

    def __init__(self, two_m, coefficients=None, holomorphic=False):
        if two_m < 1:
            raise DomainError("2m must be a positive integer")
        self.two_m = two_m
        self.coefficients = {
            (int(n), int(r)): complex(c) for (n, r), c in (coefficients or {}).items()
        }
        self.holomorphic = holomorphic
        if holomorphic:
            self.check_class_function()

    def __repr__(self):
        return "FourierData(two_m=%r, coefficients=%r, holomorphic=%r)" % (
            self.two_m, self.coefficients, self.holomorphic)

    def discriminant(self, n, r):
        return 2 * self.two_m * n - r * r

    def class_key(self, n, r):
        return (self.discriminant(n, r), r % self.two_m)

    def check_class_function(self, tol=CLASS_TOL):
        groups = {}
        for (n, r), c in self.coefficients.items():
            groups.setdefault(self.class_key(n, r), []).append(((n, r), c))
        for key, entries in groups.items():
            ref = entries[0][1]
            for (n, r), c in entries[1:]:
                if abs(c - ref) > tol:
                    raise NotThetaDecomposable(
                        "coefficients at (%d,%d) and (%d,%d) differ in class %r"
                        % (entries[0][0] + (n, r) + (key,))
                    )
        return groups

    def handle(self):
        """The generating function sum c(n, r) q^n zeta^r as a handle."""
        from .core import fourier_sum_handle

        return fourier_sum_handle([(n, r, c) for (n, r), c in sorted(self.coefficients.items())],
                                  "fourier[2m=%d]" % self.two_m)

    def to_text(self):
        lines = ["index 2m=%d" % self.two_m]
        for (n, r), c in sorted(self.coefficients.items()):
            lines.append("%d %d %.17g %.17g" % (n, r, c.real, c.imag))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, holomorphic=False):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("index 2m="):
            raise DomainError("missing 'index 2m=<integer>' header")
        ln = lines[0]
        try:
            two_m = int(ln.split("=", 1)[1])
            coeffs = {}
            for ln in lines[1:]:
                n, r, re, im = ln.split()
                coeffs[(int(n), int(r))] = complex(float(re), float(im))
        except ValueError:
            raise DomainError(
                "malformed line %r: expected 'index 2m=<integer>', then 'n r re im'"
                " with integers n, r" % ln
            ) from None
        return cls(two_m, coeffs, holomorphic=holomorphic)


def theta_fourier_data(two_m, l, t_range=4):
    """Fourier data of the label-l congruence theta series, restricted to
    its integer-exponent support r = l + 2mt, n = r^2 / 4m."""
    coeffs = {}
    for t in range(-t_range, t_range + 1):
        r = l + two_m * t
        num = r * r
        den = 2 * two_m
        if num % den:
            continue
        coeffs[(num // den, r)] = 1.0
    if not coeffs:
        raise DomainError("no integer-exponent terms for label %r" % (l,))
    return FourierData(two_m, coeffs, holomorphic=True)


def theta_decompose(data):
    """Label-indexed q-series h_l with exact rational exponents such that
    the data is sum over l of h_l theta_{m,l}.

    Returns {l: [(Fraction exponent, coefficient), ...]} with l running over
    the integer residues mod 2m; each distinct discriminant contributes one
    term q^(D / 4m).
    """
    groups = data.check_class_function()
    h = {l: [] for l in range(data.two_m)}
    for (D, l), entries in sorted(groups.items()):
        h[l].append((Fraction(D, 2 * data.two_m), entries[0][1]))
    for l in h:
        h[l].sort(key=lambda t: t[0])
    return h


def h_to_json(h):
    obj = {}
    for l, series in h.items():
        obj[str(l)] = [
            [e.numerator, e.denominator, c.real, c.imag] for e, c in series
        ]
    return json.dumps(obj, sort_keys=True)


def h_from_json(text):
    obj = json.loads(text)
    out = {}
    for key, rows in obj.items():
        label = Fraction(key)
        label = int(label) if label.denominator == 1 else float(label)
        out[label] = [
            (Fraction(int(num), int(den)), complex(re, im))
            for num, den, re, im in rows
        ]
    return out
