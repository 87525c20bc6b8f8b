"""Finite-difference jets sampled one point at a time: the per-sample loop
of h.eval that `core.finite_difference_jet` ran before it evaluated its
stencil as one point stack.  tests/test_core.py and tests/test_kernels.py
compare the stacked stencil against it.
"""

import cmath
import math

import numpy as np

from mjlab.core import EvalPoint, default_fd_step
from mjlab.errors import JetUnavailable, NonFinite, StencilOutOfDomain
from mjlab.jets import Jet, monomials


def reference_fd_jet(h, p, order, sampled=None):
    """finite_difference_jet(h, p, order) with one h.eval per stencil point;
    the points it samples are appended to `sampled` in the order met."""
    if order > 3:
        raise JetUnavailable("finite differences support order <= 3")
    step = h.fd_step if h.fd_step is not None else default_fd_step(p)
    if p.y - order * step <= 0:
        raise StencilOutOfDomain(
            "stencil leaves the upper half plane at y=%g, h=%g" % (p.y, step)
        )
    cache = {}

    def sample(offsets):
        if offsets not in cache:
            q = EvalPoint(*(b + o for b, o in zip((p.x, p.y, p.u, p.v), offsets)))
            if sampled is not None:
                sampled.append(q)
            val = h.eval(q)
            if not cmath.isfinite(val):
                raise NonFinite("non-finite sample at %r" % (q,))
            cache[offsets] = val
        return cache[offsets]

    def bump(t, var, d):
        return t[:var] + (t[var] + d,) + t[var + 1 :]

    def central(alpha, offsets, hh):
        var = next((i for i, a in enumerate(alpha) if a), None)
        if var is None:
            return sample(offsets)
        lower = bump(alpha, var, -1)
        up = central(lower, bump(offsets, var, hh), hh)
        return (up - central(lower, bump(offsets, var, -hh), hh)) / (2 * hh)

    c = np.zeros(len(monomials(order)), dtype=complex)
    for i, mon in enumerate(monomials(order)):
        if sum(mon) == 0:
            c[i] = sample((0.0, 0.0, 0.0, 0.0))
            continue
        coarse = central(mon, (0.0, 0.0, 0.0, 0.0), step)
        fine = central(mon, (0.0, 0.0, 0.0, 0.0), step / 2)
        c[i] = (4.0 * fine - coarse) / 3.0 / math.prod(map(math.factorial, mon))
    return Jet(order, c)


def bits(jet):
    """The coefficients of a jet as bytes: equal exactly when bit for bit."""
    return jet.c.tobytes()
