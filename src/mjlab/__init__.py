"""Numerical library for Jacobi-type modular objects: special functions,
metaplectic slash actions, covariant differential operators, Weil
representation matrices, completed Appell sums, Fourier kernel bases, and
theta decomposition, with a verification harness for the operator
identities connecting them.

The names taken from `mjlab.core` resolve on first use, so that importing
the package (and `mjlab decompose`, which needs no jets) executes no numpy.
"""

__version__ = "0.1.0"

from .errors import MjlabError

_FROM_CORE = ("EvalPoint", "FunctionHandle", "TruncationPolicy", "WeightIndex")

__all__ = list(_FROM_CORE) + ["MjlabError", "__version__"]


def __getattr__(name):
    if name in _FROM_CORE:
        from . import core

        return getattr(core, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
