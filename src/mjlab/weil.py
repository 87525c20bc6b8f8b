"""The Weil representation attached to a Jacobi index m on the group algebra
of Z/2mZ, its dual, and the Weil law phi|w = rho(w) phi of vector-valued
forms, such as the theta vector and the completed Appell components.

The dimension of the representation space is 2m, which is allowed to be any
positive integer (odd values arise for half-integer index).
"""

import cmath
import math
from functools import lru_cache, reduce

import numpy as np

from .core import FunctionHandle, labels, principal_sqrt
from .errors import DomainError
from .group import GEN_S, GEN_T, apply_slash, group_word


def root_of_unity(num, den):
    """e^(2 pi i num / den) for integer num, den."""
    return cmath.exp(2j * math.pi * (num % den) / den)


def rho_generator(two_m, which, dual=False):
    """Image of the generator T or S of the metaplectic modular group under
    the index-m Weil representation (or its dual): made once per process
    and returned read-only, so no caller can change what another reads."""
    if two_m < 1:
        raise DomainError("2m must be a positive integer")
    if which not in ("T", "S"):
        raise DomainError("generator must be 'T' or 'S'")
    return _rho_generator(two_m, which, bool(dual))


@lru_cache(maxsize=None)
def _rho_generator(n, which, dual):
    ls = labels(n)
    if which == "T":
        # diagonal entries e_{4m}(l^2) = e^(2 pi i l^2 / (2 * 2m))
        data = np.diag([root_of_unity(l * l, 2 * n) for l in ls])
    else:
        pref = 1.0 / principal_sqrt(1j * n)  # 1/sqrt(2im)
        data = np.array([[pref * root_of_unity(-l * lp, n) for l in ls] for lp in ls])
    if dual:
        data = np.conj(data)
    data.setflags(write=False)
    return data


def rho_word(two_m, word, dual=False):
    """The product of the generator images of a nonempty word, left to
    right."""
    if not word:
        raise DomainError("word must be nonempty")
    return reduce(np.matmul, (rho_generator(two_m, g, dual=dual) for g in word))


def group_element_of_word(word):
    gens = {"T": GEN_T, "S": GEN_S}
    try:
        return group_word(*(gens[g] for g in word))
    except KeyError as exc:
        raise DomainError("unknown generator %r" % (exc.args[0],))


def vector_law(phi, word, dual=False):
    """The handle of phi|w - rho(w) phi, one row per component: the gap of
    the Weil law of a vector-valued form under rho (its dual if requested).

    phi: a row-stacked TaggedForm of index +-m whose rows are its 2m
    components in label order; word: a nonempty word in T and S.  phi|w is
    one slash of the stack by the word's group element, and rho(w) the
    product of its generator images, left to right: slashing is a right
    action, (phi|g1)|g2 = phi|(g1 g2), and rho(g1) commutes with |g2."""
    rho = rho_word(abs(phi.weight_index.two_m), word, dual=dual)
    slashed = apply_slash(phi, group_element_of_word(word)).f

    def je(jv):
        return slashed.jet_at(jv) - phi.f.jet_at(jv).sum(rho)

    return FunctionHandle(jet_fn=je)
