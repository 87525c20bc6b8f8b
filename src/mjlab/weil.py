"""The Weil representation attached to a Jacobi index m on the group algebra
of Z/2mZ, its dual, and the vector-valued slash action used for theta vectors.

The dimension of the representation space is 2m, which is allowed to be any
positive integer (odd values arise for half-integer index).
"""

import cmath
import math
from functools import reduce

import numpy as np

from .core import WeightIndex, principal_sqrt
from .errors import DomainError
from .group import GEN_S, GEN_T, TaggedForm, apply_slash, group_word


def root_of_unity(num, den):
    """e^(2 pi i num / den) for integer num, den."""
    return cmath.exp(2j * math.pi * (num % den) / den)


def labels(two_m):
    """Representation labels modulo 2m, also the labels of the theta and
    completed Appell components.

    For integer index (2m even) these are the integers 0..2m-1.  For
    half-integer index (2m odd) the labels live in Z + 1/2: with integer
    labels the T-matrix entries are not well defined modulo 2m and the
    braid relation (ST)^3 = S^2 fails, while with half-integer labels both
    hold to machine precision.
    """
    off = 0.5 if two_m % 2 else 0.0
    return [j + off for j in range(two_m)]


def rho_generator(two_m, which, dual=False):
    """Image of the generator T or S of the metaplectic modular group under
    the index-m Weil representation (or its dual)."""
    if two_m < 1:
        raise DomainError("2m must be a positive integer")
    n = two_m
    ls = labels(two_m)
    if which == "T":
        # diagonal entries e_{4m}(l^2) = e^(2 pi i l^2 / (2 * 2m))
        data = np.diag([cmath.exp(2j * math.pi * l * l / (2 * n)) for l in ls])
    elif which == "S":
        pref = 1.0 / principal_sqrt(1j * n)  # 1/sqrt(2im)
        data = np.array(
            [
                [pref * cmath.exp(-2j * math.pi * l * lp / n) for l in ls]
                for lp in ls
            ]
        )
    else:
        raise DomainError("generator must be 'T' or 'S'")
    return np.conj(data) if dual else data


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


def vector_slash(components, k2, index_two_m, word, p, dual=False):
    """(h |_{k, rho} g)(p) for a vector of Jacobi FunctionHandles, as a
    numpy array.

    components: list of 2m FunctionHandles on H x C;
    k2: twice the (half-integer) scalar weight;
    index_two_m: twice the Jacobi index used in the scalar slash (sign
    included); the representation dimension is len(components).
    The scalar weight-k Jacobi action is applied to every component, then the
    representation matrix of the word (dual if requested).
    """
    n = len(components)
    if not word:
        return np.array([h.eval(p) for h in components])
    A = group_element_of_word(word)
    wi = WeightIndex(k2, index_two_m)
    vals = np.array(
        [apply_slash(TaggedForm(h, wi, "standard"), A).f.eval(p) for h in components]
    )
    # slashing composes as a right action (phi|g1)|g2 = phi|(g1 g2), so the
    # compensating matrix multiplies the generator images in reversed order
    return rho_word(n, word[::-1], dual=dual) @ vals
