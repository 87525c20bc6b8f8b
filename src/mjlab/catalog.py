"""The catalog of `mjlab eval` and `mjlab grid`: per function name, the
options it reads, its tag and the maker of its handle.  A build makes, once
per request and under the domain rules of its functions (`half_integer`,
`KernelParams.of`, the series' own checks), a plain `FunctionHandle`, a
scalar function of w or, where the tag gives a weight/index, a `TaggedForm`.
Every maker reaches its series through the attribute of its module, so
rebinding a module function reaches every catalog evaluation; the Appell
family and the kernel terms import their module when they are built, so
an evaluation of any other function never executes `mu` or `kernels`.  The
label l of theta_ml and mu_hat_ml may also be a list of labels: the
components at every label, one row each.
"""

from collections import namedtuple

from . import special
from .core import TaggedForm, WeightIndex, half_integer

# A catalog function: the options it reads, its tag and its maker, called as
# make(policy, **options).  The tag is "plain", "scalar" (a function of w) or
# (weight, index, action kind), the weight and the index each an option name,
# possibly negated, or a constant such as "1/2".  A named tuple costs no code
# generation at start-up, which every command pays.
Entry = namedtuple("Entry", ("options", "tag", "make"))


def _mu():
    from . import mu

    return mu


def _kernel_term(i, skew):
    def make(policy, k, m, n, r):
        from . import kernels

        return kernels.kernel_term_handle(i, kernels.KernelParams.of(k, m, n, r), skew=skew)

    return make


CATALOG = {
    "theta": Entry((), "plain", lambda policy: special.jacobi_theta_handle(policy)),
    "theta_ml": Entry(("m", "l"), ("1/2", "m", "standard"), lambda policy, m, l:
                      special.theta_ml_handle(half_integer(m, "m"), l, policy)),
    "R": Entry((), "plain", lambda policy: special.zwegers_R_handle(policy)),
    "E": Entry((), "scalar", lambda policy: lambda w: special.error_completion_E(w)),
    "H": Entry(("k",), "scalar", lambda policy, k: lambda w: special.H_function(w, k)),
    "mu": Entry(("m", "z2"), "plain", lambda policy, m, z2:
                _mu().mu_m_handle(half_integer(m, "m"), z2, policy)),
    "mu_hat_ml": Entry(("m", "l"), ("1/2", "-m", "standard"), lambda policy, m, l:
                       _mu().mu_hat_ml_handle(half_integer(m, "m"), l, policy)),
    "R_hat_ml": Entry(("m", "l"), ("1/2", "-m", "standard"), lambda policy, m, l:
                      _mu().R_hat_ml_handle(half_integer(m, "m"), l, policy)),
    "mu_hat_2": Entry((), ("1/2", "-1/2", "standard"),
                      lambda policy: _mu().mu_hat_2_handle(policy)),
}
for _skew in (False, True):
    for _i in (1, 2, 3, 4):
        CATALOG["c%d%s" % (_i, "sk" if _skew else "")] = Entry(
            ("k", "m", "n", "r"), ("k", "m", "skew" if _skew else "standard"),
            _kernel_term(_i, _skew))


def _twice(term, options):
    """2x for the weight or index x that a tag term names."""
    sign, name = (-1, term[1:]) if term.startswith("-") else (1, term)
    if name in options:
        return sign * half_integer(options[name], name)
    num, _, den = name.partition("/")
    return sign * half_integer(int(num) / int(den or 1), name)


def build(name, policy=None, **options):
    """The catalog function `name` made from the options its entry reads
    (other options are ignored), tagged when its tag gives a weight/index."""
    entry = CATALOG[name]
    options = {key: options[key] for key in entry.options}
    made = entry.make(policy, **options)
    if isinstance(entry.tag, str):
        return made
    weight, index, kind = entry.tag
    return TaggedForm(made, WeightIndex(_twice(weight, options), _twice(index, options)), kind)
