"""The catalog of `mjlab eval` and `mjlab grid`, the one layer that binds a
catalog function's jet evaluator to the coordinates: per function name,
the options it reads, its tag and the maker of its handle.  A build makes,
once per request and under the domain rules of its functions
(`half_integer`, `KernelParams.of`, the series' own checks), a plain
`FunctionHandle`, a scalar function of w or, where the tag gives a
weight/index, a `TaggedForm`.  A handle calls its evaluator through its
module's attribute at each evaluation, so rebinding a module function
reaches every catalog evaluation, and its label names its verify rows.
Only the Appell family and the kernel terms import `mu` or `kernels`, when
they are built.  The label l of theta_ml and mu_hat_ml may also be a list
of labels: the components at every label, one row each.
"""

from collections import namedtuple
from functools import partial
from importlib import import_module

from . import special
from .core import FunctionHandle, TaggedForm, WeightIndex, half_integer
from .jets import Jet

# A catalog function: the options it reads, its tag and its maker, called as
# make(policy, **options).  The tag is "plain", "scalar" (a function of w) or
# (weight, index, action kind), the weight and the index each an option name,
# possibly negated, or a constant such as "1/2".  A named tuple costs no code
# generation at start-up, which every command pays.
Entry = namedtuple("Entry", ("options", "tag", "make"))


def _series(module, name, label, policy, **options):
    """The handle of the jet evaluator `name` of the layer `module`:
    name(2m, l, tau, z, policy) for an entry that reads m and l,
    name(tau, z, policy) otherwise, labelled `label` % (2m, l) or `label`."""
    layer = import_module("." + module, __package__)
    args = (half_integer(options["m"], "m"), options["l"]) if options else ()
    return FunctionHandle(lambda jv: getattr(layer, name)(*args, jv.tau, jv.z, policy),
                          label % args)


def _appell(policy, m, z2):
    """The Appell sum at z1 = z and the constant z2."""
    mu, two_m = import_module(".mu", __package__), half_integer(m, "m")
    return FunctionHandle(
        lambda jv: mu.mu_m_jet(two_m, jv.tau, jv.z, Jet.constant(z2, jv.order), policy),
        "mu_m[%d]" % two_m)


def _kernel_term(i, skew, policy, k, m, n, r):
    kernels = import_module(".kernels", __package__)
    params = kernels.KernelParams.of(k, m, n, r)
    return FunctionHandle(lambda jv: kernels.kernel_jet(i, params, skew, jv),
                          kernels._term_label(i, params, skew))


CATALOG = {
    "theta": Entry((), "plain", partial(_series, "special", "jacobi_theta_jet", "jacobi_theta")),
    "theta_ml": Entry(("m", "l"), ("1/2", "m", "standard"),
                      partial(_series, "special", "theta_ml_jet", "theta_ml[%d,%s]")),
    "R": Entry((), "plain", partial(_series, "special", "zwegers_R_jet", "R")),
    "E": Entry((), "scalar", lambda policy: lambda w: special.error_completion_E(w)),
    "H": Entry(("k",), "scalar", lambda policy, k: lambda w: special.H_function(w, k)),
    "mu": Entry(("m", "z2"), "plain", _appell),
    "mu_hat_ml": Entry(("m", "l"), ("1/2", "-m", "standard"),
                       partial(_series, "mu", "mu_hat_component_jet", "mu_hat[%d,%s]")),
    "R_hat_ml": Entry(("m", "l"), ("1/2", "-m", "standard"),
                      partial(_series, "mu", "r_hat_component_jet", "R_hat[%d,%s]")),
    "mu_hat_2": Entry((), ("1/2", "-1/2", "standard"),
                      partial(_series, "mu", "mu_hat_2_jet", "mu_hat_2")),
}
for _skew in (False, True):
    for _i in (1, 2, 3, 4):
        CATALOG["c%d%s" % (_i, "sk" if _skew else "")] = Entry(
            ("k", "m", "n", "r"), ("k", "m", "skew" if _skew else "standard"),
            partial(_kernel_term, _i, _skew))


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
