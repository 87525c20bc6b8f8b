"""The names the benchmark harness (`perfbench/`) takes from mjlab exist.

The harness imports some names, reaches attributes of them, and names
others by string in its tracer's tables, so a rename in the package would
break it without any import error here.  All three kinds are read from the
harness's source with `ast`, without importing it, and each must resolve
in mjlab.  The handles it imports are their catalog builds, and the
tolerances its oracle copies are the suite's."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from mjlab import catalog, verify
from mjlab.core import EvalPoint, JetVars
from mjlab.kernels import KernelParams, kernel_term_handle
from mjlab.mu import mu_hat_2_handle, mu_hat_ml_handle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the tracer's tables of names it wraps; OPERATOR_HELPERS lists names it
# leaves alone, so a name missing from it is harmless
TABLES = ("CATALOG", "SERIES", "METHODS", "PRIVATE", "CACHED", "HANDLE_BUILDERS")


def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def _harness_names():
    """Every name of mjlab the harness and its tests import, and every
    attribute chain they reach on an imported name, as a dotted path."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # local name -> dotted path in mjlab
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mjlab":
                for alias in node.names:
                    bound[alias.asname or alias.name] = "%s.%s" % (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "mjlab":
                        names.add(alias.name)
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["mjlab"] = "mjlab"
        names.update(bound.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                head, _, rest = (dotted or "").partition(".")
                if head in bound:
                    names.add("%s.%s" % (bound[head], rest))
    return sorted(names)


def _module_constants(path, names):
    """The values of the module-level constants `names` of a source file
    (a frozenset((...)) as its tuple), read with `ast`, without importing
    it."""
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in names:
                value = node.value
                if isinstance(value, ast.Call):  # frozenset((...))
                    value = value.args[0]
                values[name] = ast.literal_eval(value)
    assert set(values) == set(names)
    return values


def _table_names():
    """Dotted paths in mjlab of the names in the tracer's tables
    ("mjlab.layer.attr" or "mjlab.layer.Class.method")."""
    tables = _module_constants(PERFBENCH / "tracer.py", TABLES)
    out = ["mjlab." + name for table in ("CATALOG", "SERIES") for name in sorted(tables[table])]
    for layer, (cls, methods) in tables["METHODS"].items():
        out += ["mjlab.%s.%s.%s" % (layer, cls, method) for method in methods]
    for table in ("PRIVATE", "CACHED", "HANDLE_BUILDERS"):
        for layer, attrs in tables[table].items():
            out += ["mjlab.%s.%s" % (layer, attr) for attr in attrs]
    return sorted(set(out))


def _resolve(dotted):
    """The object at a dotted path, importing submodules on the way;
    AttributeError or ModuleNotFoundError where a part is missing."""
    head, *parts = dotted.split(".")
    obj = importlib.import_module(head)
    prefix = head
    for part in parts:
        prefix += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(prefix)
    return obj


HARNESS = _harness_names()
TRACED = _table_names()


@pytest.mark.parametrize("dotted", HARNESS)
def test_every_name_the_harness_imports_or_reaches_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("dotted", TRACED)
def test_every_name_the_tracer_wraps_resolves(dotted):
    assert callable(_resolve(dotted))


def test_the_contract_covers_the_names_the_harness_needs():
    for dotted in ("mjlab.mu.mu_hat_ml_handle", "mjlab.mu.mu_hat_2_handle",
                   "mjlab.operators.xi_H", "mjlab.jets.Jet.variable", "mjlab.verify.run_suite"):
        assert dotted in HARNESS
    for dotted in ("mjlab.mu.lattice_multiplicities", "mjlab.jets.Jet.__mul__",
                   "mjlab.core._compose_taylor", "mjlab.group.slash", "mjlab.group.skew_slash"):
        assert dotted in TRACED


def test_the_oracle_checks_the_identities_at_the_suite_tolerances():
    """The oracle's copies of the mu-xi-theta tolerances are the suite's."""
    tols = _module_constants(PERFBENCH / "oracle.py", ("XI_THETA_TOL", "XI_MU2_TOL"))
    assert tols == {"XI_THETA_TOL": verify.MU_XI_THETA_XI_TOL,
                    "XI_MU2_TOL": verify.MU_XI_THETA_MU2_TOL}


@pytest.mark.parametrize("handle,name,options", [
    (mu_hat_ml_handle(2, 0.0), "mu_hat_ml", {"m": 1, "l": 0.0}),
    (mu_hat_ml_handle(3, [0.5, 1.5, 2.5]), "mu_hat_ml", {"m": 1.5, "l": [0.5, 1.5, 2.5]}),
    (mu_hat_2_handle(), "mu_hat_2", {}),
    (kernel_term_handle(3, KernelParams.of(0.5, -1, -1, 1)), "c3",
     {"k": 0.5, "m": -1, "n": -1, "r": 1}),
    (kernel_term_handle(4, KernelParams.of(1.5, 0.5, 0, 1), skew=True), "c4sk",
     {"k": 1.5, "m": 0.5, "n": 0, "r": 1}),
], ids=["mu_hat_ml", "mu_hat_ml-labels", "mu_hat_2", "c3", "c4sk"])
def test_the_handles_the_harness_imports_are_their_catalog_builds(handle, name, options):
    built = catalog.build(name, **options).f
    assert handle.label == built.label
    jv = JetVars.at([EvalPoint(0.13, 1.1, 0.21, 0.17), EvalPoint(-0.3, 0.7, 0.4, -0.2)], 2)
    assert np.array_equal(handle.jet_at(jv).c, built.jet_at(jv).c)
