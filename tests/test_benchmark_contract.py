"""The names the benchmark harness (`perfbench/`) takes from mjlab exist.

The harness imports some names, reaches attributes of them, and names
others by string in its tracer's tables, so a rename in the package would
break it without any import error here.  All three kinds are read from the
harness's source with `ast`, without importing it, and each must resolve
in mjlab."""

import ast
import importlib
from pathlib import Path

import pytest

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


def _table_names():
    """Dotted paths in mjlab of the names in the tracer's tables
    ("mjlab.layer.attr" or "mjlab.layer.Class.method")."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                value = node.value
                if isinstance(value, ast.Call):  # frozenset((...))
                    value = value.args[0]
                tables[name] = ast.literal_eval(value)
    assert set(tables) == set(TABLES)
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
