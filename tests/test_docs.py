"""The README's module, catalog and exit-code tables and its list of
verification suites match the package, and the module table names only
what exists."""

import importlib
import inspect
import re
from pathlib import Path

import mjlab
from mjlab import catalog, cli, errors, verify

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _rows(header):
    """The cells of the rows of the README table under the given header
    row."""
    lines = README.splitlines()
    start = lines.index(header) + 2  # skip the header and the rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def _table(header):
    """The first cells of the rows of the README table under the given
    header row."""
    return [row[0] for row in _rows(header)]


def test_module_table_names_every_module():
    documented = _table("| module | contents |")
    modules = sorted(
        "`mjlab.%s`" % path.stem
        for path in (ROOT / "src" / "mjlab").glob("*.py")
        if path.stem != "__init__"
    )
    assert sorted(documented) == modules


def test_catalog_table_gives_every_entry_its_options_and_tag():
    documented = {
        name.strip("`"): (tuple(re.findall(r"`(\w+)`", options)), tag)
        for name, options, tag in _rows("| name | options | tag |")
    }
    assert documented == {
        name: (entry.options, entry.tag if isinstance(entry.tag, str) else "(%s, %s) %s" % entry.tag)
        for name, entry in catalog.CATALOG.items()
    }


def test_exit_code_table_lists_every_exit_code():
    documented = [int(code) for code in _table("| code | meaning |")]
    codes = {v for k, v in vars(cli).items() if re.fullmatch(r"EXIT_[A-Z]+", k)}
    assert sorted(documented) == sorted(codes | {0})


def test_suite_list_names_every_suite():
    lines = README.splitlines()
    start = lines.index("## Verification suites") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("#"))
    documented = [
        re.match(r"- `([^`]+)` —", line).group(1)
        for line in lines[start:end]
        if line.startswith("- ")
    ]
    assert sorted(documented) == sorted(verify.SUITES)


def test_module_table_names_only_what_exists():
    """Every backticked identifier in the module table resolves: an
    attribute (dotted path) of its row's module, of a class there, or of
    the package; else a suite, a catalog name, an error class or the
    command `mjlab`."""
    lines = README.splitlines()
    start = lines.index("| module | contents |") + 2
    known = set(verify.SUITES) | set(catalog.CATALOG) | set(dir(errors)) | {"mjlab"}
    unresolved = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        _, module, contents, _ = line.split("|")
        mod = importlib.import_module(module.strip().strip("`"))
        owners = [mod, mjlab] + [c for c in vars(mod).values() if inspect.isclass(c)]
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", contents):
            if name not in known and not any(_resolves(o, name) for o in owners):
                unresolved.append((mod.__name__, name))
    assert unresolved == []


def _resolves(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True
