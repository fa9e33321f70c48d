"""The public surface and the dependency rule, read from the source."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import equigraph

SRC = Path(equigraph.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(SRC)]))
THIRD_PARTY = {"numpy", "click"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"), filename=str(path))


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_every_name_in_all_is_bound(name):
    module = equigraph if name == "__init__" else importlib.import_module(f"equigraph.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_init_reexports_only_names_in_their_modules_all():
    # the package resolves its names on first access from one table, so the
    # table is what it re-exports
    stray = [f"{module}.{name}" for module, names in equigraph._EXPORTS.items()
             for name in names
             if name not in importlib.import_module(f"equigraph.{module}").__all__]
    assert not stray
    exported = [name for names in equigraph._EXPORTS.values() for name in names]
    assert sorted(exported) == equigraph.__all__
    assert all(getattr(equigraph, name) is getattr(importlib.import_module(
        f"equigraph.{equigraph._MODULE_OF[name]}"), name) for name in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_the_stdlib_numpy_and_click(path):
    roots, linalg = set(), []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            linalg.append(node.lineno)
            continue
        else:
            continue
        roots.update(n.split(".")[0] for n in names)
        linalg += [node.lineno for n in names if "linalg" in n.split(".")]
    assert roots <= set(sys.stdlib_module_names) | THIRD_PARTY, roots
    assert not linalg, f"numpy.linalg used at lines {linalg}"


def _import_roots(node: ast.Import | ast.ImportFrom) -> set[str]:
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names}
    return {node.module.split(".")[0]} if node.level == 0 else set()


def _imports_run_on_import(node: ast.AST):
    """The import statements that run when the module is imported: none in
    a function body, none under ``if TYPE_CHECKING:``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                and child.test.id == "TYPE_CHECKING"):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _imports_run_on_import(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_numpy_only_inside_functions(path):
    # the exact commands build no array, so importing the package must not
    # load numpy; the functions that build, read or solve a graph import it
    lines = [node.lineno for node in _imports_run_on_import(_tree(path))
             if "numpy" in _import_roots(node)]
    assert not lines, f"numpy imported on import at lines {lines}"


def _package_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The ``equigraph`` modules an import statement imports or imports from."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        prefix = ("equigraph." if node.level else "") + (f"{node.module}." if node.module else "")
        names = [prefix + a.name for a in node.names]
    return {n.split(".")[1] for n in names if n.startswith("equigraph.")}


_DEFERRED = {"graphs", "jacobi", "rings", "fields", "srg", "verify", "data"}


@pytest.mark.parametrize("name, deferred", [
    ("__init__.py", _DEFERRED), ("cli.py", _DEFERRED), ("graphs.py", {"srg"}),
], ids=["__init__.py", "cli.py", "graphs.py"])
def test_package_and_cli_import_no_layer_on_import(name, deferred):
    # ``import equigraph.cli`` runs exact and spectra alone; the graph, ring,
    # srg and verify layers run when a command first uses them, and the
    # graph layer runs srg only for a family whose closed form is an srg
    lines = [node.lineno for node in _imports_run_on_import(_tree(SRC / name))
             if _package_modules(node) & deferred]
    assert not lines, f"{name} imports a deferred layer on import at lines {lines}"


def test_only_spectra_reads_the_entries_view():
    # a Spectrum stores one list, ``values``; the ``(Eig, mult)`` view is
    # built on demand for the benchmark references and the tests alone
    readers = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               if path.name != "spectra.py"
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert not readers, readers


def test_only_spectra_builds_an_exact_eig():
    # outside spectra.py an exact eigenvalue is an int or a Surd, which the
    # Spectrum constructor takes as it is
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "spectra.py"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "from_exact"]
    assert not calls, calls


def test_cli_writes_json_and_csv_in_one_place_each():
    # every command's JSON goes through one json.dumps and its CSV through
    # one csv.writer, so the formats cannot drift apart between commands
    calls = [ast.unparse(node.func) for node in ast.walk(_tree(SRC / "cli.py"))
             if isinstance(node, ast.Call)]
    dict_writers = [node.lineno for node in ast.walk(_tree(SRC / "cli.py"))
                    if isinstance(node, ast.Attribute) and node.attr == "DictWriter"]
    assert (calls.count("json.dumps"), calls.count("csv.writer")) == (1, 1)
    assert not dict_writers, dict_writers


def test_click_parses_the_family_parameters_and_numpy_the_edge_lines():
    # family parameters go through a Click command and edge lines through
    # np.loadtxt; a hand-written parser would copy their errors or their parsing
    def calls(name, *banned):
        return [f"{name}:{node.lineno}" for node in ast.walk(_tree(SRC / name))
                if isinstance(node, ast.Call) and ast.unparse(node.func) in banned]

    assert not calls("cli.py", "click.NoSuchOption", "click.BadParameter", "ctx.fail")
    assert not calls("graphs.py", "np.fromstring")


def test_no_function_takes_a_float_defaulted_parameter():
    # a numeric value is judged by its certified radius alone, so no caller
    # sets a tolerance, a radius or a slack through a float default
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                try:
                    value = ast.literal_eval(default)
                except ValueError:
                    continue
                if isinstance(value, float):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
