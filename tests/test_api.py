"""The public surface: every exported name and every name the benchmark
traces resolves, and no module reaches into a sibling's private names."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import qfmarket

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "qfmarket"

# (importing module, private name) pairs allowed to cross a module boundary.
PRIVATE_IMPORTS_ALLOWED = set()


def _traced_names():
    """TRACED and COUNTED read from the benchmark's tracer module, which is
    imported but not installed."""
    spec = importlib.util.spec_from_file_location("_qfmarket_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED + tracing.COUNTED


def _reexported_modules():
    """The modules __init__ re-exports with `from .x import *`, in its order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        importlib.import_module(f"qfmarket.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def _top_level_names(module):
    """Names a module's own top-level statements define (imports excluded)."""
    names = set()
    for node in ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_exported_name_resolves():
    assert len(set(qfmarket.__all__)) == len(qfmarket.__all__)
    missing = [name for name in qfmarket.__all__ if not hasattr(qfmarket, name)]
    assert missing == []


def test_the_package_exports_the_sorted_union_of_its_modules_lists():
    modules = _reexported_modules()
    assert [m.__name__.split(".")[1] for m in modules] == [
        "feasibility", "gridoracle", "market", "marketio", "metrics",
        "monopoly", "numeric", "proptest", "solver",
    ]
    listed = [name for module in modules for name in module.__all__]
    assert len(set(listed)) == len(listed)
    assert qfmarket.__all__ == sorted(listed)
    for module in modules:
        for name in module.__all__:
            assert getattr(qfmarket, name) is getattr(module, name)
    namespace = {}
    exec("from qfmarket import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qfmarket.__all__)


@pytest.mark.parametrize("module", _reexported_modules(), ids=lambda m: m.__name__)
def test_each_listed_name_is_public_and_defined_where_it_is_listed(module):
    assert [name for name in module.__all__ if name.startswith("_")] == []
    assert set(module.__all__) <= _top_level_names(module)


def test_the_package_init_names_no_public_name_itself():
    """__init__ only re-exports: a public name is listed once, in its
    module's __all__, beside its definition."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert named & set(qfmarket.__all__) == set()


@pytest.mark.parametrize("module,attr", _traced_names())
def test_every_traced_name_resolves(module, attr):
    """The tracer patches a method in its class's own namespace and a
    function at the module attribute, so both must exist there."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))


def test_no_module_imports_a_private_sibling_name():
    crossings = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("qfmarket"):
                continue
            crossings.update(
                (path.stem, alias.name) for alias in node.names if alias.name.startswith("_")
            )
    assert crossings == PRIVATE_IMPORTS_ALLOWED


def test_every_import_names_its_modules_own_definition():
    """A module imports each name from the module that defines it, not from
    a sibling that only imports it in turn."""
    borrowed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            defined = _top_level_names(importlib.import_module(f"qfmarket.{node.module}"))
            borrowed.update(
                (path.stem, node.module, alias.name)
                for alias in node.names
                if alias.name != "*" and alias.name not in defined
            )
    assert borrowed == set()


@pytest.mark.parametrize("reader", ["check_prices", "bang_per_buck"])
def test_only_market_reads_prices_through_check_prices(reader):
    """Every other module reads prices with market.read_prices, and demand
    with market.demand_sets, so a price is read the same way by every check.
    bang_per_buck reads one buyer's demand at a price as given, and only
    market itself may call it; __init__ may re-export a public name."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == reader for alias in node.names
            ):
                importers.add(path.stem)
    reexported = {"__init__"} if reader in qfmarket.__all__ else set()
    assert importers <= {"market"} | reexported
