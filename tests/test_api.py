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


def test_every_exported_name_resolves():
    assert len(set(qfmarket.__all__)) == len(qfmarket.__all__)
    missing = [name for name in qfmarket.__all__ if not hasattr(qfmarket, name)]
    assert missing == []


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


@pytest.mark.parametrize("reader", ["check_prices", "bang_per_buck", "is_demanded"])
def test_only_market_reads_prices_through_check_prices(reader):
    """Every other module reads prices with market.read_prices, and demand
    with market.demand_sets, so a price is read the same way by every check.
    bang_per_buck and is_demanded read one buyer's demand at a price as
    given, and only market itself may call them; __init__ may re-export
    a public name."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == reader for alias in node.names
            ):
                importers.add(path.stem)
    reexported = {"__init__"} if reader in qfmarket.__all__ else set()
    assert importers <= {"market"} | reexported
