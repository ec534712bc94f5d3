"""The public surface: every exported name and every name the benchmark traces resolves."""

import importlib
import importlib.util
import pathlib

import pytest

import qfmarket

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
