"""The entry points that the benchmark's traced run wraps still exist.

``bench/tracing.py`` reports a missing entry point and lets its layer read 0,
so a refactor that renames one would zero a per-layer metric silently.  These
tests read the tracing tables as they are and check them against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fusionring.cyclo import Cyclotomic

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_span_entry_point_exists(span):
    modname, funcname, _ = tracing.SPANS[span]
    module = importlib.import_module(f"fusionring.{modname}")
    assert callable(getattr(module, funcname, None)), f"fusionring.{modname}.{funcname}"


def test_counted_methods_exist():
    for method in tracing.METHOD_COUNTERS:
        assert method in Cyclotomic.__dict__, method


def test_cyclotomic_constructor_signature():
    params = list(inspect.signature(Cyclotomic.__init__).parameters)
    assert params == ["self", "order", "coeffs", "_canonical"]
