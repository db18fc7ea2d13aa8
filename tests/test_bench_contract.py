"""The package still offers everything the benchmark calls.

``bench/tracing.py`` reports a missing entry point and lets its layer read 0,
so a refactor that renames one would zero a per-layer metric silently.  These
tests read the tracing tables as they are and check them against the package.
They also smoke-run every workload of ``bench/workloads.py`` once, with seed 1,
and parse its CLI chain, so a changed signature or flag that the benchmark
uses fails here and not only in a benchmark run.  Nothing under ``bench/``
is edited.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fusionring.cli import _build_parser
from fusionring.cyclo import Cyclotomic

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_bench_module("tracing")
with pytest.MonkeyPatch.context() as patch:
    # workloads.py imports its sibling module ``families`` by plain name.
    patch.syspath_prepend(str(BENCH))
    workloads = load_bench_module("workloads")


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_run(name, tmp_path):
    workload = workloads.WORKLOADS[name](1)
    checks = workloads.Checks()
    workload.build(checks)
    workload.oracle()
    workload.run_pass(checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
    parser = _build_parser()
    for argv, _ in workload.cli_chain(tmp_path):
        assert callable(parser.parse_args(argv).func), argv
