"""Spans and call counts for the traced benchmark run.

Nothing here edits the package.  ``Instrumentation.install`` rebinds names
from the benchmark's side: every public function named in ``SPANS`` is
replaced, in each ``fusionring`` module that binds it, by a wrapper that
records a span (nested calls such as ``validate`` -> ``charge_conjugation``
become child spans), and the ``Cyclotomic`` arithmetic entry points plus
``inverse`` are replaced by counting wrappers.  ``uninstall`` restores every
binding, so untraced passes run the unmodified package.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, function, work counts read off the result)
SPANS = {
    "s4_dataset.load": ("s4_dataset", "load_dataset", None),
    "mdf.parse": ("mdf", "parse_file", None),
    "mdf.serialize": ("mdf", "serialize", lambda text: {"mdf.bytes": len(text.encode())}),
    "lattice.build": ("lattice", "lattice_modular_data", None),
    "branching.audit": ("branching", "check_derived_rows", None),
    "branching.assemble": ("branching", "assemble_system", lambda system: {
        "branching.equations": len(system.equations),
        "branching.checks": system.checks_passed,
        "branching.unknowns": len(system.unknowns)}),
    "branching.solve": ("branching", "solve", None),
    "branching.eigen": ("branching", "eigen_complete",
                        lambda entries: {"branching.eigen_entries": len(entries)}),
    "modular_data.validate": ("modular_data", "validate", None),
    "modular_data.s_squared": ("modular_data", "charge_conjugation", None),
    "modular_data.glob": ("modular_data", "glob", None),
    "modular_data.to_file": ("modular_data", "datum_to_file", None),
    "modular_data.from_file": ("modular_data", "datum_from_file", None),
    "verlinde.tensor": ("verlinde", "fusion_tensor",
                        lambda tensor: {"verlinde.coeffs": tensor.size ** 3}),
    "verlinde.check_ring": ("verlinde", "check_ring", None),
    "verlinde.compare_fixtures": ("verlinde", "compare_fixtures", None),
}

# Cyclotomic method -> counter; __sub__ and __rsub__ reach these through "+".
METHOD_COUNTERS = {"__add__": "cyclo.add", "__radd__": "cyclo.add",
                   "__mul__": "cyclo.mul", "__rmul__": "cyclo.mul"}


class Tracer:
    """Spans (id, name, start, end, parent, round) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []

    def start(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, perf_counter(), None, parent, self.round]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def end(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.round][name] += n

    def round_totals(self) -> dict[int, dict[str, float]]:
        """Per round: each span name's summed duration (as ``<name>_s``) and each count."""
        totals: dict[int, dict[str, float]] = defaultdict(dict)
        for _, name, start, end, _, rnd in self.spans:
            key = name + "_s"
            totals[rnd][key] = totals[rnd].get(key, 0.0) + (end - start)
        for rnd, counts in self.counts.items():
            totals[rnd].update(counts)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, rnd in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent, "round": rnd}) + "\n")


class Instrumentation:
    """Installs and removes the span and counter wrappers on the loaded package."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._missing: set[str] = set()

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "fusionring" and not modname.startswith("fusionring."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _span_wrapper(self, name, func, extract):
        tracer = self.tracer

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = tracer.start(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(record)
            if extract is not None:
                for key, n in extract(result).items():
                    tracer.count(key, n)
            return result
        return traced

    def _counter(self, key, func):
        tracer = self.tracer

        @functools.wraps(func)
        def counted(*args, **kwargs):
            tracer.count(key)
            return func(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every entry point that exists; a missing one is reported once
        and its layer reads 0, so a refactor of the package cannot break the
        traced run."""
        from fusionring import cyclo

        for name, (modname, funcname, extract) in SPANS.items():
            func = getattr(sys.modules.get(f"fusionring.{modname}"), funcname, None)
            if func is None:
                self._missing.add(f"{modname}.{funcname}")
                continue
            self._rebind(func, self._span_wrapper(name, func, extract))
        self._rebind(cyclo.inverse, self._counter("cyclo.inverse", cyclo.inverse))
        cls = cyclo.Cyclotomic
        for method, key in METHOD_COUNTERS.items():
            original = cls.__dict__.get(method)
            if original is None:
                self._missing.add(f"Cyclotomic.{method}")
                continue
            self._undo.append((cls, method, original))
            setattr(cls, method, self._counter(key, original))
        init = cls.__dict__["__init__"]
        tracer = self.tracer

        def counted_init(self, order, coeffs, _canonical=False):
            if not _canonical:
                tracer.count("cyclo.canon")
            init(self, order, coeffs, _canonical)
        self._undo.append((cls, "__init__", init))
        cls.__init__ = counted_init

    @property
    def missing(self) -> list[str]:
        return sorted(self._missing)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
