"""The three benchmark workloads: inputs, one timed pass, oracle checks, CLI chain.

Passes call the package through module attributes (``md.validate`` and so
on) so that the traced run's rebinding in ``tracing.py`` reaches them.

* ``s4_pipeline``: the shipped 28-module dataset from files to a certified
  ring.  The only workload that runs ``branching`` and ``s4_dataset``; it
  does not depend on the seed.
* ``lattice_validate``: rank-1 lattice data at k = 11, 12, 13 (prime and
  smooth conductors).  ``validate`` (S^2 and unitarity, per-addition
  canonicalization in ``cyclo``) dominates; the Verlinde row cache collapses
  the tensor to 2k distinct rows.
* ``su2_tensor``: su(2)_k at k = 18, 24.  Every pair row is distinct, so the
  Verlinde engine and ``check_ring`` dominate, and ``cyclo`` is reached
  through deferred raw-exponent accumulation instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from fusionring import branching as br
from fusionring import lattice as la
from fusionring import mdf
from fusionring import modular_data as md
from fusionring import s4_dataset as s4
from fusionring import verlinde as vl

import families

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Counts oracle checks attempted and failed; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.bulk(1, 0 if ok else 1, what)

    def bulk(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(f"{what}: {failed} of {attempted} failed")


def _compare_tensor(checks: Checks, tensor, expected, what: str) -> None:
    n = len(expected)
    if tensor.values == expected and tensor.indices == list(range(n)):
        checks.bulk(n ** 3, 0, what)
        return
    bad = sum(tensor.values[a][b][c] != expected[a][b][c]
              for a in range(n) for b in range(n) for c in range(n))
    checks.bulk(n ** 3, max(bad, 1), what)


def _datum_file_text(datum, scale_text=None) -> str:
    return mdf.serialize(md.datum_to_file(datum, scale_expr_text=scale_text))


def _check_round_trip(checks: Checks, datum, text: str) -> None:
    back = md.datum_from_file(mdf.parse_file(text))
    checks.expect(back.s == datum.s and back.dual_permutation() == datum.dual_permutation(),
                  f"{datum.name}: file round trip")


class Workload:
    name = ""
    seeded = True

    def __init__(self, seed: int):
        self.seed = seed
        self.files: dict[str, str] = {}

    def build(self, checks: Checks) -> None:
        """Program work that prepares the inputs (timed as set-up)."""

    def oracle(self) -> None:
        """Benchmark-side expected results (not timed)."""

    def run_pass(self, checks: Checks) -> None:
        raise NotImplementedError

    def cli_chain(self, workdir: Path):
        """[(argv, verify(returncode, stdout, checks))] run as subprocesses in order."""
        raise NotImplementedError


class S4Pipeline(Workload):
    name = "s4_pipeline"
    seeded = False
    SCALE = "1/sqrt(32)"
    HARD, SOFT_DISCREPANCIES, EIGEN = 388, 14, 49
    EQUATIONS, RELATION_CHECKS, UNKNOWNS, GLOBAL_DIM = 126, 1498, 28, 1152

    def oracle(self) -> None:
        text = s4.data_path("s4_fixtures.mdf").read_text()
        self.fixtures = families.read_fixtures(text)

    def run_pass(self, checks: Checks) -> None:
        datum, parents, fixtures = s4.load_dataset()
        audit = br.check_derived_rows(parents, datum)
        system = br.assemble_system(parents, datum)
        result = br.solve(system, datum)
        eigen = br.eigen_complete(datum, fixtures)
        report = md.validate(result.datum)
        gdim = md.glob(result.datum)
        tensor = vl.fusion_tensor(result.datum, jobs=1)
        ring = vl.check_ring(tensor, result.datum)
        hard_disc = vl.compare_fixtures(tensor, [fx for fx in fixtures if not fx.soft])
        soft_disc = vl.compare_fixtures(tensor, [fx for fx in fixtures if fx.soft])
        text = _datum_file_text(result.datum, self.SCALE)

        checks.expect(not audit.conflicts, "derived-row audit")
        checks.expect((len(system.equations), system.checks_passed, len(system.unknowns))
                      == (self.EQUATIONS, self.RELATION_CHECKS, self.UNKNOWNS),
                      "relation system size")
        checks.expect(len(eigen) == self.EIGEN, "eigen route entry count")
        checks.bulk(len(eigen), sum(result.datum.entry(*pos) != value
                                    for pos, value in eigen.items()), "eigen route agreement")
        checks.expect(report.ok and report.unknown_count == 0, "validate")
        checks.expect(gdim == self.GLOBAL_DIM, "global dimension")
        checks.expect(ring.ok, "check_ring")
        checks.expect(not hard_disc and len(soft_disc) == self.SOFT_DISCREPANCIES,
                      "compare_fixtures")
        hard = [(l, r, p) for soft, l, r, p in self.fixtures if not soft]
        checks.expect(len(hard) == self.HARD, "hard fixture count")
        checks.bulk(len(hard), sum(tensor.product(l, r) != p for l, r, p in hard),
                    "hard fixtures")
        soft_refuted = sum(tensor.product(l, r) != p
                           for soft, l, r, p in self.fixtures if soft)
        checks.expect(soft_refuted == self.SOFT_DISCREPANCIES, "soft fixture discrepancies")
        checks.expect(sha256(text) == EXPECTED["s4_completed_sha256"], "completed datum digest")

    def cli_chain(self, workdir: Path):
        out = workdir / "s4_completed.mdf"

        def completed(code, stdout, checks):
            checks.expect(code == 0, "cli complete exit code")
            checks.expect(out.is_file() and sha256(out.read_bytes())
                          == EXPECTED["s4_completed_sha256"], "cli complete output digest")

        def regressed(code, stdout, checks):
            checks.expect(code == 0, "cli regress exit code")
            checks.expect(sha256(stdout) == EXPECTED["s4_regress_stdout_sha256"],
                          "cli regress stdout digest")

        return [(["complete", "@s4", "--parents", "@s4_branching", "--cross-check", "eigen",
                  "-o", str(out)], completed),
                (["regress", str(out), "@s4_fixtures", "--jobs", "1"], regressed)]


class LatticeValidate(Workload):
    name = "lattice_validate"
    KS = (11, 12, 13)
    CLI_K = 13

    def build(self, checks: Checks) -> None:
        rng = random.Random(self.seed)
        self.perms = {k: families.seeded_relabeling(rng, 2 * k) for k in self.KS}
        datum = families.relabel(la.lattice_modular_data(la.LatticeSpec(self.CLI_K)),
                                 self.perms[self.CLI_K])
        text = _datum_file_text(datum, f"1/sqrt({2 * self.CLI_K})")
        _check_round_trip(checks, datum, text)
        self.files["lattice.mdf"] = text

    def oracle(self) -> None:
        self.expected = {k: families.lattice_oracle(k, self.perms[k]) for k in self.KS}
        self.cli_report = None

    def run_pass(self, checks: Checks) -> None:
        for k in self.KS:
            datum = families.relabel(la.lattice_modular_data(la.LatticeSpec(k)), self.perms[k])
            report = md.validate(datum)
            tensor = vl.fusion_tensor(datum, jobs=1)
            values, duals = self.expected[k]
            checks.expect(report.ok and report.unitary is True
                          and report.dual_permutation == duals, f"validate k={k}")
            _compare_tensor(checks, tensor, values, f"Z_{2 * k} fusion")
            if k == self.CLI_K:
                self.cli_report = report.to_text() + "\n"

    def cli_chain(self, workdir: Path):
        def validated(code, stdout, checks):
            checks.expect(code == 0, "cli validate exit code")
            checks.expect(self.cli_report is not None
                          and sha256(stdout) == sha256(self.cli_report),
                          "cli validate stdout digest")

        return [(["validate", str(workdir / "lattice.mdf")], validated)]


class Su2Tensor(Workload):
    name = "su2_tensor"
    KS = (18, 24)
    CLI_K = 24

    def build(self, checks: Checks) -> None:
        rng = random.Random(self.seed)
        self.perms = {k: families.seeded_relabeling(rng, k + 1) for k in self.KS}
        self.data = {k: families.relabel(families.su2_datum(k), self.perms[k]) for k in self.KS}
        text = _datum_file_text(self.data[self.CLI_K])
        _check_round_trip(checks, self.data[self.CLI_K], text)
        self.files["su2.mdf"] = text

    def oracle(self) -> None:
        self.expected = {k: families.su2_oracle(k, self.perms[k]) for k in self.KS}

    def run_pass(self, checks: Checks) -> None:
        for k in self.KS:
            datum = self.data[k]
            tensor = vl.fusion_tensor(datum, jobs=1)
            ring = vl.check_ring(tensor, datum)
            _compare_tensor(checks, tensor, self.expected[k], f"su(2)_{k} fusion")
            checks.expect(ring.ok and ring.simple_currents == sorted({0, self.perms[k][k]}),
                          f"su(2)_{k} check_ring")

    def cli_chain(self, workdir: Path):
        expected = sha256(families.triples_text(self.expected[self.CLI_K]))

        def tabled(code, stdout, checks):
            checks.expect(code == 0, "cli table exit code")
            checks.expect(sha256(stdout) == expected, "cli table stdout digest")

        return [(["table", str(workdir / "su2.mdf"), "--jobs", "1"], tabled)]


WORKLOADS = {cls.name: cls for cls in (S4Pipeline, LatticeValidate, Su2Tensor)}
