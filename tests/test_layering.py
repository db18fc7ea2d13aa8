"""Module layering: no module of the package imports another's private names,
and the CLI imports only what a command runs."""

import ast
import subprocess
import sys
from pathlib import Path

from fusionring.lattice import LatticeSpec, lattice_datum_file
from fusionring.mdf import serialize

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "fusionring"


def test_no_private_name_crosses_a_module_boundary():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("fusionring"))):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


# Run by a fresh interpreter: sys.argv[1] is src, sys.argv[2] a datum file.
COLD_VALIDATE = """
import sys
sys.path.insert(0, sys.argv[1])
import fusionring.cli
at_import = sorted({"dataclasses", "inspect"} & set(sys.modules))
code = fusionring.cli.main(["validate", sys.argv[2]])
unused = {"fusionring.branching", "fusionring.verlinde", "fusionring.lattice",
          "fusionring.s4_dataset", "json"}
print(code, at_import, sorted(unused & set(sys.modules)))
"""


def test_cold_validate_imports_only_what_it_runs(tmp_path):
    # Every cold CLI process compiles what it imports; ``dataclasses`` alone
    # brings in ``inspect``, and ``validate`` runs no Verlinde, branching,
    # lattice, dataset or JSON code.
    datum = tmp_path / "lattice3.mdf"
    datum.write_text(serialize(lattice_datum_file(LatticeSpec(3))))
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", COLD_VALIDATE,
                           str(SRC), str(datum)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: valid\n" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 [] []"
