"""Command-line interface: commands, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fusionring import modular_data
from fusionring.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment of a CLI subprocess: this checkout's src comes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_shows_the_user_paragraphs_only(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    out = capsys.readouterr().out
    assert info.value.code == 0
    assert "Subcommands: validate" in out and "Exit status: 0 success" in out
    assert "File arguments accept a path" in out and "import" not in out


def test_validate_partial(capsys):
    code, out, _ = run(capsys, "validate", "@s4")
    assert code == 0
    assert "unknown entries: 49" in out
    assert "verdict: valid" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "@s4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unknown_entries"] == 49


def test_validate_corrupted(tmp_path, capsys):
    bad = tmp_path / "bad.mdf"
    bad.write_text("[header]\nname = x\nmodules = @@\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "qdim", "glob", "table"])
def test_empty_datum_is_an_error(command, tmp_path, capsys):
    # An empty file declares no datum size: a parse error naming the missing
    # header key, like ``modules = 0``.
    empty = tmp_path / "empty.mdf"
    empty.write_text("")
    assert run(capsys, command, str(empty)) == (
        2, "", "error: the header has no 'modules' key\n")


def test_validate_checks_recorded_qdims(tmp_path, capsys):
    from fusionring.s4_dataset import data_path

    bad = tmp_path / "bad_qdim.mdf"
    bad.write_text(data_path("s4_partial.mdf").read_text().replace(
        "7 M7 qdim=4 dual=7", "7 M7 qdim=5 dual=7", 1))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert err == "error: module 7: S[7,0]/S[0,0] != recorded qdim 5\n"


def test_validate_reports_unchecked_qdims(tmp_path, capsys):
    zero = tmp_path / "zero_vacuum.mdf"
    zero.write_text("[header]\nname = z\nmodules = 2\nvacuum = 0\n[S]\n0 0 0\n")
    code, out, _ = run(capsys, "validate", str(zero))
    assert code == 1
    assert "qdim embeddings: not checked (S[0,0] is zero or unknown)\n" in out
    code, out, _ = run(capsys, "validate", str(zero), "--json")
    assert json.loads(out)["bad_qdims"] is None


def test_nonzero_vacuum_is_a_parse_error(tmp_path, capsys):
    from fusionring.s4_dataset import data_path

    text = data_path("s4_partial.mdf").read_text()
    line_no = text.splitlines().index("vacuum = 0") + 1
    bad = tmp_path / "bad_vacuum.mdf"
    bad.write_text(text.replace("vacuum = 0", "vacuum = 3", 1))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line_no}, ") and "vacuum must be 0" in err


@pytest.mark.parametrize("entry", ["sqrt(1000000007)", "E(10000019)"])
def test_capped_conductor_exits_2_at_once(tmp_path, capsys, entry):
    bad = tmp_path / "big.mdf"
    bad.write_text(f"[header]\nname = big\nmodules = 1\n\n[S]\n0 0 {entry}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(bad))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: line 6, offset 0: ") and err.endswith("65536\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.mdf")
    assert code == 2


def test_complete_and_validate(tmp_path, capsys):
    out_path = tmp_path / "completed.mdf"
    code, _, err = run(capsys, "complete", "@s4", "--parents", "@s4_branching",
                       "-o", str(out_path))
    assert (code, err) == (0, "# solved 28 unknown entries; 1596 relations verified\n")
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0
    assert "unknown entries: 0" in out
    assert "S^2=C: identity" in out


def test_complete_never_overwrites_a_known_entry(completed_file, tmp_path, capsys):
    # S[1,2] is given and its mirror S[2,1] is "?": a wrong value contradicts
    # the relations, and the true one completes to the usual datum.
    partial = Path(SRC, "fusionring", "data", "s4_partial.mdf").read_text()
    assert partial.count("\n1 2 ?\n") == 1 and "\n2 1 ?\n" in partial
    wrong = tmp_path / "wrong.mdf"
    wrong.write_text(partial.replace("\n1 2 ?\n", "\n1 2 5\n"))
    code, out, err = run(capsys, "complete", str(wrong), "--parents", "@s4_branching")
    assert code == 3
    assert out == ""
    assert err.startswith("error: contradictory relations")
    right = tmp_path / "right.mdf"
    right.write_text(partial.replace("\n1 2 ?\n", "\n1 2 1/3\n"))
    code, out, err = run(capsys, "complete", str(right), "--parents", "@s4_branching")
    assert code == 0
    assert "solved 27 unknown entries" in err
    assert out == Path(completed_file).read_text()


def test_labels_only_copy_checks_its_qdims_on_the_completion(completed_file, tmp_path,
                                                             capsys):
    # Without an [S] section no qdim= label can be checked at load: complete
    # checks every one on the completed datum, and a wrong one names its module.
    partial = Path(SRC, "fusionring", "data", "s4_partial.mdf").read_text()
    labels = partial.split("[S]\n")[0]
    assert labels.count(" qdim=") == 28
    copy = tmp_path / "labels.mdf"
    summary = "# solved 406 unknown entries; 1218 relations verified\n"
    copy.write_text(labels)
    assert run(capsys, "complete", str(copy), "--parents", "@s4_branching") == (
        0, Path(completed_file).read_text(), summary)
    copy.write_text(labels.replace("7 M7 qdim=4 dual=7", "7 M7 qdim=5 dual=7", 1))
    assert run(capsys, "complete", str(copy), "--parents", "@s4_branching") == (
        1, "", summary + "error: module 7: S[7,0]/S[0,0] != recorded qdim 5\n")


def test_complete_without_parents(capsys):
    code, _, err = run(capsys, "complete", "@s4")
    assert code == 3


def test_complete_eigen_cross_check(completed_file, capsys):
    # The eigen route agrees and leaves the completed file as it was.
    code, out, err = run(capsys, "complete", "@s4", "--parents", "@s4_branching",
                         "--cross-check", "eigen")
    assert (code, out) == (0, Path(completed_file).read_text())
    assert err == ("# solved 28 unknown entries; 1596 relations verified\n"
                   "# eigen cross-check: 49 entries agree\n")


def test_eigen_cross_check_failure_names_its_route(tmp_path, capsys):
    # The branching completion succeeds; only the eigen route fails, and its
    # error says so.  No fixtures leave column 1 free; 9 x 11 gaining the
    # channel 1 contradicts the relations of column 1.
    from fusionring.s4_dataset import data_path

    fixtures = tmp_path / "tampered.mdf"
    fixtures.write_text(data_path("s4_fixtures.mdf").read_text().replace(
        "9 x 11 = 3 + ", "9 x 11 = 1 + 3 + "))
    free = "system leaves unknowns free: [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]"
    contradiction = ("contradictory relations (residual -1): ['N[8,1] col1', 'N[8,3] col1', "
                     "'N[8,4] col1', 'N[8,5] col1', 'N[8,7] col1', 'N[9,11] col1']")
    for path, message in (("/dev/null", free), (str(fixtures), contradiction)):
        code, out, err = run(capsys, "complete", "@s4", "--parents", "@s4_branching",
                             "--cross-check", "eigen", "--fixtures", path)
        assert code == 3 and out == ""
        assert err == ("# solved 28 unknown entries; 1596 relations verified\n"
                       f"error: eigen cross-check: {message}\n")


@pytest.mark.parametrize("argv", [
    ["complete", "@s4", "--parents", "@s4_branching", "--cross-check", "eigen", "--fixtures"],
    ["regress", "@s4"],
])
def test_fusion_pair_given_twice_is_refused(tmp_path, capsys, argv):
    # The shipped fixtures have 8 x 9; a second hard line for the pair would
    # overwrite it in the eigen route and contradict it in regress.  complete
    # reads the fixtures before it solves, so only the error is printed.
    from fusionring.s4_dataset import data_path

    fixtures = tmp_path / "twice.mdf"
    text = data_path("s4_fixtures.mdf").read_text() + "9 x 8 = 8\n"
    fixtures.write_text(text)
    code, out, err = run(capsys, *argv, str(fixtures))
    line = len(text.splitlines())
    assert code == 2 and out == ""
    assert err == f"error: line {line}: fusion pair 9 x 8 declared twice\n"


@pytest.mark.parametrize("module, line", [(0, "0 m0 1 1.0000000000"),
                                          (1, "1 m1 E(4) 0.0000000000+1.0000000000i")])
def test_qdim_prints_a_complex_embedding(tmp_path, capsys, module, line):
    path = tmp_path / "complex.mdf"
    path.write_text("[header]\nmodules = 2\n[S]\n0 0 1\n0 1 E(4)\n1 0 E(4)\n1 1 1\n")
    code, out, _ = run(capsys, "qdim", str(path))
    assert code == 0 and out.splitlines()[module] == line


def test_eigen_fixtures_outside_the_datum(tmp_path, capsys):
    # Lattice data with S[1,2] = S[2,1] hidden, completed from themselves.
    # The shipped fixtures belong to the 28-module dataset, so they are the
    # default for @s4 only: read for Z_32, they made its cross-check fail
    # (exit 3) with relations of modules the dataset names.
    no_fixtures = "error: --cross-check eigen needs --fixtures for a datum other than @s4\n"
    for k, verified in ((3, 35), (16, 1023)):
        datum = lattice_file(capsys, tmp_path, k, lambda line: line[:4] + "?" if line.startswith(
            ("1 2 ", "2 1 ")) else line)
        parents = tmp_path / f"self{k}.mdf"
        parents.write_text(f'[branching parent="self" k={k}]\n'
                           + "".join(f"{j} = {j}\n" for j in range(2 * k)))
        code, out, err = run(capsys, "complete", str(datum), "--parents", str(parents))
        assert (code, err) == (0, f"# solved 1 unknown entries; {verified} relations verified\n")
        code, out, err = run(capsys, "complete", str(datum), "--parents", str(parents),
                             "--cross-check", "eigen")
        assert (code, out, err) == (4, "", no_fixtures)
    code, out, err = run(capsys, "complete", str(tmp_path / "lattice3.mdf"), "--parents",
                         str(tmp_path / "self3.mdf"), "--cross-check", "eigen",
                         "--fixtures", "@s4_fixtures")
    assert code == 2
    assert out == ""
    assert err.endswith("error: fusion record index 6 out of range for 6 modules\n")


def test_fixtures_without_the_eigen_cross_check_is_a_usage_error(capsys):
    # Only the eigen cross-check reads fixtures; the path is not opened.
    assert run(capsys, "complete", "@s4", "--parents", "@s4_branching",
               "--fixtures", "/nonexistent") == (
        4, "", "error: --fixtures needs --cross-check eigen\n")


def lattice_file(capsys, tmp_path, k, edit=lambda line: line):
    """The lattice datum of norm 2k written to a file, each line passed through ``edit``."""
    code, out, _ = run(capsys, "lattice", "--k", str(k))
    assert code == 0
    path = tmp_path / f"lattice{k}.mdf"
    path.write_text("".join(edit(line) + "\n" for line in out.splitlines()))
    return path


def test_validate_reports_wrong_dual_labels(tmp_path, capsys):
    # In Z_4 the dual of coset 1 is 3; the file claims 1 is self-dual.
    datum = lattice_file(capsys, tmp_path, 2,
                         lambda line: "1 c1 qdim=1 dual=1" if line.startswith("1 c1 ") else line)
    code, out, _ = run(capsys, "validate", str(datum))
    assert code == 1
    assert "S^2=C: permutation [0, 3, 2, 1]\ndual labels disagree at [1]\n" in out
    assert out.endswith("verdict: INVALID\n")
    code, out, _ = run(capsys, "validate", str(datum), "--json")
    payload = json.loads(out)
    assert code == 1 and payload["dual_mismatches"] == [1] and payload["ok"] is False


def test_validate_reports_a_symmetry_violation(tmp_path, capsys):
    datum = tmp_path / "asymmetric.mdf"
    datum.write_text("[header]\nmodules = 2\n\n[S]\n0 0 1\n0 1 1\n1 0 2\n1 1 -1\n")
    assert run(capsys, "validate", str(datum)) == (1, (
        "datum: (unnamed)  modules: 2\nunknown entries: 0\nsymmetry: violated at [(0, 1)]\n"
        "vacuum row: no zero entries\nqdim embeddings: all positive real\n"
        "S^2=C: FAILED (S^2[0,0] = 3 is neither 0 nor 1)\nverdict: INVALID\n"), "")
    code, out, _ = run(capsys, "validate", str(datum), "--json")
    payload = json.loads(out)
    assert code == 1 and payload["symmetry_violations"] == [[0, 1]] and payload["ok"] is False


def test_unset_duals_that_contradict_s_squared_are_refused(tmp_path, capsys):
    # Z_6 without its dual= attributes: an unset dual reads as self-dual, but
    # S^2 = C pairs 1 with 5 and 2 with 4.  Trusted, the labels made 1 x 1
    # read 4 instead of 2.
    datum = lattice_file(capsys, tmp_path, 3, lambda line: re.sub(r" dual=\d+", "", line))
    code, out, _ = run(capsys, "validate", str(datum), "--json")
    payload = json.loads(out)
    assert code == 1 and payload["dual_mismatches"] == [1, 2, 4, 5] and payload["ok"] is False
    for argv in (["fuse", str(datum), "1", "1"], ["table", str(datum)]):
        assert run(capsys, *argv) == (
            1, "", "error: dual labels disagree with S^2 = C at modules [1, 2, 4, 5]\n")


@pytest.mark.parametrize("command, text, code, out, err", [
    ("validate", '[branching parent="p" k=1]\n1 = 0\n1 = 0\n', 2, "",
     "error: line 3: branching row 1 declared twice\n"),
    ("validate", "[header]\nmodules = 1\n\n[S]\n0 0 1/0\n", 2, "",
     "error: line 5, offset 0: zero denominator\n"),
    ("validate", "[header]\nmodules = 1\nmodules = 2\n\n[S]\n0 0 1\n", 2, "",
     "error: line 3: header key 'modules' declared twice\n"),
    ("validate", "[header]\nmodules = 0\n", 2, "",
     "error: line 2, offset 0: modules must be at least 1\n"),
    ("validate", "[header]\nmodules = 2\n\n[S]\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n", 1,
     "datum: (unnamed)  modules: 2\nunknown entries: 0\nsymmetry: ok\n"
     "vacuum row: no zero entries\nqdim embeddings: all positive real\n"
     "S^2=C: FAILED (S^2[0,0] = 2 is neither 0 nor 1)\nverdict: INVALID\n", ""),
    ("table", "[header]\nmodules = 2\n\n[S]\n0 0 1\n0 1 0\n1 0 0\n1 1 1\n", 1, "",
     "error: S[0,1] = 0 in the Verlinde denominator\n"),
    ("qdim", "[header]\nmodules = 2\n\n[S]\n0 0 1\n0 1 1\n1 0 ?\n1 1 -1\n", 1,
     "0 m0 1 1.0000000000\n", "error: S[1,0] is unknown\n"),
    # A value that divides by zero is a parse error that names its text.
    ("validate", "[header]\nmodules = 1\n\n[S]\n0 0 1/(1-1)\n", 2, "",
     "error: S[0,0] = 1/(1-1): division by zero\n"),
    ("validate", "[header]\nmodules = 1\n\n[S]\n0 0 (1-1)^-1\n", 2, "",
     "error: S[0,0] = (1-1)^-1: division by zero\n"),
    ("validate", "[header]\nmodules = 1\nscale = 1/(E(3)+E(3)^2+1)\n\n[S]\n0 0 1\n", 2, "",
     "error: scale = 1/(E(3)+E(3)^2+1): division by zero\n"),
    ("validate", "[header]\nmodules = 1\n\n[labels]\n0 vac qdim=0^-1\n\n[S]\n0 0 1\n", 2, "",
     "error: label 0 qdim = 0^-1: division by zero\n"),
])
def test_documented_errors(tmp_path, capsys, command, text, code, out, err):
    path = tmp_path / "datum.mdf"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (code, out, err)


@pytest.mark.parametrize("argv", [["validate"], ["fuse", "0", "0"], ["table"]])
def test_missing_modules_key_is_a_parse_error(tmp_path, capsys, argv):
    # A file without ``modules`` declares no datum size: a parse error
    # (exit 2) like ``modules = 0``, not a 0-module datum (exit 1), and
    # named by the key, not by the first S entry it leaves out of range.
    path = tmp_path / "datum.mdf"
    for text in ("[header]\nname = x\n", "[S]\n0 0 1\n"):
        path.write_text(text)
        assert run(capsys, argv[0], str(path), *argv[1:]) == (
            2, "", "error: the header has no 'modules' key\n")


def test_eigen_cross_check_disagreement_exits_3(tmp_path, capsys):
    # Z_4 with S[1,1], S[1,3], S[3,1], S[3,3] hidden, completed from itself.
    # The fixtures 2 x 1 = 1 and 2 x 3 = 3 (truly 3 and 1) give, with
    # chi_s(2) = -1 at s = 1, 3, the consistent eigen values 0.
    datum = lattice_file(capsys, tmp_path, 2, lambda line: line[:4] + "?" if line in (
        "1 1 -E(4)", "1 3 E(4)", "3 1 E(4)", "3 3 -E(4)") else line)
    parents = tmp_path / "self.mdf"
    parents.write_text('[branching parent="self" k=2]\n'
                       + "".join(f"{j} = {j}\n" for j in range(4)))
    fixtures = tmp_path / "wrong.mdf"
    fixtures.write_text("[fusion]\n2 x 1 = 1\n2 x 3 = 3\n")
    code, out, err = run(capsys, "complete", str(datum), "--parents", str(parents),
                         "--cross-check", "eigen", "--fixtures", str(fixtures))
    assert code == 3 and out == ""
    assert err == ("# solved 3 unknown entries; 13 relations verified\n"
                   + "".join(f"# eigen route disagrees at S[{r},{c}]: 0\n"
                             for r, c in [(1, 1), (1, 3), (3, 1), (3, 3)]))


@pytest.mark.parametrize("section, row, message", [
    ('[branching parent="p" k=2]', "-1 = 0", "branching row -1 out of range for k=2"),
    ('[branching parent="p" k=2]', "7 = 0", "branching row 7 out of range for k=2"),
    ('[branching parent="p" k=0]', "0 = 0", "branching parent 'p': k=0 is not positive"),
    ('[branching parent="p" k=100000]', "0 = 0",
     "branching parent 'p': 2k = 200000 modules exceeds 1024"),
])
def test_headerless_branching_is_range_checked(tmp_path, capsys, section, row, message):
    # Without a [header] the file declares no module count, but the rows of
    # a parent of norm 2k still range over 0..2k-1.
    parents = tmp_path / "headerless.mdf"
    parents.write_text(f"{section}\n{row}\n")
    code, out, err = run(capsys, "complete", "@s4", "--parents", str(parents))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_branching_outside_the_datum(tmp_path, capsys):
    code, out, _ = run(capsys, "lattice", "--k", "3")
    datum = tmp_path / "lattice3.mdf"
    datum.write_text(out)
    code, out, err = run(capsys, "complete", str(datum), "--parents", "@s4_branching")
    assert code == 2
    assert err.startswith("error: norm32: branching target ")


def test_regress_partial_counts_only_the_block(capsys):
    # The block tensor of the partial datum covers modules 0 and 8..27.
    code, out, _ = run(capsys, "regress", "@s4", "@s4_fixtures")
    assert code == 0
    assert "hard fixtures checked: 155, discrepancies: 0" in out
    assert "soft fixtures checked: 6, discrepancies: 6" in out
    code, out, _ = run(capsys, "regress", "@s4", "@s4_fixtures", "--json")
    payload = json.loads(out)
    assert (payload["hard_checked"], payload["soft_checked"]) == (155, 6)


@pytest.fixture(scope="module")
def completed_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "completed.mdf"
    assert main(["complete", "@s4", "--parents", "@s4_branching",
                 "-o", str(path)]) == 0
    return str(path)


def test_fuse(completed_file, capsys, monkeypatch):
    # One product needs one Verlinde row, not the whole tensor.
    calls = []
    row = modular_data._Engine.row
    monkeypatch.setattr(modular_data._Engine, "row",
                        lambda engine, i, j: calls.append((i, j)) or row(engine, i, j))
    code, out, _ = run(capsys, "fuse", completed_file, "8", "18")
    assert code == 0
    assert out.strip() == "18 + 19 + 26 + 27"
    assert calls == [(8, 18)]


@pytest.mark.parametrize("argv, code, message", [
    (["validate", "huge.mdf"], 2, "error: line 2, offset 0: modules exceeds 1024\n"),
    (["lattice", "--k", "100000"], 1, "error: 2k = 200000 modules exceeds 1024\n"),
])
def test_module_counts_above_the_cap_are_refused_within_a_memory_limit(tmp_path, argv, code,
                                                                        message):
    # 100000 modules would be 10^10 S cells; the count is refused before any
    # is allocated, here under a 1 GB address-space limit.
    resource = pytest.importorskip("resource")
    (tmp_path / "huge.mdf").write_text("[header]\nmodules = 100000\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fusionring.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=child_env(),
                          preexec_fn=limit, timeout=60)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message)


def test_fuse_unknown_rows(capsys):
    code, out, err = run(capsys, "fuse", "@s4", "1", "2")
    assert code == 1
    assert out == ""
    assert err == "error: rows 1, 2 are not fully known\n"


@pytest.mark.parametrize("i, j", [("0", "1"), ("1", "0"), ("1", "1")])
def test_fuse_names_only_the_row_not_fully_known(capsys, i, j):
    # Row 0, the vacuum, is fully known on the partial datum; row 1 is not.
    code, out, err = run(capsys, "fuse", "@s4", i, j)
    assert (code, out, err) == (1, "", "error: row 1 is not fully known\n")


@pytest.mark.parametrize("i", ["99", "-1"])
def test_fuse_module_out_of_range(completed_file, i, capsys):
    code, out, err = run(capsys, "fuse", completed_file, i, "0")
    assert code == 2
    assert out == ""
    assert err == f"error: module index {i} out of range for 28 modules\n"


def test_glob(completed_file, capsys):
    code, out, _ = run(capsys, "glob", completed_file)
    assert code == 0
    assert out.startswith("1152 = 1152.0000000000")


def test_qdim(completed_file, capsys):
    code, out, _ = run(capsys, "qdim", completed_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 28
    assert lines[7] == "7 M7 4 4.0000000000"
    assert lines[26] == "26 M26 12 12.0000000000"


def test_regress_hard_clean(completed_file, capsys):
    code, out, _ = run(capsys, "regress", completed_file, "@s4_fixtures")
    assert code == 0
    assert "hard fixtures checked: 388, discrepancies: 0" in out
    assert "soft fixtures checked: 18, discrepancies: 14" in out


def test_regress_soft_enforced(completed_file, capsys):
    code, out, _ = run(capsys, "regress", completed_file, "@s4_fixtures",
                       "--soft-fixtures")
    assert code == 1


def test_regress_json(completed_file, capsys):
    code, out, _ = run(capsys, "regress", completed_file, "@s4_fixtures", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hard_checked"] == 388
    assert payload["hard_discrepancies"] == []
    assert len(payload["soft_discrepancies"]) == 14


def test_regress_detects_corruption(completed_file, tmp_path, capsys):
    bad = tmp_path / "bad_fixtures.mdf"
    bad.write_text("[header]\nname = f\nmodules = 28\nvacuum = 0\n"
                   "[fusion]\n8 x 18 = 18 | src:demo\n")
    code, out, _ = run(capsys, "regress", completed_file, str(bad))
    assert code == 1
    assert "discrepancies: 1" in out


def test_regress_reads_an_indented_header_as_a_datum_file(completed_file, tmp_path, capsys):
    # The file kind is told by the first content line with its indent and
    # comment stripped, as parse_file reads it.
    text = ("# demo fixtures\n[header]\nname = f\nmodules = 28\nvacuum = 0\n"
            "[fusion]\n8 x 18 = 18 | src:demo\n")
    plain, indented = tmp_path / "plain.mdf", tmp_path / "indented.mdf"
    plain.write_text(text)
    indented.write_text("".join(f"  {line}\n" for line in text.splitlines()))
    expected = run(capsys, "regress", completed_file, str(plain))
    assert expected[0] == 1 and "discrepancies: 1" in expected[1]
    assert run(capsys, "regress", completed_file, str(indented)) == expected

def test_regress_fixture_outside_the_datum(completed_file, tmp_path, capsys):
    triples = tmp_path / "triples.txt"
    triples.write_text("0 0 0 1\n0 30 30 1\n")
    code, out, err = run(capsys, "regress", completed_file, str(triples))
    assert code == 2
    assert out == ""
    assert err == "error: fusion record index 30 out of range for 28 modules\n"


def test_regress_malformed_triple_names_its_line(completed_file, tmp_path, capsys):
    triples = tmp_path / "triples.txt"
    triples.write_text("0 0 0 1\n0 1 x 1\n")
    code, out, err = run(capsys, "regress", completed_file, str(triples))
    assert code == 2
    assert out == ""
    assert err == "error: line 2, offset 0: triple lines are: i j k N\n"


def test_regress_duplicate_triple_is_a_parse_error(completed_file, tmp_path, capsys):
    triples = tmp_path / "triples.txt"
    triples.write_text("0 0 0 1\n0 0 0 2\n")
    code, out, err = run(capsys, "regress", completed_file, str(triples))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: triple (0, 0, 0) declared twice\n"


@pytest.mark.parametrize("line", ["1 1 0 0", "1 1 0 -1"])
def test_regress_nonpositive_triple_is_a_parse_error(completed_file, tmp_path, capsys, line):
    triples = tmp_path / "triples.txt"
    triples.write_text(f"0 0 0 1\n{line}\n")
    code, out, err = run(capsys, "regress", completed_file, str(triples))
    assert code == 2
    assert out == ""
    assert err == "error: line 2, offset 0: multiplicities must be positive\n"


def test_complete_copies_scale_as_read(tmp_path, capsys):
    code, out, _ = run(capsys, "lattice", "--k", "3")
    assert code == 0 and "\nscale = 1/sqrt(6)\n" in out
    datum = tmp_path / "datum.mdf"
    datum.write_text(out.replace("scale = 1/sqrt(6)", "scale = 1 / sqrt( 6 )"))
    code, written, _ = run(capsys, "complete", str(datum))
    assert code == 0
    assert written == out.replace("scale = 1/sqrt(6)", "scale = 1 / sqrt( 6 )")


def test_table_self_regression(completed_file, tmp_path, capsys):
    code, out, _ = run(capsys, "table", completed_file)
    assert code == 0
    triples = tmp_path / "table.txt"
    triples.write_text(out)
    code, out2, _ = run(capsys, "regress", completed_file, str(triples))
    assert code == 0
    assert "discrepancies: 0" in out2


def test_lattice_pipe_table(capsys):
    code, out, _ = run(capsys, "lattice", "--k", "2")
    assert code == 0
    import io

    sys_stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(out)
        code, table_out, _ = run(capsys, "table", "-")
    finally:
        sys.stdin = sys_stdin
    assert code == 0
    lines = table_out.strip().splitlines()
    assert len(lines) == 16  # full Z_4 group table
    assert lines[0] == "0 0 0 1"


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "fusionring.cli", "bogus"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 4


def test_deterministic_output():
    cmd = [sys.executable, "-m", "fusionring.cli", "validate", "@s4", "--json"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    second = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_jobs_flag(completed_file, capsys):
    code, serial, _ = run(capsys, "table", completed_file)
    assert code == 0
    code, out, _ = run(capsys, "table", completed_file, "--jobs", "2")
    assert code == 0
    assert out == serial
    assert "26 26 4 2\n" in out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_quietly(completed_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["regress", completed_file, "@s4_fixtures"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_broken_pipe_subprocess():
    # The read end is closed before the child starts, so its first write to
    # stdout (at the final flush of a small output) hits EPIPE.
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run([sys.executable, "-m", "fusionring.cli", "lattice", "--k", "2"],
                              stdout=write_fd, stderr=subprocess.PIPE, text=True,
                              env=child_env())
    finally:
        os.close(write_fd)
    assert proc.returncode == 141
    assert proc.stderr == ""
