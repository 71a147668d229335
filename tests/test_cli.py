import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from qpcox import barcanon, cli, coxeter, hecke, qpsets
from qpcox.cli import main
from qpcox.errors import ConsistencyError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(tmp_path, *argv, cache=False):
    args = list(argv)
    if not cache:
        args.append("--no-cache")
    else:
        args.extend(["--cache-dir", str(tmp_path / "cache")])
    return main(args)


def test_survey_a3_csv(tmp_path):
    out = tmp_path / "a3.csv"
    code = run(tmp_path, "survey", "--type", "A3", "--theta", "id", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("type,theta,class_size")
    fpf_rows = [l for l in lines if ",3," in l and "True" in l]
    assert fpf_rows  # the fixed-point-free class row, qp = True


def test_survey_a2_witness_row(tmp_path):
    out = tmp_path / "a2.json"
    code = run(
        tmp_path, "survey", "--type", "A2", "--theta", "id",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    s1 = next(r for r in payload["reports"] if r["seed_word"] == [0])
    assert s1["qp"] is False and s1["witness"]["axiom"] == "QP1"


def test_survey_cache_roundtrip(tmp_path):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert run(tmp_path, "survey", "--type", "A2", "--format", "json",
               "--out", str(out1), cache=True) == 0
    cache_files = list((tmp_path / "cache").glob("*/*.json"))
    assert cache_files
    assert run(tmp_path, "survey", "--type", "A2", "--format", "json",
               "--out", str(out2), cache=True) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("tamper", [
    lambda rep: rep["witness"].update(x=999),
    lambda rep: rep["witness"].update(r_word=[0, 9, 0]),
    lambda rep: rep["witness"].update(axiom="QP2", s=-1),
    lambda rep: rep["witness"].pop("x"),
    lambda rep: rep.update(theta=[7, 7, 7]),
    lambda rep: rep.update(seed_word=[9]),
], ids=["x", "r_word", "s", "missing-key", "theta", "seed_word"])
def test_malformed_cached_witness_is_recomputed(tmp_path, capsys, tamper):
    # the tampered entry is re-signed, so it passes the integrity check and
    # the witness re-validation is what refuses it
    argv = ["survey", "--type", "A3"]
    assert run(tmp_path, *argv) == 0
    fresh = capsys.readouterr().out
    assert run(tmp_path, *argv, cache=True) == 0
    capsys.readouterr()
    entry, _, body = _read_entry(tmp_path)
    payload = json.loads(body)
    witnessed = [rep for rep in payload["reports"] if rep["witness"]]
    assert witnessed
    for rep in witnessed:
        tamper(rep)
    _rewrite_body(entry, json.dumps(payload), sign=True)
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == fresh


def _read_entry(tmp_path):
    """The cache's one entry, its parsed header line and its body."""
    (entry,) = (tmp_path / "cache").glob("*/*.json")
    header, body = entry.read_text().split("\n", 1)
    return entry, json.loads(header), body


def _header_line(header) -> str:
    return json.dumps(header, sort_keys=True) + "\n"


def _rewrite_body(entry, body, sign=False):
    """Put body after entry's header line, re-signed with body's sha256 if
    sign, and left as it was otherwise."""
    header = json.loads(entry.read_text().split("\n", 1)[0])
    if sign:
        header["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    entry.write_text(_header_line(header) + body)


def _check_tampered_entry_is_recomputed(tmp_path, capsys, argv, tamper):
    """Cache argv's entry, tamper with its body, and check that the next
    cached run prints the fresh output and overwrites the entry with the
    recomputed one."""
    assert run(tmp_path, *argv) == 0
    fresh = capsys.readouterr().out
    assert run(tmp_path, *argv, cache=True) == 0
    capsys.readouterr()
    entry, _, body = _read_entry(tmp_path)
    original = entry.read_bytes()
    payload = json.loads(body)
    replaced = tamper(payload)  # a new entry, or None after editing payload
    _rewrite_body(entry, json.dumps(payload if replaced is None else replaced))
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == fresh
    assert entry.read_bytes() == original  # overwritten by the recomputed entry


def _edit_report(payload, field, value=None):
    # the first report holding structure flags, so every field is present
    rep = next(rep for rep in payload["reports"] if rep.get("structure"))
    if value is None:
        del rep[field]
    else:
        rep[field] = value


@pytest.mark.parametrize("tamper", [
    lambda payload: {"schema_version": 1},
    lambda payload: {"schema_version": 1, "reports": [], "failures": []},
    lambda payload: _edit_report(payload, "system"),
    lambda payload: _edit_report(payload, "theta", 3),
    lambda payload: _edit_report(payload, "J", ["s1"]),
    lambda payload: _edit_report(payload, "structure", [1]),
    lambda payload: payload["config"].update(theta="id"),
    lambda payload: payload.update(failures="FAIL"),
    lambda payload: payload.update(reports={}),
    lambda payload: [],
], ids=["no-reports", "empty-no-config", "no-system", "theta-int", "J-str", "structure-list", "config",
        "failures-str", "reports-dict", "not-a-dict"])
def test_malformed_cached_survey_is_recomputed(tmp_path, capsys, tamper):
    _check_tampered_entry_is_recomputed(tmp_path, capsys, ["survey", "--type", "A2"], tamper)


def _set_mu_row(payload, row):
    payload["tables"]["M"]["mu"][0] = row


@pytest.mark.parametrize("tamper", [
    lambda payload: {"schema_version": 1},
    lambda payload: _set_mu_row(payload, [0, 1]),
    lambda payload: _set_mu_row(payload, [0, 1, "x"]),
    lambda payload: payload["tables"]["M"]["entries"][0].__setitem__(2, [[0]]),
    lambda payload: payload["tables"].__delitem__("N"),
    lambda payload: payload["config"].update(type="B2"),
    lambda payload: [],
    lambda payload: payload.update(tables=["M", "N"]),
    lambda payload: _set_mu_row(payload, 5),
], ids=["no-tables", "short-mu-row", "mu-not-int", "bad-pairs", "missing-kind", "config", "not-a-dict",
        "tables-list", "mu-row-int"])
def test_malformed_cached_basis_is_recomputed(tmp_path, capsys, tamper):
    # a JSON body: a CSV entry holds the printed CSV text (see below)
    argv = ["basis", "--type", "A2", "--regular"]
    _check_tampered_entry_is_recomputed(tmp_path, capsys, argv, tamper)


def test_csv_basis_hit_copies_the_printed_text(tmp_path, monkeypatch, capsys):
    # a basis key holds the output format and the body is the text printed,
    # so a CSV hit is the cold output byte for byte (\r\n line ends kept),
    # with no JSON parsed and no CSV rendered
    argv = ["basis", "--type", "A3", "--coset", "s1", "--format", "csv"]
    assert run(tmp_path, *argv) == 0
    cold = capsys.readouterr().out
    assert cold.startswith("kind,x,y,mu\r\n")
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == cold
    (entry,) = (tmp_path / "cache").glob("*/*.json")
    header, body = entry.read_bytes().split(b"\n", 1)
    assert body == cold.encode() and json.loads(header)["key"]["config"]["format"] == "csv"
    with monkeypatch.context() as m:
        for owner, name in ((json, "load"), (json, "loads"), (cli, "_mu_csv")):
            m.setattr(owner, name, lambda *a, **k: pytest.fail("the hit parsed or rendered"))
        assert run(tmp_path, *argv, cache=True) == 0
        assert capsys.readouterr().out == cold
    # the JSON output has its own entry, and a CSV body edited in one digit
    # fails its digest: recomputed and overwritten
    assert run(tmp_path, *argv[:-2], cache=True) == 0
    assert json.loads(capsys.readouterr().out)["config"]["carrier"]["kind"] == "coset"
    assert len(list((tmp_path / "cache").glob("*/*.json"))) == 2
    original = entry.read_bytes()
    entry.write_bytes(original.replace(b",1\r\n", b",2\r\n", 1))
    assert entry.read_bytes() != original
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == cold and entry.read_bytes() == original


def _bump_coefficient(header, body):
    payload = json.loads(body)
    payload["tables"]["M"]["entries"][0][2][0][1] += 1
    edited = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(edited) == len(body) and sum(a != b for a, b in zip(edited, body)) == 1
    return _header_line(header) + edited


def _other_matrix(header, body):
    header["key"]["matrix"] = [[1, 4], [4, 1]]  # the body's digest still holds
    return _header_line(header) + body


@pytest.mark.parametrize("forge", [
    lambda header, body: _header_line(header) + body[: len(body) // 2],
    _bump_coefficient,
    _other_matrix,
    lambda header, body: body,
], ids=["cut-in-half", "coefficient-digit", "other-matrix", "headerless"])
def test_entry_failing_its_integrity_check_is_recomputed(tmp_path, capsys, forge):
    # a hit serves the stored bytes, so an entry whose header does not hold
    # the full key and the body's sha256 is recomputed and overwritten
    argv = ["basis", "--type", "A2", "--regular"]
    assert run(tmp_path, *argv) == 0
    fresh = capsys.readouterr().out
    assert run(tmp_path, *argv, cache=True) == 0
    capsys.readouterr()
    entry, header, body = _read_entry(tmp_path)
    original = entry.read_bytes()
    assert body == fresh
    entry.write_text(forge(header, body))
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == fresh
    assert entry.read_bytes() == original


def test_failing_results_are_not_stored(tmp_path, monkeypatch, capsys):
    # a hit serves the stored bytes and exits 0, so a result that fails a
    # check is printed and exits 2 on every run, and no entry is stored
    checks = barcanon.table_checks
    monkeypatch.setattr(barcanon, "table_checks", lambda kind, X: [
        *checks(kind, X), types.SimpleNamespace(name="planted", ok=False)])
    monkeypatch.setattr(cli.classify, "survey_cross_checks", lambda reports: ["planted"])
    for argv in (["basis", "--type", "A2", "--regular"], ["survey", "--type", "A2"]):
        for _ in range(2):
            assert run(tmp_path, *argv, cache=True) == 2
            assert "planted" in "".join(capsys.readouterr())
    assert not list((tmp_path / "cache").glob("*/*.json"))


def test_basis_fpf_both_kinds(tmp_path):
    out = tmp_path / "fpf.json"
    code = run(
        tmp_path, "basis", "--type", "A3", "--class", "fpf",
        "--kind", "both", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["tables"]) == {"M", "N"}
    assert payload["inversion_partner"]["seed"] is not None
    for entry in payload["tables"].values():
        assert all(entry["verification"].values())


def test_basis_coset(tmp_path):
    out = tmp_path / "coset.json"
    code = run(tmp_path, "basis", "--type", "A3", "--coset", "s1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    for x, y, pairs in payload["tables"]["M"]["entries"]:
        assert all(c >= 0 for _, c in pairs)  # nonnegativity on coset carriers


def test_basis_e7_quotient_without_its_group(tmp_path):
    # W(E7) has more than MAX_ORDER elements; the 56 cosets of W(E6) are
    # searched on the roots and the carrier computes in full
    out = tmp_path / "e7.json"
    assert run(tmp_path, "basis", "--type", "E7", "--coset", "s1,s2,s3,s4,s5,s6", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["carrier"]["size"] == 56
    entry = payload["tables"]["M"]
    assert entry["verification"] and all(entry["verification"].values())
    assert entry["bar"]["checked"] == 56 * (1 + 7)


def test_basis_bar_failure_exit_code(tmp_path):
    out = tmp_path / "bad.json"
    code = run(
        tmp_path, "basis", "--type", "A2", "--seed", "s1", "--theta", "id",
        "--out", str(out),
    )
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["bar_failure"]["reason"] == "not quasiparabolic"


def test_basis_universal_truncated_label(tmp_path):
    out = tmp_path / "u3.json"
    code = run(
        tmp_path, "basis", "--type", "U3", "--seed", "", "--theta", "rot",
        "--cutoff", "6", "--kind", "m", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["tables"]["M"]["label"] == "verified up to height 6"


def test_wgraph_on_truncated_carrier_is_refused(tmp_path, capsys):
    # a W-graph needs every tau-set; a boundary point's image left the carrier
    code = run(
        tmp_path, "wgraph", "--type", "U3", "--seed", "", "--theta", "rot",
        "--cutoff", "6", "--kind", "m",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qpcox: error: generator ") and "leaves the carrier at point" in err
    assert err.count("\n") == 1


def test_basis_mu_csv(tmp_path):
    out = tmp_path / "mu.csv"
    code = run(
        tmp_path, "basis", "--type", "A3", "--class", "fpf", "--kind", "both",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,x,y,mu"
    assert any(line.startswith("M,") for line in lines[1:])


def test_basis_csv_rows_are_the_json_mu_rows(tmp_path, monkeypatch):
    # the CSV is built from the tables' mu columns, with no JSON entry, and
    # holds exactly the mu rows of the JSON output, for both kinds
    argv = ["basis", "--type", "A3", "--class", "fpf", "--kind", "both"]
    as_json, as_csv = tmp_path / "mu.json", tmp_path / "mu.csv"
    assert run(tmp_path, *argv, "--out", str(as_json)) == 0
    with monkeypatch.context() as m:
        m.setattr(barcanon.CanonicalTable, "to_json", lambda self: pytest.fail("the CSV built a JSON entry"))
        assert run(tmp_path, *argv, "--format", "csv", "--out", str(as_csv)) == 0
    tables = json.loads(as_json.read_text())["tables"]
    assert sorted(tables) == ["M", "N"] and all(tables[kind]["mu"] for kind in tables)
    rows = [",".join(map(str, [kind, *row])) for kind in sorted(tables) for row in tables[kind]["mu"]]
    assert as_csv.read_text().splitlines() == ["kind,x,y,mu", *rows]


def test_explicit_theta_images(tmp_path):
    out = tmp_path / "tw.json"
    code = run(
        tmp_path, "basis", "--type", "A2", "--seed", "", "--theta", "2,1",
        "--kind", "n", "--out", str(out),
    )
    # iota(swap) in A2 is not quasiparabolic, so this is bar-failure evidence
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["bar_failure"]["reason"] == "not quasiparabolic"


def test_wgraph_bar_failure_is_key_sorted(tmp_path, capsys):
    # the not-QP witness prints in key order, like every other JSON document
    assert run(tmp_path, "wgraph", "--type", "A2", "--seed", "s1") == 3
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["bar_failure"]) == ["axiom", "kind", "r_word", "reason", "s", "x"]


def test_wgraph_regular_a2(tmp_path):
    out = tmp_path / "a2.json"
    code = run(
        tmp_path, "wgraph", "--type", "A2", "--regular", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    for entry in payload["graphs"].values():
        assert entry["quasi_admissible"] is True
        assert entry["module_axioms"] is True
        assert len(entry["cells"]) == 4


def test_wgraph_a1_regular(tmp_path):
    out = tmp_path / "a1.json"
    code = run(tmp_path, "wgraph", "--type", "A1", "--regular", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["graphs"]["m"]["vertices"]) == 2
    # one edge each way between e and s, split across the two presentations
    # by the reduction rule (tau-sets are nested here)
    edges = {
        kind: [e[:2] for e in payload["graphs"][kind]["edges"]] for kind in ("m", "n")
    }
    assert edges["m"] == [[1, 0]] and edges["n"] == [[0, 1]]


def test_wgraph_dot_output(tmp_path):
    out = tmp_path / "fpf.dot"
    code = run(
        tmp_path, "wgraph", "--type", "A3", "--class", "fpf",
        "--kind", "n", "--format", "dot", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().startswith("digraph")


def test_verify_suites(tmp_path):
    assert run(tmp_path, "verify", "--type", "A2", "--suite", "hecke") == 0
    assert run(tmp_path, "verify", "--type", "A3", "--suite", "inversion") == 0
    assert run(tmp_path, "verify", "--type", "A2", "--suite", "finite-classification") == 0
    assert run(tmp_path, "verify", "--type", "U3", "--suite", "universal") == 0


def test_verify_writes_log(tmp_path):
    out = tmp_path / "log.json"
    assert run(tmp_path, "verify", "--type", "A2", "--suite", "hecke", "--out", str(out)) == 0
    log = json.loads(out.read_text())
    assert all(entry["ok"] for entry in log["results"])


def test_matrix_file_input(tmp_path):
    mat = tmp_path / "b2.json"
    mat.write_text('{"matrix": [[1, 4], [4, 1]]}')
    out = tmp_path / "survey.csv"
    assert run(tmp_path, "survey", "--type", str(mat), "--out", str(out)) == 0
    assert "rank-2" in out.read_text()
    bad = tmp_path / "affine.json"
    bad.write_text("[[1, 3, 3], [3, 1, 3], [3, 3, 1]]")
    assert run(tmp_path, "survey", "--type", str(bad)) == 1  # not positive definite


def test_usage_errors(tmp_path):
    assert run(tmp_path, "survey", "--type", "Q9") == 1
    assert run(tmp_path, "survey", "--type", "A2", "--format", "xml") == 1
    assert run(tmp_path, "wgraph", "--type", "A2", "--regular", "--format", "csv") == 1
    assert run(tmp_path, "basis", "--type", "A2") == 1  # no carrier selected
    assert run(tmp_path, "basis", "--type", "A2", "--regular", "--coset", "s1") == 1
    assert run(tmp_path, "verify", "--type", "A2", "--suite", "nonsense") == 1
    assert run(tmp_path, "basis", "--type", "A2", "--class", "fpf") == 1  # even rank
    assert run(tmp_path, "survey", "--type", "A2", "--jobs", "2") == 1  # no such flag
    assert run(tmp_path, "basis", "--type", "A2", "--coset", "s9") == 1  # outside the rank


@pytest.mark.parametrize("body", ['{"foo": 1}', "5", "[1, 2]"])
def test_malformed_matrix_file_is_one_error_line(tmp_path, body):
    mat = tmp_path / "m.json"
    mat.write_text(body)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "qpcox.cli", "basis", "--type", str(mat), "--regular", "--no-cache"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("qpcox: error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("body", ["[[true, 3], [3, true]]", '{"matrix": [[1, false], [false, 1]]}'])
def test_boolean_matrix_entries_are_refused(tmp_path, capsys, body):
    # a JSON boolean is no bond order: read as an int, the first file would
    # be A2 and the second U2, as false == 0 spells the infinite bond
    mat = tmp_path / "m.json"
    mat.write_text(body)
    assert run(tmp_path, "survey", "--type", str(mat)) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("qpcox: error: bad entry m[0][") and out.err.count("\n") == 1


def test_type_string_wins_over_a_file_of_that_name(tmp_path):
    # a stray file named like a type string does not shadow the type
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "qpcox.cli", "survey", "--type", "A2", "--no-cache"]
    (tmp_path / "empty").mkdir()
    clean = subprocess.run(argv, cwd=tmp_path / "empty", env=env, capture_output=True, text=True, timeout=60)
    (tmp_path / "A2").write_text("not a matrix\n")
    stray = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert clean.returncode == stray.returncode == 0, stray.stderr
    assert stray.stdout == clean.stdout and stray.stderr == ""


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_universal_cutoff_below_a_seed_exits_1(tmp_path, capsys, cutoff):
    # --cutoff 0 is a cutoff, not the default 6; a class whose seed lies above
    # it is refused with one error line, not reported as a consistency failure
    assert run(tmp_path, "verify", "--type", "U3", "--suite", "universal", "--cutoff", cutoff) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and f"cutoff {cutoff} is below" in out.err
    assert run(tmp_path, "verify", "--type", "U3", "--suite", "universal", "--cutoff", "2") == 0


@pytest.mark.parametrize("argv", [
    ["basis", "--type", "A3", "--class", "fpf", "--cutoff", "1"],
    ["wgraph", "--type", "A2", "--regular", "--cutoff", "3"],
    ["survey", "--type", "A2", "--cutoff", "3"],
    ["verify", "--type", "A2", "--suite", "hecke", "--cutoff", "3"],
], ids=["basis", "wgraph", "survey", "verify"])
def test_cutoff_on_a_finite_system_exits_1(tmp_path, capsys, argv):
    # a finite carrier is never truncated, so --cutoff there is refused, not
    # ignored
    assert run(tmp_path, *argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--cutoff applies to universal systems" in out.err


@pytest.mark.parametrize("carrier", [
    ["--class", "fpf", "--theta", "swap"],
    ["--regular", "--theta", "id"],
    ["--coset", "s1", "--theta", "3,2,1"],
], ids=["class", "regular", "coset"])
@pytest.mark.parametrize("command", ["basis", "wgraph"])
def test_theta_without_a_seed_exits_1(tmp_path, capsys, command, carrier):
    assert run(tmp_path, command, "--type", "A3", *carrier) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--theta applies to a --seed class only" in out.err


def test_cache_options_are_accepted_by_every_command(tmp_path, capsys):
    # the cache options parse for every command, whether or not it caches
    for argv in (["survey", "--type", "A2"], ["basis", "--type", "A2", "--regular"],
                 ["wgraph", "--type", "A2", "--regular"], ["verify", "--type", "A2", "--suite", "hecke"]):
        assert run(tmp_path, *argv) == 0
        assert run(tmp_path, *argv, cache=True) == 0


def test_cache_follows_matrix_file_content(tmp_path):
    # I2(6) and A2 x A1 both have order 12; the cache is keyed on the matrix
    # the file holds, not on its path
    mat = tmp_path / "m.json"
    argv = ["basis", "--type", str(mat), "--regular", "--format", "csv"]
    mat.write_text('{"matrix": [[1, 6], [6, 1]]}')
    first = tmp_path / "i2.csv"
    assert run(tmp_path, *argv, "--out", str(first), cache=True) == 0
    mat.write_text('{"matrix": [[1, 3, 2], [3, 1, 2], [2, 2, 1]]}')
    cached, fresh = tmp_path / "cached.csv", tmp_path / "fresh.csv"
    assert run(tmp_path, *argv, "--out", str(cached), cache=True) == 0
    assert run(tmp_path, *argv, "--out", str(fresh)) == 0
    assert len(first.read_text().splitlines()) == 41
    assert len(fresh.read_text().splitlines()) == 45
    assert cached.read_text() == fresh.read_text()
    # two entries, no temp files left behind by the atomic write
    (entries,) = (tmp_path / "cache").iterdir()
    assert sorted(p.suffix for p in entries.iterdir()) == [".json", ".json"]


def test_cache_is_keyed_on_the_source_digest(tmp_path, monkeypatch, capsys):
    # an entry written for the same configuration by other code (another
    # source digest) is not served: it is recomputed and stored under the
    # current digest, and the other digest's directory is removed.  Under its
    # own digest an entry is served.  Other files in the cache dir stay
    argv = ["survey", "--type", "A2"]
    assert run(tmp_path, *argv) == 0
    fresh = capsys.readouterr().out
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_source_digest", lambda: "0" * 64)
        assert run(tmp_path, *argv, cache=True) == 0
        capsys.readouterr()
        stale, _, body = _read_entry(tmp_path)
        assert stale.parent.name == "0" * 64
        payload = json.loads(body)
        payload["reports"][0]["size"] = 999  # what the other code wrote, signed
        _rewrite_body(stale, json.dumps(payload), sign=True)
        assert run(tmp_path, *argv, cache=True) == 0
        assert "999" in capsys.readouterr().out  # same digest: served
    (tmp_path / "cache" / "notes").mkdir()
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == fresh  # another digest: recomputed
    assert not stale.parent.exists()  # and the other digest's entries removed
    assert (tmp_path / "cache" / "notes").is_dir()
    entry, _, body = _read_entry(tmp_path)
    assert entry.parent.name == cli._source_digest()
    payload["reports"][0]["size"] = json.loads(body)["reports"][0]["size"]
    assert json.loads(body) == payload
    assert run(tmp_path, *argv, cache=True) == 0
    assert capsys.readouterr().out == fresh
    assert cli._source_digest() == hashlib.sha256(
        b"".join(p.read_bytes() for p in sorted((SRC / "qpcox").glob("*.py")))
    ).hexdigest()


STAGE_CODE = coxeter.stage("_probe")(lambda owner: owner).__code__


def _stage_wrappers() -> dict:
    """Every coxeter.stage of the package by qualified name: the functions
    of its modules and classes, or down their __wrapped__ chains (the
    per-kind stages of barcanon), whose code is the stage wrapper's."""
    found = {}
    for mod in (coxeter, qpsets, hecke, barcanon, cli):
        objs = list(vars(mod).values())
        objs += [v for c in list(objs) if isinstance(c, type) and c.__module__ == mod.__name__ for v in vars(c).values()]
        for f in objs:
            while callable(f) and not isinstance(f, type):
                if getattr(f, "__code__", None) is STAGE_CODE:
                    found[f.__qualname__] = f
                    break
                f = getattr(f, "__wrapped__", None)
    return found


def _count_stages(monkeypatch):
    """Count canonical solves, fresh fills of X._barcols (bar matrices
    built), and the runs of every stage body: runs[(stage, id(owner), *arg)]
    is [runs, stage, owner, arg, the body's last result]."""
    counts = {"solves": 0, "bar_matrices": 0}
    solve, fill = barcanon.canonical_columns, barcanon._bar_columns

    def counted_solve(kind, action, height2):
        counts["solves"] += 1
        return solve(kind, action, height2)

    def counted_fill(kind, X):
        counts["bar_matrices"] += 1
        return fill(kind, X)

    monkeypatch.setattr(barcanon, "canonical_columns", counted_solve)
    monkeypatch.setattr(barcanon, "_bar_columns", counted_fill)
    runs = {}
    for name, stage in _stage_wrappers().items():
        def counted_body(owner, *arg, body=stage.__wrapped__, name=name, stage=stage):
            result = body(owner, *arg)
            entry = runs.setdefault((name, id(owner), *arg), [0, stage, owner, arg, None])
            entry[0] += 1
            entry[4] = result
            return result
        monkeypatch.setattr(stage, "__wrapped__", counted_body)
    return counts, runs


def test_every_stage_body_runs_once_per_owner(tmp_path, monkeypatch, capsys):
    # one helper keeps every stage on its owner (a system, its group table,
    # a carrier, or a carrier's Phi maps): over a whole suite run each body
    # runs once per owner and argument, and a later call returns the same
    # object
    stages = _stage_wrappers()
    assert len(stages) == 19 and "CoxeterSystem._bruhat_table" in stages  # read by survey diagnostics only
    counts, runs = _count_stages(monkeypatch)
    assert run(tmp_path, "verify", "--type", "B3", "--suite", "all") == 0
    assert counts == {"solves": 23, "bar_matrices": 23}
    assert {name for name, *_ in runs} == set(stages) - {"CoxeterSystem._bruhat_table"}
    assert all(n == 1 for n, *_ in runs.values())
    assert all(stage(owner, *arg) is result for _, stage, owner, arg, result in runs.values())
    assert sum(name == "bar_columns" for name, *_ in runs) == 24  # 12 carriers, M and N


@pytest.mark.parametrize("argv, solves, bar_matrices", [
    # 12 carriers, kinds M and N; on the regular carrier no generator fixes a
    # point, so N shares the stages of M there
    (["verify", "--type", "B3", "--suite", "all"], 23, 23),
    (["verify", "--type", "A4", "--suite", "hecke"], 1, 1),  # the KL basis: M on the regular carrier
    (["basis", "--type", "H3", "--regular"], 1, 1),
    (["basis", "--type", "F4", "--seed", "", "--theta", "4,3,2,1"], 1, 1),  # no generator fixes a point
])
def test_one_solve_per_carrier_and_kind(tmp_path, monkeypatch, capsys, argv, solves, bar_matrices):
    counts, _ = _count_stages(monkeypatch)
    assert run(tmp_path, *argv) == 0
    assert counts == {"solves": solves, "bar_matrices": bar_matrices}


def test_shared_table_checks_run_once(tmp_path, monkeypatch, capsys):
    # on the regular carrier N's table is M's, so only parity runs per kind
    counts = {}
    for name in ("verify_parity", "verify_multiplication", "verify_recurrences", "verify_mu_lemma"):
        def counted(table, *packed, check=getattr(barcanon, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return check(table, *packed)
        monkeypatch.setattr(barcanon, name, counted)
    assert run(tmp_path, "basis", "--type", "H3", "--regular") == 0
    assert counts == {"verify_parity": 2, "verify_multiplication": 1, "verify_recurrences": 1, "verify_mu_lemma": 1}


@pytest.mark.parametrize("argv", [
    ["--type", "F4", "--seed", "", "--theta", "4,3,2,1"],
    ["--type", "B3", "--regular"],
])
def test_shared_stages_leave_basis_unchanged(tmp_path, monkeypatch, argv):
    # the same JSON whether or not N shares the stages of M
    shared, alone = tmp_path / "shared.json", tmp_path / "alone.json"
    assert run(tmp_path, "basis", *argv, "--out", str(shared)) == 0
    monkeypatch.setattr(barcanon, "_kinds_agree", lambda X: False)
    assert run(tmp_path, "basis", *argv, "--out", str(alone)) == 0
    assert shared.read_text() == alone.read_text()


def test_main_calls_share_no_stages(tmp_path, monkeypatch):
    # every call builds its own system, so the second solves again
    counts, _ = _count_stages(monkeypatch)
    for calls in (1, 2):
        assert run(tmp_path, "verify", "--type", "A2", "--suite", "hecke") == 0
        assert counts == {"solves": calls, "bar_matrices": calls}


def test_consistency_error_exits_2(tmp_path, monkeypatch):
    def broken(kind, X):
        raise ConsistencyError("planted")

    monkeypatch.setattr(barcanon, "canonical_basis", broken)
    assert run(tmp_path, "basis", "--type", "A2", "--regular") == 2


def test_group_too_large_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(coxeter, "MAX_ORDER", 1000)
    assert run(tmp_path, "survey", "--type", "B5", "--theta", "id") == 1
    assert "MAX_ORDER = 1000" in capsys.readouterr().err


def test_verify_under_optimize_flag(tmp_path):
    # python -O strips asserts; the gates are typed errors and still run
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qpcox.cli", "verify", "--type", "A2", "--suite", "all"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout and "PASS inversion" in proc.stdout


def _process_env(unbuffered=False):
    """The environment of a qpcox process: src on the path, stdout
    block-buffered unless unbuffered is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["verify --type A2 --suite hecke", "basis --type H3 --regular --no-cache"])
def test_closed_stdout_is_one_io_error(tmp_path, command, unbuffered):
    # the reader is gone before the first write: whether the write fails in
    # the command or at the final flush, one error line and exit code 1
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "qpcox.cli", *command.split()], cwd=tmp_path,
                              env=_process_env(unbuffered), stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("qpcox: io error: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["survey", "--type", "A2"], ["survey", "--type", "A2", "--format", "json"],
    ["basis", "--type", "A2", "--regular"], ["basis", "--type", "A2", "--regular", "--format", "csv"],
], ids=["survey-csv", "survey-json", "basis-json", "basis-csv"])
def test_unusable_cache_dir_keeps_the_output(tmp_path, capsys, argv):
    # a file where the cache directory should be: no entry can be made, so
    # the command prints what --no-cache prints, warns once and keeps its
    # exit code
    assert main([*argv, "--no-cache"]) == 0
    expect = capsys.readouterr()
    blocker = tmp_path / "cache"
    blocker.write_text("")
    assert main([*argv, "--cache-dir", str(blocker)]) == 0
    got = capsys.readouterr()
    assert got.out == expect.out and expect.out and expect.err == ""
    assert got.err.count("\n") == 1 and got.err.startswith("qpcox: warning: ")
    assert blocker.read_text() == ""


def test_out_file_is_the_pinned_output(tmp_path):
    ref = json.loads((SRC.parent / "qpbench" / "refs.json").read_text())["basis --type A2 --regular"]
    out = tmp_path / "F"
    proc = subprocess.run([sys.executable, "-m", "qpcox.cli", "basis", "--type", "A2", "--regular", "--out", str(out)],
                          cwd=tmp_path, env=_process_env(), capture_output=True, timeout=120)
    assert proc.returncode == ref["rc"] and proc.stdout == b"" and proc.stderr == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ref["sha256"]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["basis"], 1), (["basis", "--type", "A2"], 1)],
                         ids=["help", "parser-usage", "usage"])
def test_process_exit_codes(tmp_path, argv, code):
    proc = subprocess.run([sys.executable, "-m", "qpcox.cli", *argv], cwd=tmp_path, env=_process_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stdout.startswith("usage: ") if code == 0 else proc.stdout == "" and "qpcox: error: " in proc.stderr
    if code == 0:  # --help describes usage, not the module's notes on the cache
        head = proc.stdout[proc.stdout.index("\n\n"):proc.stdout.index("positional arguments:")]
        description = " ".join(head.split())
        assert all(command in description for command in ("survey", "basis", "wgraph", "verify"))
        codes = ("0 all checks pass", "1 usage or I/O problem", "2 an internal consistency check failed",
                 "3 bar verification failed")
        assert all(phrase in description for phrase in codes)
        assert "sha256" not in proc.stdout and "cache" not in proc.stdout


def test_consistency_error_exits_2_without_teardown(tmp_path):
    # the process ends by os._exit after flushing: stdout and stderr arrive,
    # and an exit handler never runs
    code = ("import atexit, sys\n"
            "from qpcox import barcanon, cli, errors\n"
            "def broken(kind, X):\n"
            "    raise errors.ConsistencyError('planted')\n"
            "barcanon.canonical_basis = broken\n"
            "atexit.register(print, 'teardown')\n"
            "print('before', end='')\n"
            "sys.argv = ['qpcox', 'basis', '--type', 'A2', '--regular', '--no-cache']\n"
            "cli.console_entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_process_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "before" and proc.stderr == "qpcox: consistency check failed: planted\n"


def test_benchmark_trace_targets_exist():
    # the benchmark's per-layer trace wraps named entry points of every
    # layer; a refactor that drops one must fail here, not only in the trace
    repo = SRC.parent
    code = ("import json, sys; sys.path.insert(0, 'qpbench'); import tracecli; "
            "print(json.dumps(tracecli.install()))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=repo, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []
