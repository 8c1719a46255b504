import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys

import pytest

from codonbranch import InputError, cli
from codonbranch.cli import main
from codonbranch.lie_core import NotACharacterError
from codonbranch.tables import (
    build_table,
    emit_json,
    parse_json,
    render_csv,
    render_text,
    table_diff,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "codonbranch", "data")


@pytest.mark.parametrize("table", range(1, 10))
def test_tables_match_golden_fixtures(table):
    with open(os.path.join(DATA, f"table{table}.json"), encoding="utf-8") as fh:
        want = parse_json(fh.read())
    assert table_diff(build_table(table), want) == []


@pytest.mark.parametrize("table", range(1, 10))
def test_structured_output_round_trips(table):
    doc = build_table(table)
    again = parse_json(emit_json(doc))
    assert again == doc


def test_tables_output_byte_stable():
    for table in (3, 5, 6):
        doc1, doc2 = build_table(table), build_table(table)
        assert render_text(doc1) == render_text(doc2)
        assert emit_json(doc1) == emit_json(doc2)
        assert render_csv(doc1) == render_csv(doc2)


def test_csv_header_and_contents():
    csv = render_csv(build_table(9)).splitlines()
    assert csv[0] == "stage,label,dim,multiplicity,d3_running"
    assert any(line.startswith("1+23,(4)-(2),15,1,") for line in csv)


def test_cli_verify_golden_ok(capsys):
    assert main(["verify-golden"]) == 0
    out = capsys.readouterr().out
    assert "table 9: ok" in out and "embeddings.txt: ok" in out


def test_cli_verify_golden_detects_corruption(tmp_path, capsys, monkeypatch):
    for name in os.listdir(DATA):
        shutil.copy(os.path.join(DATA, name), tmp_path / name)
    doc = json.loads((tmp_path / "table3.json").read_text())
    doc["rows"][2]["entries"][0]["dim"] = 33
    (tmp_path / "table3.json").write_text(json.dumps(doc))
    monkeypatch.setenv("CODONBRANCH_DATA", str(tmp_path))
    assert main(["verify-golden"]) == 1
    out = capsys.readouterr().out
    assert "table 3: MISMATCH" in out
    assert "33" in out


def test_cli_branch_csv(capsys):
    assert main(["branch", "--algebra", "osp(5|2)", "--hw", "5/2,0,1",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "stage,label,dim,multiplicity,d3_running"
    assert "osp(5|2),(0)-(0,3),20,1," in out[2]


def test_cli_branch_text(capsys):
    assert main(["branch", "--algebra", "osp(5|2)", "--hw", "5/2,0,1"]) == 0
    out = capsys.readouterr().out
    assert "(1)-(1,1)  d=32" in out


def test_cli_chain_structured_round_trip(capsys):
    assert main(["chain", "--chain-id", "osp(5|2)/3", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"] == {"multiplets": 14, "d3": 33}
    assert json.loads(json.dumps(doc)) == doc


def test_cli_phase2(capsys):
    assert main(["phase2", "--chain-id", "osp(5|2)/3", "--plan", "soft:3",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["multiplets"] == 18 and doc["stats"]["d3"] == 24


def test_cli_search_structured(capsys):
    assert main(["search", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["survivors"]) == 3
    assert json.loads(json.dumps(doc)) == doc


def test_cli_search_text(capsys):
    assert main(["search"]) == 0
    out = capsys.readouterr().out
    assert "surviving schemes: 3" in out


def test_cli_unknown_chain_lists_ids(capsys):
    assert main(["chain", "--chain-id", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "osp(5|2)/3" in err


def test_cli_search_rejects_unknown_algebra_prefix(capsys, monkeypatch):
    import codonbranch.search as search

    def not_called():
        raise AssertionError("searched before checking the prefix")

    monkeypatch.setattr(search, "full_search", not_called)
    assert main(["search", "--algebra", "zzz"]) == 2
    err = capsys.readouterr().err
    assert "no catalog entry starts with 'zzz'" in err and "osp(5|2)" in err


def test_cli_rejects_malformed_hw(capsys):
    for hw, reason in (("1,2", "takes 3 labels"), ("1/0", "bad highest weight"),
                       ("abc", "bad highest weight"), ("1,2,3", "label -5/2"),
                       ("0,0,0", "weight (0, 0, 0) is atypical")):
        assert main(["branch", "--algebra", "osp(5|2)", "--hw", hw]) == 2
        assert reason in capsys.readouterr().err


def test_cli_rejects_bad_plan(capsys):
    for plan, reason in (("soft:9", "unknown slot '9' in soft:9; valid slots: 12, 3"),
                         ("bogus", "'bogus' is not of the form kind:slot"),
                         ("bogus:3", "unknown breaking kind 'bogus'")):
        assert main(["phase2", "--chain-id", "osp(5|2)/3", "--plan", plan]) == 2
        assert reason in capsys.readouterr().err


def test_cli_internal_error_is_not_an_input_error(monkeypatch):
    import codonbranch.search as search

    def broken():
        raise ValueError("internal fault")

    monkeypatch.setattr(search, "full_search", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["search"])


# Every error class of the package's modules but the internal-failure one,
# with the builtin base it had before it became an InputError.
INPUT_ERRORS = {"AncestryError": ValueError, "AtypicalError": ValueError,
                "ChainError": ValueError, "InvalidLabelsError": ValueError,
                "InvalidTargetError": ValueError, "SlotError": ValueError,
                "UnknownNameError": KeyError, "UnsupportedAlgebraError": ValueError}


def _library_errors() -> dict:
    """Name -> class of each exception class defined in a module of the package."""
    import codonbranch
    found = {}
    for info in pkgutil.iter_modules(codonbranch.__path__):
        mod = importlib.import_module(f"codonbranch.{info.name}")
        found.update((name, obj) for name, obj in vars(mod).items()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == mod.__name__)
    return found


def test_every_library_error_but_the_internal_one_is_an_input_error():
    errors = _library_errors()
    assert set(errors) == set(INPUT_ERRORS) | {"NotACharacterError"}
    for name, base in INPUT_ERRORS.items():
        assert issubclass(errors[name], InputError) and issubclass(errors[name], base), name
    assert errors["NotACharacterError"] is NotACharacterError
    assert issubclass(NotACharacterError, ArithmeticError)
    assert not issubclass(NotACharacterError, InputError)


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_cli_reports_each_input_error_with_exit_code_2(name, capsys, monkeypatch):
    error = _library_errors()[name]

    def bad_input(args):
        raise error("bad input")

    monkeypatch.setitem(cli._COMMANDS, "list-catalog", bad_input)
    assert main(["list-catalog"]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


@pytest.mark.parametrize("error", [NotACharacterError, ValueError])
def test_cli_lets_a_fault_propagate(error, monkeypatch):
    def fault(args):
        raise error("internal fault")

    monkeypatch.setitem(cli._COMMANDS, "list-catalog", fault)
    with pytest.raises(error, match="internal fault"):
        main(["list-catalog"])


def test_unknown_names_are_typed_key_errors():
    from codonbranch.super_branch import UnknownNameError, catalog_entry
    with pytest.raises(UnknownNameError) as err:
        catalog_entry("nope")
    assert isinstance(err.value, KeyError)
    assert str(err.value).startswith("unknown catalog entry 'nope'; known: [")
    with pytest.raises(UnknownNameError, match="no table 10"):
        build_table(10)


@pytest.mark.parametrize("table", [True, 1.0, ["x"], "1"])
def test_a_table_id_that_is_not_an_int_is_unknown(table):
    # True and 1.0 compare equal to 1, and a list is unhashable.
    from codonbranch.lie_core import UnknownNameError
    with pytest.raises(UnknownNameError, match=re.escape(f"no table {table!r}")):
        build_table(table)


def test_cli_verify_golden_reports_unparsable_fixture(tmp_path, capsys, monkeypatch):
    for name in os.listdir(DATA):
        shutil.copy(os.path.join(DATA, name), tmp_path / name)
    (tmp_path / "table4.json").write_text("{not json")
    monkeypatch.setenv("CODONBRANCH_DATA", str(tmp_path))
    assert main(["verify-golden"]) == 1
    assert "table 4: cannot read fixture" in capsys.readouterr().out


def _corrupted_copy(tmp_path, monkeypatch, name, content: bytes):
    for f in os.listdir(DATA):
        shutil.copy(os.path.join(DATA, f), tmp_path / f)
    (tmp_path / name).write_bytes(content)
    monkeypatch.setenv("CODONBRANCH_DATA", str(tmp_path))


@pytest.mark.parametrize("name,report", [(f"table{t}.json", f"table {t}") for t in range(1, 10)]
                         + [("embeddings.txt", "embeddings.txt")])
def test_cli_verify_golden_reports_a_non_utf8_fixture(name, report, tmp_path, capsys,
                                                      monkeypatch):
    _corrupted_copy(tmp_path, monkeypatch, name, b"\xff\xfe not utf-8")
    assert main(["verify-golden"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 10
    for line in out:
        if line.startswith(report + ":"):
            assert line.startswith(f"{report}: cannot read fixture: 'utf-8' codec")
        else:
            assert line.endswith(": ok")


@pytest.mark.parametrize("content", [
    b"[]", b'{"table": 1, "kind": "chain", "rows": [5]}',
    pytest.param(b'{"table": 1, "kind": "branch", "title": "t", "columns": [], '
                 b'"rows": [{"x": 1}]}', id="branch-row-without-fields"),
    pytest.param(b'{"table": 1, "kind": "branch", "title": "t", "columns": [], "rows": '
                 b'[{"algebra": "a", "highest_weight": "1", "entries": [{"labels": "1", "dim": 2}]}]}',
                 id="branch-entry-without-mult")])
def test_cli_verify_golden_reports_json_of_the_wrong_shape(content, tmp_path, capsys,
                                                           monkeypatch):
    _corrupted_copy(tmp_path, monkeypatch, "table1.json", content)
    assert main(["verify-golden"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("table 1: cannot read fixture: ")
    assert all(line.endswith(": ok") for line in out[1:]) and len(out) == 10


def _retyped(table: int, edit) -> bytes:
    with open(os.path.join(DATA, f"table{table}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["rows"][0])
    return json.dumps(doc).encode()


@pytest.mark.parametrize("table,edit", [
    pytest.param(1, lambda row: row["entries"][0].update(labels=[1, 2]), id="branch-labels"),
    pytest.param(1, lambda row: row["entries"][0].update(mult="1"), id="branch-mult"),
    pytest.param(4, lambda row: row.update(label=[1, 2]), id="tree-label"),
    pytest.param(4, lambda row: row.update(dim="24"), id="tree-dim")])
def test_cli_verify_golden_reports_a_field_of_the_wrong_type(table, edit, tmp_path, capsys,
                                                             monkeypatch):
    _corrupted_copy(tmp_path, monkeypatch, f"table{table}.json", _retyped(table, edit))
    assert main(["verify-golden"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 10
    for line in out:
        if line.startswith(f"table {table}:"):
            assert line.startswith(f"table {table}: cannot read fixture: ")
            assert "is not of type" in line
        else:
            assert line.endswith(": ok")


def test_cli_verify_golden_shows_the_registry_difference(tmp_path, capsys, monkeypatch):
    with open(os.path.join(DATA, "embeddings.txt"), encoding="utf-8") as fh:
        text = fh.read()
    bad = text.replace("  row: 2/3 0 -1/3 -1/3\n", "  row: 2/3 0 -1/3 9\n", 1)
    assert bad != text
    _corrupted_copy(tmp_path, monkeypatch, "embeddings.txt", bad.encode())
    assert main(["verify-golden"]) == 1
    out = capsys.readouterr().out
    assert "embeddings.txt: MISMATCH\n" in out
    assert "    -  row: 2/3 0 -1/3 9\n    +  row: 2/3 0 -1/3 -1/3\n" in out


def test_cli_tables_text(capsys):
    assert main(["tables", "--id", "6"]) == 0
    out = capsys.readouterr().out
    assert "frozen at last step:" in out
    assert "2-(±2)" in out


def test_cli_list_catalog_diagrams(capsys):
    assert main(["list-catalog", "--diagrams"]) == 0
    out = capsys.readouterr().out
    assert "#" * 16 in out              # the 16-box top row of sl(2|1)
    assert "    ##\n    ss" in out      # the osp(5|2) shape with half boxes


def test_catalog_diagrams_reproduce_catalog_labels(capsys):
    # Each sl entry types only its superdiagram rows: the labels derived from
    # them head that entry's row of its golden table, and list-catalog draws
    # those rows.
    from codonbranch.super_branch import CATALOG, render_hw
    assert main(["list-catalog", "--diagrams"]) == 0
    out = capsys.readouterr().out
    sl = [e for e in CATALOG if e.diagram_rows]
    assert [e.algebra[:3] for e in sl] == ["sl("] * 7
    assert all(e.algebra.startswith("osp") for e in CATALOG if not e.diagram_rows)
    for entry in sl:
        with open(os.path.join(DATA, f"table{entry.table}.json"), encoding="utf-8") as fh:
            heads = [(r["algebra"], r["highest_weight"]) for r in json.load(fh)["rows"]]
        assert (entry.algebra, render_hw(entry.labels)) in heads, entry.key
        assert "\n".join("    " + "#" * r for r in entry.diagram_rows) in out


def test_importing_the_cli_loads_no_command_only_modules():
    # -S: no site hook (a .pth file, say) may have loaded them first.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = ("import sys, codonbranch.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m in ('dataclasses', 'codonbranch.tables', 'difflib'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("code, any_layer", [
    ("import codonbranch", False),
    ("import codonbranch.cli", False),
    ("import codonbranch.embed_chains", True),
    ("import codonbranch.cli as cli; cli.main(['list-catalog'])", True),
    ("import codonbranch.cli as cli; cli.main(['list-catalog', '--diagrams'])", True),
])
def test_a_fresh_process_imports_only_the_layers_it_runs(code, any_layer):
    # -S: no site hook (a .pth file, say) may have loaded them first.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code += ("\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('codonbranch.'))), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert not loaded & {"codonbranch.phase2", "codonbranch.search", "codonbranch.tables"}
    if not any_layer:
        assert loaded <= {"codonbranch.cli"}
    if "list-catalog" in code:  # the catalog layer over the Lie layer, and no more
        assert loaded == {"codonbranch.cli", "codonbranch.lie_core", "codonbranch.super_branch"}


def _fresh_stdout(code):
    # -S: no site hook (a .pth file, say) may have loaded anything first.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_embedding_layer_loads_only_the_lie_layer():
    code = ("import sys, codonbranch.embed_chains; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('codonbranch.'))))")
    assert _fresh_stdout(code).split() == ["codonbranch.embed_chains", "codonbranch.lie_core"]


def test_importing_the_cli_loads_no_command_only_stdlib_module():
    code = "import sys, codonbranch.cli; print(sorted({'argparse', 'fractions'} & set(sys.modules)))"
    assert _fresh_stdout(code) == "[]\n"


def test_a_chain_runs_in_a_process_that_imported_only_the_embedding_layer():
    # first_step_distribution imports super_branch when it runs.
    from codonbranch.embed_chains import apply_chain
    code = ("import codonbranch.embed_chains as ec; "
            "print([e._key() for e in ec.apply_chain('osp(5|2)/3').entries])")
    alone = _fresh_stdout(code)
    assert alone == _fresh_stdout("import codonbranch.super_branch\n" + code)
    assert alone == f"{[e._key() for e in apply_chain('osp(5|2)/3').entries]}\n"


def test_unknown_name_error_is_one_class():
    from codonbranch import lie_core, search, super_branch, tables
    assert super_branch.UnknownNameError is lie_core.UnknownNameError
    assert search.UnknownNameError is tables.UnknownNameError is lie_core.UnknownNameError
    assert lie_core.UnknownNameError.__bases__ == (InputError, KeyError)
    assert str(lie_core.UnknownNameError("no 'x'")) == "no 'x'"


@pytest.mark.parametrize("argv", [["list-catalog"], ["search", "--format", "structured"],
                                  ["tables", "--id", "6"]])
def test_cli_closed_stdout_pipe_is_not_a_crash(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails every time, whatever the output size.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "codonbranch.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write_end)
    # No traceback, and no "Exception ignored" from the flush at exit.
    assert (proc.returncode, proc.stderr) == (1, "")
