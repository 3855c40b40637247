"""Report records, suites, serialization, CLI exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jetcocycles
from jetcocycles.cli import main
from jetcocycles.cochains import CATALOGUE_NAMES, catalogue
from jetcocycles.lampoly import LamPoly
from jetcocycles.report import (
    CheckRecord,
    any_fail,
    emit_report,
    render_json,
    render_text,
    run_suite,
)

from helpers import BAD_SYMBOLS


def test_record_invariants():
    with pytest.raises(ValueError):
        CheckRecord("x", "d", "1", "FAIL", "", "ref")
    with pytest.raises(ValueError):
        CheckRecord("x", "d", "1", "PASS", "", "")
    r = CheckRecord("x", "d", "symbolic", "PASS", "", "derived")
    assert list(r.as_dict().keys()) == [
        "check_id", "description", "lambda", "status", "residual", "paper_ref"]


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("everything")


def test_table3_suite_contents():
    records = run_suite("table3")
    assert len(records) == 9
    by_id = {r.check_id: r for r in records}
    # the one engine-vs-classical-table disagreement is reported as FAIL
    assert by_id["table3.det12"].status == "FAIL"
    assert "coboundary" in by_id["table3.det12"].residual
    assert sum(1 for r in records if r.status == "PASS") == 8
    assert any_fail(records)


def test_theorem1_suite_passes():
    records = run_suite("theorem1")
    assert not any_fail(records)
    ids = [r.check_id for r in records]
    assert "theorem1.c7.ratio" in ids
    assert "theorem1.cbar2.omega" in ids


def test_witt_and_nontrivial_suites():
    witt = run_suite("witt")
    assert not any_fail(witt)
    assert sum(1 for r in witt if r.check_id.startswith("witt.kn.m")) == 10
    nt = run_suite("nontrivial")
    by_id = {r.check_id: r.status for r in nt}
    assert by_id["nontrivial.kn"] == "NONTRIVIAL"
    assert by_id["nontrivial.c5"] == "NONTRIVIAL"
    assert all(v == "INCONCLUSIVE" for k, v in by_id.items()
               if k.startswith("nontrivial.coboundary"))
    assert not any_fail(nt)


def test_json_roundtrip_and_determinism(tmp_path):
    records = run_suite("table3")
    path = tmp_path / "report.json"
    text = emit_report(records, "json", str(path))
    again = emit_report(run_suite("table3"), "json")
    assert text == again                      # byte-identical
    loaded = json.loads(path.read_text())
    assert len(loaded) == 9
    for rec in loaded:
        assert list(rec.keys()) == [
            "check_id", "description", "lambda", "status", "residual", "paper_ref"]
        assert rec["status"] != "FAIL" or rec["residual"]
        assert rec["paper_ref"]


def test_text_report_carries_preamble():
    records = run_suite("table3")
    text = emit_report(records, "text")
    assert "conventions" in text
    assert "R = T' + T^2/2" in text
    with pytest.raises(ValueError):
        emit_report(records, "xml")


def test_empty_records_json():
    assert render_json([]).strip() == "[]"
    assert render_text([], preamble=False).startswith("-- 0 PASS")


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["table3"]) == 1              # honest table3 disagreement
    capsys.readouterr()
    assert main(["verify", "--suite", "witt"]) == 0
    capsys.readouterr()
    assert main(["eval", "--cocycle", "cbar0", "--m", "1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "cbar0(L_1, L_2)" in out
    assert main(["globalize", "--symbol", "f[", "--weight", "1"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--cocycle", "c9", "--m", "0", "--n", "0"])
    assert exc.value.code == 2


def test_main_keeps_one_parser_and_build_parser_gives_a_fresh_one(capsys):
    """main parses every call with the one parser of its process; each
    build_parser call is a new parser, which a caller may change without
    reaching main."""
    from jetcocycles import cli

    mine = cli.build_parser()
    assert mine is not cli.build_parser()
    mine.add_argument("--extra")
    for _ in range(2):
        assert main(["eval", "--cocycle", "cbar0", "--m", "1", "--n", "2"]) == 0
        assert cli._parser.cache_info().currsize == 1
    assert cli._parser() is cli._parser()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--extra", "x", "table3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["verify", "--suite", "witt"], 0), (["table3"], 1),
    (["globalize", "--symbol", "f[", "--weight", "1"], 2),
])
def test_python_dash_m_runs_main(argv, code, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    src = Path(jetcocycles.__file__).parents[1]
    run = subprocess.run([sys.executable, "-m", "jetcocycles", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (run.returncode, run.stdout) == (code, out)


@pytest.mark.parametrize("window", ["0", "-1"])
def test_cli_rejects_windows_below_one(window, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "witt", "--window", window])
    assert exc.value.code == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["x", "1.5", ""])
def test_cli_names_the_window_option_for_a_non_integer(window, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "witt", "--window", window])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --window: the window must be an integer, got {window!r}" in captured.err
    assert "_window" not in captured.err


@pytest.mark.parametrize("suite", ["witt", "nontrivial"])
@pytest.mark.parametrize("window", [0, -1])
def test_api_rejects_windows_below_one(suite, window):
    with pytest.raises(ValueError, match="window"):
        run_suite(suite, window=window)


@pytest.mark.parametrize("suite", ["witt", "nontrivial"])
@pytest.mark.parametrize("window", [True, False, 6.0, 1.5])
def test_the_window_is_an_int(suite, window):
    with pytest.raises(ValueError, match="the window must be an int"):
        run_suite(suite, window=window)


def test_the_window_is_checked_before_any_suite_runs(monkeypatch):
    """run_suite refuses a bad window before it runs a suite: for "all",
    whose first suites read no window, and for such a suite alone."""
    from jetcocycles import report

    ran = []
    for name in report._SUITE_FUNCTIONS:
        monkeypatch.setitem(report._SUITE_FUNCTIONS, name,
                            lambda window, name=name: ran.append(name) or [])
    for suite, window in (("all", 0), ("theorem1", "x")):
        with pytest.raises(ValueError, match="window"):
            run_suite(suite, window=window)
    assert ran == []


def test_cli_unwritable_json_path_exits_2_without_a_traceback(tmp_path):
    src = Path(jetcocycles.__file__).parents[1]
    path = tmp_path / "missing" / "x.json"
    run = subprocess.run([sys.executable, "-m", "jetcocycles", "verify", "--suite", "theorem1",
                          "--json", str(path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 2
    assert run.stderr.startswith(f"error: cannot write {path}")
    assert "Traceback" not in run.stderr and not path.exists()


def test_cli_verify_has_no_max_order_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "witt", "--max-order", "12"])
    assert exc.value.code == 2
    assert "--max-order" in capsys.readouterr().err


def test_cli_eval_has_no_lambda_option(capsys):
    # no coefficient carries lam, so a value for it could change nothing
    assert not any(type(c) is LamPoly for name in CATALOGUE_NAMES
                   for _mono, c in catalogue(name, "flat").coeff.terms())
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--cocycle", "c5", "--m", "3", "--n", "-3", "--lambda", "2"])
    assert exc.value.code == 2
    assert "--lambda" in capsys.readouterr().err


def test_fast_suites_match_golden_report():
    """The JSON of the four suites that need no weight-7 solve, at the
    default window, is pinned byte for byte to tests/data/fast_suites.json."""
    records = [r for suite in ("theorem1", "table3", "witt", "nontrivial")
               for r in run_suite(suite)]
    golden = Path(__file__).parent / "data" / "fast_suites.json"
    assert render_json(records) == golden.read_text(encoding="utf-8")


def test_all_suites_match_golden_report():
    """The JSON of `verify --suite all` at the default window is pinned byte
    for byte to tests/data/all_suites.json."""
    golden = Path(__file__).parent / "data" / "all_suites.json"
    assert render_json(run_suite("all")) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", ["1", "2"])
def test_cli_report_does_not_depend_on_the_hash_seed(seed, tmp_path):
    """`verify --suite all --json PATH` in a fresh process under two
    PYTHONHASHSEED values exits 1 (the table3.det12 FAIL) and writes the
    bytes of tests/data/all_suites.json."""
    src = Path(jetcocycles.__file__).parents[1]
    path = tmp_path / "all.json"
    run = subprocess.run([sys.executable, "-m", "jetcocycles", "verify", "--suite", "all",
                          "--json", str(path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
    assert run.returncode == 1, run.stderr
    assert path.read_bytes() == (Path(__file__).parent / "data" / "all_suites.json").read_bytes()


_CLI_GOLDEN = [case for name in ("cli_stdout.json", "cli_eval_table3.json")
               for case in json.loads((Path(__file__).parent / "data" / name)
                                      .read_text(encoding="utf-8"))]


@pytest.mark.parametrize("case", _CLI_GOLDEN, ids=[" ".join(c["argv"]) for c in _CLI_GOLDEN])
def test_cli_stdout_matches_golden(case, capsys):
    """The text the CLI prints, with its exit code: for the verify suites and
    globalize runs that perfbench pins byte for byte (tests/data/cli_stdout.json),
    and for eval of every catalogue name at (L_1, L_2), cbar0 through the
    symbolic module's value weight, and table3 (tests/data/cli_eval_table3.json)."""
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def test_cli_refuses_lam_as_a_syntax_error(capsys):
    """lam is no name of the grammar: globalize exits 2 with a syntax error
    naming it."""
    assert main(["globalize", "--symbol", "lam*det(1,2)", "--weight", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("syntax error: unknown name 'lam' at offset 0")


def test_inconclusive_generator_certificate_is_a_failure(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["verify", "--suite", "nontrivial", "--window", "1", "--json", str(path)])
    capsys.readouterr()
    assert code == 1
    by_id = {r["check_id"]: r for r in json.loads(path.read_text())}
    for check_id in ("nontrivial.kn", "nontrivial.c5"):
        assert by_id[check_id]["status"] == "FAIL"
        assert "window 1" in by_id[check_id]["residual"]


def test_cli_globalize(capsys):
    code = main(["globalize", "--symbol", "det(0,3)", "--weight", "1",
                 "--lambda", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "canonical representative" in out
    assert "transform-law PASS, cocycle PASS" in out


def test_cli_verify_writes_json(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["verify", "--suite", "nontrivial", "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    loaded = json.loads(path.read_text())
    assert {r["status"] for r in loaded} <= {"NONTRIVIAL", "INCONCLUSIVE", "PASS"}


@pytest.mark.parametrize("text, fault", BAD_SYMBOLS)
def test_cli_globalize_names_a_bad_symbol(text, fault, capsys):
    assert main(["globalize", "--symbol", text, "--weight", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fault in captured.err


def test_the_kn_cocycle_record_names_the_first_failing_triple(monkeypatch):
    """A value off by one at (0, 0) first breaks the identity at
    (m, n, p) = (-3, 0, 3) in loop order; the record names that triple, not
    a later one."""
    from jetcocycles import report

    true_value = report.kn_value
    monkeypatch.setattr(report, "kn_value",
                        lambda m, n: true_value(m, n) + ((m, n) == (0, 0)))
    record = report._kn_cocycle_record(3)
    assert record.status == "FAIL"
    assert record.residual == "cocycle identity fails at (-3,0,3)"


def test_the_module_axiom_records_name_the_first_failing_pair(monkeypatch):
    """An action that doubles L_1 breaks the axiom first at (L_-3, L_1) in
    loop order, at every weight; each record names that pair."""
    from jetcocycles import report
    from jetcocycles.wittmodel import WittField

    true_action = report.laurent_action
    l1 = WittField.basis(1)

    def faulty(fld, a):
        out = true_action(fld, a)
        return out.scale(2) if fld == l1 else out

    monkeypatch.setattr(report, "laurent_action", faulty)
    records = report._module_axiom_records()
    assert [r.residual for r in records] == [
        f"module axiom fails at L_-3, L_1, weight {lam}" for lam in (0, 1, 2, 5)]
    assert all(r.status == "FAIL" for r in records)


def test_an_action_wrong_only_on_the_second_application_fails_every_module_axiom(monkeypatch):
    """An action that doubles L_-3 on every density but the base one is
    right on the first application and wrong on the second; every record
    fails at (L_-3, L_-2), the first pair whose two sides it changes
    ((L_-3, L_-3) has both sides zero)."""
    from jetcocycles import report
    from jetcocycles.wittmodel import LaurentDensity, WittField

    true_action = report.laurent_action
    bases = {LaurentDensity.of({-2: Fraction(1, 2), 0: 3, 3: Fraction(-2, 7)}, lam)
             for lam in (0, 1, 2, 5)}
    l_3 = WittField.basis(-3)
    seen = []

    def faulty(fld, a):
        seen.append(a in bases)
        out = true_action(fld, a)
        return out if a in bases or fld != l_3 else out.scale(2)

    monkeypatch.setattr(report, "laurent_action", faulty)
    records = report._module_axiom_records()
    assert True in seen and False in seen
    assert [r.residual for r in records] == [
        f"module axiom fails at L_-3, L_-2, weight {lam}" for lam in (0, 1, 2, 5)]
    assert all(r.status == "FAIL" for r in records)


@pytest.mark.parametrize("lam", [0, 1, 2, 5])
def test_the_module_axiom_computes_each_action_once(lam, monkeypatch):
    """Per weight: L_n a for the 7 n, L_m L_n a for the 49 pairs and the
    49 right sides L_[m,n] a; computing each side afresh takes 245."""
    from jetcocycles import report

    true_action = report.laurent_action
    calls = []
    monkeypatch.setattr(report, "laurent_action",
                        lambda fld, a: calls.append(fld) or true_action(fld, a))
    assert report._module_axiom_failure(lam) == ""
    assert len(calls) <= 7 + 49 + 49


@pytest.mark.parametrize("window", [3, 8])
def test_the_kn_cocycle_reads_each_value_once(window, monkeypatch):
    """The identity reads kn at |a| <= 2 window and |b| <= window, and each
    of those (4 window + 1)(2 window + 1) values exactly once."""
    from jetcocycles import report

    true_value = report.kn_value
    calls = []
    monkeypatch.setattr(report, "kn_value",
                        lambda m, n: calls.append((m, n)) or true_value(m, n))
    assert report._kn_cocycle_failure(window) == ""
    assert len(calls) == len(set(calls)) == (4 * window + 1) * (2 * window + 1)
    assert set(calls) == {(a, b) for a in range(-2 * window, 2 * window + 1)
                          for b in range(-window, window + 1)}
