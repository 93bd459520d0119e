"""Command-line wiring: exit codes, reports, usage errors, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e8g3.cli import main
from e8g3.report import dump_report, strip_volatile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

def test_verify_rootsys_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "rootsys", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "rootsys"
    assert data["schema_version"] == 1
    assert all(c["status"] == "pass" for c in data["checks"])
    assert data["fixture_digest"]


def test_enumerate_counts(capsys):
    assert main(["enumerate", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["enumerate", "2"]) == 0
    assert capsys.readouterr().out.strip() == "70"


def test_enumerate_csv(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["enumerate", "2", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c12,c18,c24,c30,disc,minimal"
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(int(r[4]) != 0 for r in rows)
    assert sum(int(r[5]) for r in rows) == 70
    # rerun gives identical bytes
    out2 = tmp_path / "e2.csv"
    main(["enumerate", "2", "--csv", str(out2)])
    capsys.readouterr()
    assert out.read_text() == out2.read_text()


def test_enumerate_bad_bound(capsys):
    assert main(["enumerate", "0"]) == 2


def test_bad_suite_name_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_fixture_env_precedence(tmp_path, capsys, monkeypatch):
    # point E8G3_FIXTURES at a copy of the packaged fixture
    from importlib import resources
    text = resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text()
    fdir = tmp_path / "fx"
    fdir.mkdir()
    (fdir / "sections_q.json").write_text(text)
    monkeypatch.setenv("E8G3_FIXTURES", str(fdir))
    from e8g3.suites import fixture_text
    assert fixture_text(None) == text
    # explicit flag wins over the environment
    alt = tmp_path / "alt.json"
    alt.write_text(text)
    assert fixture_text(str(alt)) == text


@pytest.mark.parametrize("argv", [
    ["verify", "rootsys", "--threads", "0"],
    ["verify", "rootsys", "--threads", "-3"],
    ["cache", "check"],
], ids=["threads_0", "threads_negative", "cache_removed"])
def test_usage_error_exits_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in err


def _bad_fixture(tmp_path, case):
    from importlib import resources
    if case == "missing":
        return str(tmp_path / "absent.json")
    if case == "unreadable":
        return str(tmp_path)  # a directory cannot be read as a file
    path = tmp_path / "bad.json"
    payload = json.loads(resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text())
    if case == "bad_json":
        path.write_text("{not json")
    elif case == "wrong_version":
        payload["fixture_version"] = 2
        path.write_text(json.dumps(payload))
    elif case == "missing_key":
        del payload["sections"]
        path.write_text(json.dumps(payload))
    elif case.startswith("q_"):
        payload["q"] = int(case[2:])
        path.write_text(json.dumps(payload))
    return str(path)


# q = 170 is not a prime power, 128 is even, 529 = 23^2 is above GF's tables
@pytest.mark.parametrize("case", ["missing", "unreadable", "bad_json",
                                  "wrong_version", "missing_key", "q_170",
                                  "q_128", "q_529"])
def test_bad_fixture_exits_2_before_any_suite(tmp_path, capsys, case):
    # with "all", sections runs last: nothing may run before the error
    code = main(["verify", "all", "--fixture", _bad_fixture(tmp_path, case)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "fixture" in err


def test_optimized_interpreter_gives_same_report(tmp_path, report):
    for suite in ("rootsys", "sections"):
        path = tmp_path / f"{suite}.json"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "e8g3", "verify", suite,
             "--json", str(path)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        plain = strip_volatile(dump_report(report.suites[suite]))
        assert strip_volatile(path.read_text()) == plain, suite


def test_library_has_no_assert():
    # `python -O` strips assert statements, and with them the checks they hold
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(SRC, "e8g3").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("field,check", [
    ("sections", "fixture_matches_scan"),
    ("f_coeffs_low_to_high", "fixture_rescan_count"),
], ids=["section_coefficient", "f_coefficient"])
def test_corrupted_fixture_fails_its_check(tmp_path, capsys, field, check):
    from importlib import resources
    payload = json.loads(resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text())
    if field == "sections":
        a = payload["sections"][0][0]
        a[0] = (a[0] + 1) % payload["q"]
    else:
        payload["f_coeffs_low_to_high"][0] += 1
    fixture = tmp_path / "corrupt.json"
    fixture.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    code = main(["verify", "sections", "--fixture", str(fixture),
                 "--json", str(out)])
    capsys.readouterr()
    assert code == 1
    status = {c["name"]: c["status"]
              for c in json.loads(out.read_text())["checks"]}
    assert status[check] == "fail"
