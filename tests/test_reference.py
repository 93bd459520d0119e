"""The session's report against the benchmark's correctness reference,
and the report diff script.

Every suite of the session's `verify all` report must pass the benchmark
gate, `bench/run.count_failures`, against `bench/reference.json`, so a
change that alters any check's status, detail or digest fails Tier-1.
The reference is read here and never written.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from e8g3.report import dump_report

import report_diff

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
import run  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)


def _mismatches(report_text, reference):
    """The report_diff lines of each suite that fails the gate against the
    reference; the stripped text of a suite is the one that
    `verify SUITE --json` writes."""
    texts = {}
    for d in json.loads(report_text):
        d.pop("wall_time_ms", None)
        texts[d["suite"]] = dump_report(d)
    out = []
    for suite, expected in reference.items():
        stripped = texts.get(suite)
        if run.count_failures(expected, stripped, 0):
            got = report_diff.suites(json.loads(stripped)) if stripped else {}
            out += report_diff.diff(report_diff.suites({suite: expected}),
                                    got) or [f"~ {suite}: report differs"]
    return out


def test_report_matches_the_reference(report, reference):
    assert _mismatches(report.text, reference) == []
    # the script's digests are the gate's: it finds no change either
    assert report_diff.diff(report_diff.suites(reference),
                            report_diff.suites(json.loads(report.text))) == []


def test_a_patched_cusp_detail_fails_by_name(report, reference):
    data = json.loads(report.text)
    line = next(d for d in data if d["suite"] == "cusp")["checks"][0]
    line["detail"] += " (patched)"
    found = _mismatches(json.dumps(data), reference)
    assert len(found) == 1
    assert found[0].startswith(f"~ cusp/{line['name']}: digest ")


def _diff(tmp_path, old, new):
    paths = []
    for name, data in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    return subprocess.run(
        [sys.executable, str(Path(__file__).with_name("report_diff.py")),
         *map(str, paths)], capture_output=True, text=True, timeout=60)


def test_report_diff_of_a_report_with_itself_prints_nothing(tmp_path,
                                                            report):
    data = json.loads(report.text)
    proc = _diff(tmp_path, data, data)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_report_diff_prints_a_renamed_line_as_removal_and_addition(
        tmp_path, report):
    old = json.loads(report.text)
    new = json.loads(report.text)
    line = next(d for d in new if d["suite"] == "sections")["checks"][2]
    name = line["name"]
    line["name"] = name + "_renamed"
    proc = _diff(tmp_path, old, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [f"- sections/{name}",
                                        f"+ sections/{name}_renamed"]
