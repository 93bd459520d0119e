"""The session's verification reports.

`python -m e8g3 verify all --json` runs in fresh processes, and tests
assert on the checks it reports instead of re-running the suites.  Tests of
what a report cannot express (oracles, negative controls, properties) keep
computing in process.

Each run that a selected test asks for starts as soon as collection ends,
so that it overlaps the tests that compute in process.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# fixtures backed by one fresh `verify all` run each, with these
# `--threads` and `--seed` values; criterion 10 compares the two
RUN_FIXTURES = {"report": ("1", "0"), "report_again": ("2", "1")}
_RUNS = pytest.StashKey()


class VerifyAll:
    """`python -m e8g3 verify all --json` running in a fresh process."""

    def __init__(self, workdir: str, threads: str, seed: str):
        self.path = os.path.join(workdir, "report.json")
        self.log = open(os.path.join(workdir, "stdout.txt"), "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "e8g3", "verify", "all",
             "--threads", threads, "--seed", seed, "--json", self.path],
            cwd=PKG_ROOT, stdout=self.log, stderr=subprocess.STDOUT)

    def text(self) -> str:
        """The report text; fails unless the run exits 0."""
        code = self.proc.wait(timeout=1200)
        assert code == 0, self.output()[-2000:]
        with open(self.path) as fh:
            return fh.read()

    def output(self) -> str:
        """What the run printed, stdout and stderr in one stream."""
        self.log.seek(0)
        return self.log.read()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def pytest_collection_finish(session):
    wanted = {name for item in session.items
              for name in getattr(item, "fixturenames", ())}
    names = [name for name in RUN_FIXTURES if name in wanted]
    if names:
        tmp = tempfile.TemporaryDirectory(prefix="e8g3-reports-")
        runs = {}
        for name in names:
            os.mkdir(os.path.join(tmp.name, name))
            runs[name] = VerifyAll(os.path.join(tmp.name, name),
                                   *RUN_FIXTURES[name])
        session.config.stash[_RUNS] = (tmp, runs)


def pytest_sessionfinish(session):
    tmp, runs = session.config.stash.get(_RUNS, (None, {}))
    for run in runs.values():
        run.stop()
    if tmp is not None:
        tmp.cleanup()


class Report:
    """One `verify all` report: its text, what the run printed, its suites
    by name, and lookups."""

    def __init__(self, text: str, output: str):
        self.text = text
        self.output = output
        self.suites = {d["suite"]: d for d in json.loads(text)}

    def check(self, suite: str, name: str) -> dict:
        """The check `name` of `suite`; fails unless exactly one has it."""
        found = [c for c in self.suites[suite]["checks"] if c["name"] == name]
        if len(found) != 1:
            pytest.fail(f"{len(found)} checks named {suite}/{name}")
        return found[0]

    def passed(self, suite: str, *names: str) -> bool:
        return all(self.check(suite, n)["status"] == "pass" for n in names)


@pytest.fixture(scope="session")
def report(pytestconfig):
    run = pytestconfig.stash[_RUNS][1]["report"]
    return Report(run.text(), run.output())


@pytest.fixture(scope="session")
def report_again(pytestconfig):
    """Text of a second `verify all` report, from another fresh process
    with `--threads 2 --seed 1`."""
    return pytestconfig.stash[_RUNS][1]["report_again"].text()
