"""The suites as declared tuples of checks: the declared names give the
report's lines, a check that raises costs only its own lines, and a
shared input is built at most once, also when its build raised."""

from fnmatch import fnmatchcase

import pytest

from e8g3 import cuspdata, kostant, sp4, suites, vinberg
from e8g3.report import CheckFailed, Suite

from test_mutations import _drop_height_one_slot, _non_generating_pair


def _expand(checks, names):
    """The declared names, each pattern replaced by the report names it
    matches."""
    out = []
    for declared, _ in checks:
        if declared.endswith("*"):
            out += [name for name in names if fnmatchcase(name, declared)]
        else:
            out.append(declared)
    return out


def test_declared_checks_give_the_report_names(report):
    assert list(suites.CHECKS) == list(report.suites)
    for suite, checks in suites.CHECKS.items():
        names = [c["name"] for c in report.suites[suite]["checks"]]
        assert _expand(checks, names) == names
        # every pattern stands for at least one line
        assert all(any(fnmatchcase(name, declared) for name in names)
                   for declared, _ in checks)


def _counted(monkeypatch, module, name):
    """A list that gets one entry per call of module.name from now on."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(1) or fn(*args))
    return calls


def test_raising_input_costs_only_the_checks_that_read_it(monkeypatch,
                                                           capsys):
    # without one basis triple the cusp cases cannot be built and the
    # wedge model finds no lower element: the checks that read the cases
    # and the cases' digest are error lines, the two models' comparison is
    # a named fail, and the Kostant checks on the table model still pass
    monkeypatch.setattr(cuspdata, "S_H", cuspdata.S_H[:-1])
    bound = _counted(monkeypatch, vinberg, "verify_cusp_bound")
    digest = _counted(monkeypatch, vinberg, "cases_to_json")
    rep = suites.run_suite("cusp", None)
    checks = rep["checks"]
    status = {c["name"]: c["status"] for c in checks}
    assert all(any(fnmatchcase(c["name"], declared) for c in checks)
               for declared, _ in suites.CHECKS["cusp"])
    assert all(status[name] == "pass" for name in (
        "kostant_relations", "kostant_ad_e_kernel", "kostant_slice_dim",
        "kostant_slice_degrees", "kostant_sampled_regularity",
        "degree_bookkeeping"))
    assert all(status[name] == "error" for name in (
        "case_*", "note_*", "small_sets", "coverage"))
    assert status["kostant_two_models_agree"] == "fail"
    assert [c["detail"] for c in checks
            if c["name"] == "kostant_two_models_agree"] == [
                "no unique lower triple element"]
    assert [c["name"] for c in checks if c["name"] == "fixture_digest"] == [
        "fixture_digest"]
    assert checks[-1]["name"] == "fixture_digest"
    assert checks[-1]["status"] == "error"
    assert rep["fixture_digest"] == ""
    # the cases are built once for their four readers, and the digest
    # builds them once more; each of those two raises prints one traceback
    assert (len(bound), len(digest)) == (1, 1)
    assert capsys.readouterr().err.count("Traceback") == 2


def test_triple_is_built_once_and_fails_its_readers(monkeypatch):
    # the cusp suite builds the principal triple once for its seven
    # readers, and a build that raises is a named fail of each
    calls = []

    def failing(alg):
        calls.append(1)
        raise CheckFailed("no triple")
    monkeypatch.setattr(kostant, "build_triple", failing)
    checks = suites.run_suite("cusp", None)["checks"]
    readers = ("kostant_relations", "kostant_ad_e_kernel",
               "kostant_slice_dim", "kostant_slice_degrees",
               "kostant_sampled_regularity", "kostant_two_models_agree",
               "degree_bookkeeping")
    assert [(c["status"], c["detail"]) for c in checks
            if c["name"] in readers] == [("fail", "no triple")] * 7
    assert len(calls) == 1


@pytest.mark.parametrize("patch, suite, names, sweeps, reason", [
    (_non_generating_pair, "sections", ("sp4_order", "sp4_density"),
     ((sp4, "density_direct"), (sp4, "density_by_classes")),
     "subspace orbits do not partition the lattice"),
    (_drop_height_one_slot, "cusp",
     ("kostant_ad_e_kernel", "kostant_two_models_agree"),
     ((kostant, "ad_e_kernel_dim"),), "image leaves its block at ('r', 136)"),
], ids=["sp4_generators", "kostant_block"])
def test_failed_sweep_runs_once_and_fails_its_readers(
        monkeypatch, patch, suite, names, sweeps, reason):
    # two generators that reach only 36 elements, whose subspace orbits do
    # not partition the lattice, and a height block that an image of ad(E)
    # leaves: the sweep raises the reason of a fail, and every check that
    # reads the shared input fails on it without a rerun
    patch(monkeypatch)
    calls = [_counted(monkeypatch, *sweep) for sweep in sweeps]
    s = Suite(suite)
    suites.run_checks([check for check in suites.CHECKS[suite]
                       if check[0] in names], s, suites.Context(None))
    assert s.checks == [{"name": name, "status": "fail", "detail": reason}
                        for name in names]
    assert [len(c) for c in calls] == [1] * len(sweeps)
