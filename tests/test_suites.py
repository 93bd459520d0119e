"""The suites as declared tuples of checks: the declared names give the
report's lines, and a check that raises costs only its own lines."""

from fnmatch import fnmatchcase

from e8g3 import cuspdata, suites


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


def test_raising_input_costs_only_the_checks_that_read_it(monkeypatch):
    # without one basis triple the cusp cases cannot be built and the
    # wedge model finds no lower element: those checks and the cases'
    # digest are error lines, and the Kostant checks on the table model
    # still pass
    monkeypatch.setattr(cuspdata, "S_H", cuspdata.S_H[:-1])
    rep = suites.run_suite("cusp", None)
    checks = rep["checks"]
    status = {c["name"]: c["status"] for c in checks}
    assert all(any(fnmatchcase(c["name"], declared) for c in checks)
               for declared, _ in suites.CHECKS["cusp"])
    assert all(status[name] == "pass" for name in (
        "kostant_relations", "kostant_ad_e_kernel", "kostant_slice_dim",
        "kostant_slice_degrees", "kostant_sampled_regularity",
        "degree_bookkeeping"))
    assert status["kostant_two_models_agree"] == "error"
    assert [c["name"] for c in checks if c["name"] == "fixture_digest"] == [
        "fixture_digest"]
    assert checks[-1]["name"] == "fixture_digest"
    assert checks[-1]["status"] == "error"
    assert rep["fixture_digest"] == ""
