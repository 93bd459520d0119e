"""Command-line wiring: exit codes, reports, usage errors, determinism."""

import ast
import glob
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_fixture_text_reads_the_path_or_the_packaged_fixture(tmp_path):
    from importlib import resources
    from e8g3.sections import fixture_text
    text = resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text()
    assert fixture_text(None) == text
    path = tmp_path / "other.json"
    path.write_text("{}")
    assert fixture_text(str(path)) == "{}"


def test_crashing_suite_keeps_the_others(tmp_path, capsys, monkeypatch):
    # a check that raises is one error line under its name, and the checks
    # after it and the other suites still run
    from e8g3 import suites

    def raises(c):
        raise RuntimeError("table missing")

    boom = (("one", lambda c: (True, "")), ("two", raises),
            ("three", lambda c: (True, "")))

    def fine(s, c):
        s.check("one", True, "")

    monkeypatch.setattr(suites, "SUITES", {
        "boom": lambda s, c: suites.run_checks(boom, s, c), "fine": fine})
    out = tmp_path / "r.json"
    assert main(["verify", "all", "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "[PASS] boom/one",
        "[ERROR] boom/two -- RuntimeError: table missing",
        "[PASS] boom/three",
        "[PASS] fine/one",
        "suites FAILED",
    ]
    assert "Traceback" in captured.err
    assert "RuntimeError: table missing" in captured.err
    boom_rep, fine_rep = json.loads(out.read_text())
    assert boom_rep["suite"] == "boom"
    assert boom_rep["checks"] == [
        {"name": "one", "status": "pass", "detail": ""},
        {"name": "two", "status": "error",
         "detail": "RuntimeError: table missing"},
        {"name": "three", "status": "pass", "detail": ""}]
    assert fine_rep["suite"] == "fine"
    assert [c["status"] for c in fine_rep["checks"]] == ["pass"]


def test_pool_has_at_most_one_worker_per_suite(monkeypatch, capsys):
    import multiprocessing
    from e8g3 import suites

    sizes = []

    class RecordingPool:
        """Starts no process: records the requested worker count and runs
        the jobs in process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs):
            return map(fn, jobs)

    def fine(s, c):
        s.check("one", True, "")

    def get_context(method):
        assert method == "spawn"
        return SimpleNamespace(Pool=RecordingPool)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(suites, "SUITES", {name: fine for name in
                                           ("rootsys", "heis", "cusp")})
    assert main(["verify", "all", "--threads", "64"]) == 0
    assert sizes == [len(suites.SUITES)]
    assert main(["verify", "heis", "--threads", "64"]) == 0
    assert sizes == [len(suites.SUITES)]  # one suite runs in process
    out = capsys.readouterr().out.splitlines()
    assert out == ["[PASS] rootsys/one", "[PASS] heis/one", "[PASS] cusp/one",
                   "suites passed", "[PASS] heis/one", "suite passed"]


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
        payload["q"] = json.loads(case[2:])
        path.write_text(json.dumps(payload))
    elif case == "f_coeffs_text":
        payload["f_coeffs_low_to_high"] = "abc"
        path.write_text(json.dumps(payload))
    elif case == "f_coeffs_short":
        payload["f_coeffs_low_to_high"] = [1, 2]
        path.write_text(json.dumps(payload))
    elif case == "f5_2":
        payload["f_coeffs_low_to_high"][5] = 2
        path.write_text(json.dumps(payload))
    elif case == "sections_text":
        payload["sections"] = [["a", "b"]]
        path.write_text(json.dumps(payload))
    elif case == "sections_short":
        payload["sections"][0][0].pop()
        path.write_text(json.dumps(payload))
    elif case == "section_out_of_field":
        payload["sections"][0][1][3] = payload["q"]
        path.write_text(json.dumps(payload))
    return str(path)


# q = 170 is not a prime power, 128 is even, 529 = 23^2 is above GF's
# tables, and 169.0 and true are not ints though they compare equal to
# 169 and 1; f5_2 is a quintic that is not monic; sections_short has a
# section whose a has two coefficients, and section_out_of_field one whose
# b has the coefficient q
@pytest.mark.parametrize("case", ["missing", "unreadable", "bad_json",
                                  "wrong_version", "missing_key", "q_170",
                                  "q_128", "q_529", "q_169.0", "q_true",
                                  "f_coeffs_text",
                                  "f_coeffs_short", "f5_2", "sections_text",
                                  "sections_short", "section_out_of_field"])
def test_bad_fixture_exits_2_before_any_suite(tmp_path, capsys, case):
    # with "all", sections runs last: nothing may run before the error
    code = main(["verify", "all", "--fixture", _bad_fixture(tmp_path, case)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "fixture" in err


@pytest.mark.parametrize("q", [3, 5, 9])
def test_fixture_field_without_cube_roots_exits_2(tmp_path, capsys, q):
    # the twist checks need a cube root of unity in F_q: (q - 1) % 3 == 0
    target = tmp_path / "r.json"
    code = main(["verify", "sections", "--fixture",
                 _bad_fixture(tmp_path, f"q_{q}"), "--json", str(target)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "cube root" in err
    assert not target.exists()


@pytest.mark.parametrize("path", ["missing_dir", "directory"])
@pytest.mark.parametrize("argv", [["verify", "rootsys", "--json"],
                                  ["enumerate", "2", "--csv"]],
                         ids=["verify_json", "enumerate_csv"])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys,
                                                   monkeypatch, argv, path):
    from e8g3 import genus2, suites

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the path was refused")
    monkeypatch.setattr(suites, "run_suite", no_work)
    monkeypatch.setattr(genus2, "height_box", no_work)
    target = tmp_path / "absent" / "out" if path == "missing_dir" else tmp_path
    assert main(argv + [str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "cannot write" in err


@pytest.mark.parametrize("existed", [False, True],
                         ids=["new_path", "existing_file"])
@pytest.mark.parametrize("case", ["enumerate_bound", "verify_fixture"])
def test_usage_error_leaves_output_path_as_it_was(tmp_path, capsys, case,
                                                  existed):
    target = tmp_path / "out"
    if existed:
        target.write_bytes(b"earlier,bytes\n")
    if case == "enumerate_bound":
        argv = ["enumerate", "0", "--csv", str(target)]
    else:
        argv = ["verify", "sections", "--fixture",
                _bad_fixture(tmp_path, "bad_json"), "--json", str(target)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("e8g3: error: ")
    if existed:
        assert target.read_bytes() == b"earlier,bytes\n"
    else:
        assert not target.exists()


@pytest.mark.parametrize("existed", [False, True],
                         ids=["new_path", "existing_file"])
def test_interrupted_run_leaves_output_path_as_it_was(tmp_path, monkeypatch,
                                                      existed):
    from e8g3 import cli

    def interrupted(args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "cmd_verify", interrupted)
    target = tmp_path / "out.json"
    if existed:
        target.write_bytes(b"earlier bytes\n")
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "rootsys", "--json", str(target)])
    if existed:
        assert target.read_bytes() == b"earlier bytes\n"
    else:
        assert not target.exists()


def test_optimized_interpreter_gives_same_report(tmp_path, report):
    for suite in ("rootsys", "cusp", "sections"):
        path = tmp_path / f"{suite}.json"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "e8g3", "verify", suite,
             "--json", str(path)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        plain = strip_volatile(dump_report(report.suites[suite]))
        assert strip_volatile(path.read_text()) == plain, suite


def _other_cpythons():
    """One executable per CPython version >= 3.10 other than this one:
    pyenv's versions/3.1x*/bin/python under `pyenv root`, then python3.1x on
    PATH.  One that fails to start, such as a pyenv shim with no version
    behind it, counts as absent."""
    candidates = []
    try:
        root = subprocess.run(["pyenv", "root"], capture_output=True,
                              text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        root = ""
    if root:
        candidates += sorted(glob.glob(
            os.path.join(root, "versions", "3.1*", "bin", "python")))
    candidates += filter(None, (shutil.which(f"python3.{minor}")
                                for minor in range(10, 20)))
    probe = ("import platform, sys; "
             "print(platform.python_implementation(), *sys.version_info[:3])")
    found = {}
    for exe in candidates:
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True,
                                  text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = proc.stdout.split()
        if proc.returncode or len(words) != 4 or words[0] != "CPython":
            continue
        version = tuple(map(int, words[1:]))
        if version >= (3, 10) and version != sys.version_info[:3]:
            found.setdefault(version, exe)
    return found


def test_report_is_identical_on_every_installed_cpython(tmp_path, report):
    # the sweeps lean on bytes.translate, int.from_bytes and dict order;
    # each other interpreter prints the same lines and writes the same
    # stripped report as the session's run (--threads 1 --seed 0)
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 starts")
    runs = {}
    for version, exe in interpreters.items():
        path = tmp_path / f"{exe.replace(os.sep, '_')}.json"
        runs[version] = path, subprocess.Popen(
            [exe, "-m", "e8g3", "verify", "all", "--threads", "1",
             "--seed", "0", "--json", str(path)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    plain = strip_volatile(report.text)
    for version, (path, proc) in runs.items():
        output = proc.communicate(timeout=600)[0]
        assert proc.returncode == 0, (version, output[-2000:])
        assert output == report.output, version
        assert strip_volatile(path.read_text()) == plain, version


def _library_nodes():
    """(file name, node) for every AST node of the library."""
    return [(path.name, node)
            for path in sorted(Path(SRC, "e8g3").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))]


def test_library_has_no_assert():
    # `python -O` strips assert statements, and with them the checks they hold
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


# Module-level library functions that no library code names, each with
# the code outside the library that calls it
CALLED_ONLY_OUTSIDE_LIBRARY = {
    ("report.py", "strip_volatile"): "the bench gate and the tests",
    ("sections.py", "load_default_fixture"): "the bench setup probe",
}


# Constants of the construction, each with the one library file that
# writes it; the tests keep their own copies
ONE_HOME = [
    ((12, 18, 24, 30), "genus2.py"),  # the weights of the quintic family
    ((4, 6, 8, 10), None),  # the same weights over 3, derived from them
    ((27, 9, 3, 1), "heis.py"),  # the codes of the unit vectors
    (((2, 6, 7), (2, 5, 8), (3, 4, 8), (1, 6, 9),
      (3, 5, 7), (2, 4, 9), (1, 7, 8), (4, 5, 6)), "rootsys.py"),
    (((2, 6, 7), (2, 5, 8), (3, 4, 8), (3, 5, 7), (1, 7, 8), (4, 5, 6)),
     "cuspdata.py"),  # the six stable basis triples
    (((-2, 1), (-1, 56), (0, 126), (1, 56), (2, 1)), "rootsys.py"),
    # the standard symplectic form on (e1, e2, f1, f2), which heis.FORM
    # gives on the unit codes (a literal with list rows)
    (([0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]), None),
    (((1,), ()), "jacobian.py"),  # the zero divisor class
]


def _entries(node):
    """The entries of a literal tuple, list, set or dict (its items), as a
    sorted list of their reprs, or None for any other node."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
        return None
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return sorted(map(repr, value.items() if isinstance(node, ast.Dict)
                      else value))


def test_each_constant_is_written_once():
    # a literal with the same entries in any order is a copy; a second
    # copy would be one more place to keep equal to the first
    found = [[] for _ in ONE_HOME]
    for name, node in _library_nodes():
        entries = _entries(node)
        for files, (value, _) in zip(found, ONE_HOME):
            if entries == sorted(map(repr, value)):
                files.append((name, node.lineno))
    assert [[name for name, _ in files] for files in found] == [
        [home] if home else [] for _, home in ONE_HOME], found


def test_library_functions_have_library_callers():
    # code that nothing consumes is deleted, and a function that only the
    # tests call is a test helper.  Names are resolved by module: a
    # module-level function is used when its own module names it outside
    # its def, when a module imports it from its module and names it, or
    # when it is read as an attribute of a name bound to its module
    # (`from . import heis`, or `h = heis` after that).  Every method but a
    # dunder is read as an attribute outside its own def.  Context builds
    # its attribute `name` by the method `_name`, so a read of `.name` uses
    # that method
    function = (ast.FunctionDef, ast.AsyncFunctionDef)
    # functions: (module, name) -> own def; methods: (file, label, own def,
    # the attribute that uses it); used: the (module, name) of every use
    # of a module-level function; read: attribute -> units reading it
    functions, methods, used, read = {}, [], set(), {}
    for path in sorted(Path(SRC, "e8g3").rglob("*.py")):
        module, units = path.stem, []
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, function):
                functions[module, stmt.name] = stmt
            if not isinstance(stmt, ast.ClassDef):
                units.append((stmt, [stmt]))
                continue
            own = [m for m in stmt.body if isinstance(m, function)]
            units.append((stmt, [node for node in ast.iter_child_nodes(stmt)
                                 if node not in own]))
            units += [(m, [m]) for m in own]
            methods += [(path.name, f"{stmt.name}.{m.name}", m,
                         m.name.removeprefix("_") if stmt.name == "Context"
                         else m.name)
                        for m in own
                        if not (m.name.startswith("__")
                                and m.name.endswith("__"))]
        # names: local names read anywhere in the module; imported: local
        # name -> (module, name) it was imported as; bound: local name ->
        # the library module it is bound to
        names, imported, bound, aliases, reads = set(), {}, {}, [], []
        for unit, nodes in units:
            for node in (n for top in nodes for n in ast.walk(top)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                    if unit is not functions.get((module, node.id)):
                        used.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    read.setdefault(node.attr, set()).add(unit)
                    if isinstance(node.value, ast.Name):
                        reads.append((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if node.module is None:
                            bound[local] = alias.name
                        else:
                            imported[local] = (node.module, alias.name)
                elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)
                      and isinstance(node.value, ast.Name)):
                    aliases.append((node.targets[0].id, node.value.id))
        bound.update((new, bound[old]) for new, old in aliases if old in bound)
        used.update(pair for local, pair in imported.items() if local in names)
        used.update((bound[name], attr) for name, attr in reads
                    if name in bound)
    found = [(f"{module}.py", name) for module, name in functions
             if (module, name) not in used]
    found += [(name, label) for name, label, own, key in methods
              if not any(unit is not own for unit in read.get(key, ()))]
    assert sorted(found) == sorted(CALLED_ONLY_OUTSIDE_LIBRARY)


def test_library_imports_are_used():
    # an import that its module never reads is left over from deleted
    # code; report imports sha256 for the modules that take it from there
    found = set()
    for path in sorted(Path(SRC, "e8g3").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {(path.name, local) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  for local in [alias.asname or alias.name.split(".")[0]]
                  if local not in read}
    assert found == {("report.py", "sha256")}


def test_sweeps_raise_only_check_failed():
    # a false result found inside a sweep is a named fail of the running
    # check, so these modules raise CheckFailed and nothing else; suites
    # also re-raises the exception an input's build raised
    found = []
    for name in ("wedge", "kostant", "sp4", "suites"):
        tree = ast.parse(Path(SRC, "e8g3", f"{name}.py").read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            raised = ast.unparse(node.exc) if node.exc else ""
            if not (raised.startswith("CheckFailed(") or name == "suites"
                    and raised == "self.raised[name]"):
                found.append(f"{name}:{node.lineno} raise {raised}")
    assert found == []


def _import_lines(module, target):
    """Lines of the library module `module` that import the library module
    `target`: `from .target import ...`, `from . import target` and
    `import e8g3.target` all count."""
    found = []
    path = Path(SRC, "e8g3", f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(target in name.split(".") for name in names):
                found.append(node.lineno)
    return found


def test_library_does_not_import_hashlib():
    # hashlib loads OpenSSL, about 3.6 MB of resident memory per process;
    # the library's digests use report.sha256
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for module in [getattr(node, "module", None),
                            *(alias.name for alias in node.names)]
             if module and module.split(".")[0] == "hashlib"]
    assert found == []


def test_verify_loads_no_openssl():
    code = ("import sys\n"
            "from e8g3.cli import main\n"
            "status = main(['verify', 'rootsys', '--threads', '1'])\n"
            "print(status, '_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_library_does_not_import_dataclasses():
    # importing dataclasses adds milliseconds to every process's start; the
    # library's records are namedtuples
    assert [path.name for path in sorted(Path(SRC, "e8g3").rglob("*.py"))
            if "dataclass" in path.read_text()] == []
    code = ("import sys\n"
            "import e8g3.cli, e8g3.suites\n"
            "print('dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False"


def test_report_sha256_matches_hashlib():
    import hashlib

    from e8g3.report import sha256
    for data in (b"", b"abc", bytes(range(256)) * 1200):
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    fed = sha256()
    for piece in (b"a", b"", b"bc"):
        fed.update(piece)
    assert fed.hexdigest() == hashlib.sha256(b"abc").hexdigest()


def test_sp4_imports_nothing_from_intlinalg():
    # both Sp4 strategies count without elimination
    assert _import_lines("sp4", "intlinalg") == []


def test_heis_imports_no_cyc_and_the_library_has_no_global():
    # the Heisenberg side works on int codes and w-pairs (Mono.trace is a
    # pair); the F_3^4 tables are built at import and the once-per-process
    # builds are functools.cache functions, so no module rebinds a global
    assert _import_lines("heis", "cyclotomic") == []
    assert not any(isinstance(node, (ast.Global, ast.Nonlocal))
                   for _, node in _library_nodes())


def test_wedge_model_has_no_fraction():
    # the wedge model runs on ints: its brackets are scaled to integers,
    # and only the elimination it calls works over Q
    assert _import_lines("wedge", "fractions") == []
    assert "Fraction" not in Path(SRC, "e8g3", "wedge.py").read_text()


def test_kostant_has_no_fraction():
    # the grading element's coroot coordinates are the integral inverse
    # Gram applied to (2, ..., 2); the table model's eliminations are over
    # Q(w), on w-pairs
    assert _import_lines("kostant", "fractions") == []
    assert "Fraction" not in Path(SRC, "e8g3", "kostant.py").read_text()


def test_lower_element_is_solved_in_one_elimination(monkeypatch):
    # solve answers existence and uniqueness from one elimination, so the
    # wedge report eliminates five times (its solve, the kernel of ad(F)
    # and three ranks) and the table model's uniqueness check once
    from e8g3 import intlinalg, kostant, wedge
    from e8g3.gradedlie import LieElement, get_algebra

    calls, rref = [], intlinalg.rref
    monkeypatch.setattr(intlinalg, "rref",
                        lambda *args: calls.append(1) or rref(*args))
    assert wedge.kostant_slice_report()["slice_dim"] == 4
    assert len(calls) == 5
    alg = get_algebra()
    E, X, _ = kostant.build_triple(alg)
    calls.clear()
    assert kostant._uniqueness_check(alg, E, X)
    assert len(calls) == 1
    # a degree-1 component of X, which no [E, F'] reaches, is refused as
    # unsolvable rather than raised on
    assert not kostant._uniqueness_check(
        alg, E, X + LieElement(roots={alg.degree.index(1): (1, 0)}))


def test_sp4_keeps_no_f3_table_of_its_own():
    # sp4's form and action are heis's objects themselves, so the F_3^4
    # arithmetic has one set of tables
    from e8g3 import heis, sp4
    assert sp4.FORM is heis.FORM
    assert sp4.action is heis.action


def test_library_holds_q_w_only_as_w_pairs():
    # Q(w) has one representation, the w-pair (x, y): no module names a
    # Cyc, and cyclotomic defines functions on pairs, no class
    assert [path.name for path in sorted(Path(SRC, "e8g3").rglob("*.py"))
            if re.search(r"\bCyc\b", path.read_text())] == []
    tree = ast.parse(Path(SRC, "e8g3", "cyclotomic.py").read_text())
    assert not any(isinstance(node, ast.ClassDef) for node in ast.walk(tree))


# Every defaulted parameter of the library, as (file, function, parameter).
# Each is set to different values by different callers, or is a standard
# constructor or command-line default; a value that one caller always
# passes, or that the input determines, is not an option.
DEFAULTED_PARAMETERS = {
    ("cli.py", "main", "argv"),
    ("gradedlie.py", "__init__", "cartan"),
    ("gradedlie.py", "__init__", "roots"),
    ("report.py", "check", "slack"),
}


def test_library_defaulted_parameters_are_the_allowlist():
    found = []
    for name, node in _library_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d]
            found += [(name, getattr(node, "name", "<lambda>"), a.arg)
                      for a in defaulted]
    assert sorted(found) == sorted(DEFAULTED_PARAMETERS)


def test_library_has_no_float():
    # the library computes exactly: no float literal and no float() call
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if (isinstance(node, ast.Constant) and type(node.value) is float)
             or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "float")]
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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_library_reads_no_private_name_of_another_module():
    # a module's _private names are its own: another module reaches its
    # kernels through their public names (`RootSystem.sum_row`,
    # `heis.product_row`), never through `rs._packed` or `heis._LAW`.  A
    # private attribute read is allowed only where its own module binds a
    # name or sets an attribute of that name
    found = []
    for path in sorted(Path(SRC, "e8g3").rglob("*.py")):
        tree = ast.parse(path.read_text())
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Store):
                own.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("e8g3")):
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if _is_private(a.name)]
            elif (isinstance(node, ast.Attribute) and _is_private(node.attr)
                  and node.attr not in own):
                found.append(f"{path.name}:{node.lineno} reads "
                             f"{ast.unparse(node)}")
    assert found == []
