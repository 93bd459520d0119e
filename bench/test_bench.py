"""Tests of the benchmark's own arithmetic and of its correctness gate.

The gate tests feed synthetic reports that must fail, so they show that
the gate can fail.  Only the last test starts the program (rootsys, about
a second), traced.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))
from e8g3.report import dump_report, strip_volatile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- self time ----------------------------------------------------------------

def test_self_times_on_hand_built_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7];
    # root also spent 0.5 s in aggregates called directly inside it
    spans = [
        ["r1", 0, None, "root", 0.0, 10.0, 0.5],
        ["r1", 1, 0, "a", 1.0, 4.0, 0.0],
        ["r1", 2, 0, "b", 5.0, 9.0, 0.0],
        ["r1", 3, 2, "c", 6.0, 7.0, 0.25],
        # same span ids in another run must not be charged to run r1
        ["r2", 0, None, "root", 0.0, 2.0, 0.0],
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 2.5 + 2.0, "a": 3.0, "b": 3.0,
                                 "c": 0.75})


def test_covered_is_a_clipped_union():
    assert tracing.covered((0, 10), [(1, 4), (3, 6), (9, 12)]) == 6
    assert tracing.covered((0, 10), []) == 0


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_tracer_charges_aggregates_to_their_span():
    # clock reads in call order: outer starts 0; inner 1..5 with leaf 3..4
    # inside it; leaf again 6..8; outer ends 10
    tr = tracing.Tracer("t", clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = tr.wrap(tracing.AGGREGATE, "k.leaf", lambda: None)
    inner = tr.wrap(tracing.AGGREGATE, "k.inner", lambda: leaf())
    count = tr.wrap(tracing.COUNT, "k.count", lambda x: x)

    def body():
        inner()
        count(1)
        leaf()
        return 7

    outer = tr.wrap(tracing.SPAN, "k.outer", body,
                    {"k.answer": lambda a, k, r: r})
    assert outer() == 7
    assert tr.spans == [["t", 0, None, "k.outer", 0, 10, 4 + 2]]
    assert tr.aggregates == {"k.inner": [1, 4, 3], "k.leaf": [2, 3, 3]}
    assert tracing.self_times(tr.spans) == {"k.outer": 4}
    assert tr.counts == {"k.count_calls": 1, "k.answer": 7}


def test_span_inside_aggregate_is_refused():
    tr = tracing.Tracer("t")
    span = tr.wrap(tracing.SPAN, "s", lambda: None)
    agg = tr.wrap(tracing.AGGREGATE, "a", lambda: span())
    with pytest.raises(RuntimeError):
        agg()


def test_eager_span_covers_a_generator():
    tr = tracing.Tracer("t")
    gen = tr.wrap(tracing.SPAN, "g", lambda: (i for i in range(3)), eager=True)
    assert list(gen()) == [0, 1, 2]
    assert len(tr.spans) == 1


# -- statistics ---------------------------------------------------------------

def test_median_and_sample_count():
    assert run.describe([3.0, 1.0, 2.0]) == "median 2 (n=3)"
    assert run.tail_percentile([1.0] * 99) is None


@pytest.mark.parametrize("n, p, value", [(100, 90.0, 90), (999, 90.0, 900),
                                         (1000, 99.0, 990),
                                         (10000, 99.9, 9990)])
def test_highest_percentile_with_ten_samples_beyond(n, p, value):
    samples = [float(i) for i in range(n, 0, -1)]
    assert run.tail_percentile(samples) == (p, value)
    assert sum(1 for x in samples if x > value) >= 10


# -- pacing -------------------------------------------------------------------

def test_rescale_weights_each_stretch_by_its_neighbouring_bursts():
    ref = run.REF_BURST_S
    assert run.rescale([1.0], [ref, ref]) == pytest.approx(1.0)
    # smoothed bursts: ref, ref, 1.5 ref
    assert run.rescale([1.0, 2.0], [ref, ref, 2 * ref]) == pytest.approx(
        1.0 + 2.0 * 2 / 2.5)


def test_rescale_ignores_a_single_preempted_burst():
    ref = run.REF_BURST_S
    assert run.rescale([1.0] * 4, [ref, ref, 100 * ref, ref, ref]) == \
        pytest.approx(4.0)


def test_paced_child_runs_only_between_bursts(tmp_path):
    busy = "import time\nend = time.process_time() + 0.4\n" \
           "while time.process_time() < end: pass\n"
    res = run.run_child([sys.executable, "-c", busy], 30.0, tmp_path / "err")
    assert res["exit"] == 0
    assert res["ref_s"] > 0
    # the child's CPU time fits in the stretches it was let run
    assert res["cpu_s"] <= res["run_s"] + 0.02


def test_child_past_its_timeout_is_killed(tmp_path):
    res = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                        0.3, tmp_path / "err")
    assert res["exit"] == -9
    assert res["run_s"] < 5


# -- metric names -------------------------------------------------------------

def test_metric_names_and_units():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for m in s["end_to_end"] + s["per_layer"])


def test_every_per_layer_metric_is_produced():
    tr = tracing.Tracer("t")
    for _, _, layer, kind, counts in tracing.LAYERS:
        tr.wrap(kind, layer, lambda: None, counts)
    for suite in ("rootsys", "heis", "gradedlie", "cusp", "sections"):
        tr.wrap(tracing.SPAN, f"suites.{suite}", lambda: None)
    payload = tr.to_json()
    payload["import_s"] = 0.1
    values = run.layer_metrics([payload])
    values["trace.overhead_s"] = 0.0
    missing = [m["name"] for m in spec()["per_layer"] if m["name"] not in values]
    assert not missing


# -- correctness gate ---------------------------------------------------------

def report(checks, digest="abc"):
    return dump_report({"schema_version": 1, "suite": "x", "checks": checks,
                        "wall_time_ms": 5, "fixture_digest": digest})


GOOD = [{"name": "a", "status": "pass", "detail": "1"},
        {"name": "b", "status": "pass", "detail": "2"},
        {"name": "c", "status": "skipped", "detail": "note"},
        {"name": "c", "status": "skipped", "detail": "second note"}]


def gate(checks, exit_code=0, digest="abc"):
    expected = run.reference_entry(strip_volatile(report(GOOD)))
    text = None if checks is None else strip_volatile(report(checks, digest))
    return run.count_failures(expected, text, exit_code) / len(GOOD)


def test_gate_passes_the_reference_itself():
    assert gate(GOOD) == 0


def test_gate_ignores_wall_time():
    expected = run.reference_entry(strip_volatile(report(GOOD)))
    other = report(GOOD).replace('"wall_time_ms": 5', '"wall_time_ms": 9')
    assert run.count_failures(expected, strip_volatile(other), 0) == 0


def test_fail_ratio_with_one_failing_check():
    bad = [dict(GOOD[0], status="fail")] + GOOD[1:]
    assert gate(bad, exit_code=1) == 1.0  # nonzero exit: every check
    assert gate(bad) == 1 / 4


def test_fail_ratio_with_a_changed_detail():
    bad = [GOOD[0], dict(GOOD[1], detail="3")] + GOOD[2:]
    assert gate(bad) == 1 / 4


def test_fail_ratio_with_repeated_names_swapped():
    assert gate(GOOD[:2] + [GOOD[3], GOOD[2]]) == 2 / 4


def test_fail_ratio_with_a_missing_check_or_changed_header():
    assert gate(GOOD[:3]) == 1 / 4
    assert gate(GOOD, digest="xyz") == 1.0


def test_fail_ratio_on_a_crashed_child(tmp_path):
    res = run.run_child([sys.executable, "-c", "import sys; sys.exit(3)"],
                        30.0, tmp_path / "err")
    assert res["exit"] == 3
    assert gate(None, exit_code=res["exit"]) == 1.0


def test_reference_covers_every_workload():
    with open(run.BENCH / "reference.json") as fh:
        ref = json.load(fh)
    for suites in run.WORKLOADS.values():
        for suite in suites:
            assert ref[suite]["checks"] and ref[suite]["report_sha256"]


def test_traced_report_matches_the_reference(tmp_path):
    spans, out = tmp_path / "spans.json", tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "tracing.py"), str(spans), "verify",
         "rootsys", "--threads", "1", "--seed", "3", "--json", str(out)],
        cwd=run.ROOT, env=run.child_env(), stdout=subprocess.DEVNULL,
        timeout=120)
    with open(run.BENCH / "reference.json") as fh:
        expected = json.load(fh)["rootsys"]
    assert run.count_failures(expected, strip_volatile(out.read_text()),
                              proc.returncode) == 0
    values = run.layer_metrics([json.loads(spans.read_text())])
    assert values["rootsys.build_s"] > 0
    assert values["suites.rootsys_s"] > 0
    assert values["rootsys.apply_w_calls"] > 0
    assert 0 < values["trace.named_share"] < 1
