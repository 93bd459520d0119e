#!/usr/bin/env python3
"""End-to-end benchmark of the e8g3 verifier.

    python3 bench/run.py --workload lie --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  Each workload runs its suites as
fresh ``e8g3 verify`` processes, one at a time and with ``--threads 1``
(a closed loop with one client), until ``--seconds`` have passed, and at
least once.  Every report is gated against ``bench/reference.json``.

The host's speed drifts by up to 1.9x within seconds, so timed children
are paced: every PACE_S the child is stopped, a fixed burst of
pure-Python work (``calibrate``) is timed on the same CPU, and the child
resumes.  Each stretch the child ran is rescaled by the bursts on either
side of it to the time it would have taken on a host where a burst takes
REF_BURST_S.  The rescaled times are the end-to-end timings.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs one untraced and one traced pass (see tracing.py),
neither paced, and prints the per-layer metrics.  Human-readable lines
and a provenance line come first; the last line of standard output is
the result object.  See bench/NOTES.md for the workloads and what each
metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from tracing import GAUGES, SPAN, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# suites of `e8g3 verify all`, split by the layers they stress
WORKLOADS = {
    "lie": ("rootsys", "heis", "gradedlie"),
    "cusp": ("cusp",),
    "sections": ("sections",),
}

# the shared structures each workload's suites build before checking
_LIE_SETUP = ("from e8g3 import suites\n"
              "from e8g3.gradedlie import get_algebra\n"
              "suites.build_root_system()\n"
              "get_algebra()\n")
SETUP_CODE = {
    "lie": _LIE_SETUP,
    "cusp": _LIE_SETUP,
    "sections": ("from e8g3 import suites\n"
                 "from e8g3.finitefield import GF\n"
                 "from e8g3.sections import load_default_fixture\n"
                 "GF(load_default_fixture()[0])\n"),
}
# Half the setup probes run before the timed passes and half after.
SETUP_SAMPLES = 6
PACE_S = 0.025  # a paced child runs this long between calibration bursts
REF_BURST_S = 0.001  # one calibration burst on the reference host
RUN_LIMIT_S = 170.0  # whole-run budget; a child still running then is killed
PERCENTILES = (Fraction("99.9"), Fraction(99), Fraction(90))


# -- statistics ---------------------------------------------------------------

def tail_percentile(samples):
    """(p, value) for the highest p in PERCENTILES with at least ten samples
    beyond it (nearest rank), or None when there are too few samples."""
    n = len(samples)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return float(p), sorted(samples)[rank - 1]
    return None


def describe(samples) -> str:
    text = f"median {statistics.median(samples):.6g} (n={len(samples)}"
    tail = tail_percentile(samples)
    if tail:
        text += f", p{tail[0]:g} {tail[1]:.6g}"
    return text + ")"


# -- correctness gate ---------------------------------------------------------

def check_digest(check: dict) -> str:
    return hashlib.sha256(json.dumps(check, sort_keys=True).encode()).hexdigest()


def reference_entry(stripped: str) -> dict:
    """Reference for one report text already passed through strip_volatile."""
    checks = json.loads(stripped)["checks"]
    return {"report_sha256": hashlib.sha256(stripped.encode()).hexdigest(),
            "checks": [[c["name"], check_digest(c)] for c in checks]}


def _by_occurrence(items, name_of) -> dict:
    """Map (name, k) to the k-th item of that name; check names repeat."""
    out, seen = {}, {}
    for item in items:
        name = name_of(item)
        seen[name] = seen.get(name, -1) + 1
        out[(name, seen[name])] = item
    return out


def count_failures(expected: dict, stripped, exit_code) -> int:
    """Failed checks of one report against its reference.

    A check fails when its status is ``fail``, or when it is missing or
    differs from the reference.  A crashed or timed-out process (nonzero
    exit or no report) fails every expected check, and so does a report
    whose checks all match but which differs elsewhere (order, extra
    checks, header fields)."""
    total = len(expected["checks"])
    if exit_code != 0 or stripped is None:
        return total
    got = _by_occurrence(json.loads(stripped)["checks"], lambda c: c["name"])
    failed = 0
    for key, (_, digest) in _by_occurrence(expected["checks"],
                                           lambda e: e[0]).items():
        check = got.get(key)
        if (check is None or check["status"] == "fail"
                or check_digest(check) != digest):
            failed += 1
    report_sha = hashlib.sha256(stripped.encode()).hexdigest()
    if not failed and report_sha != expected["report_sha256"]:
        return total
    return failed


# -- child processes ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate() -> float:
    """Seconds that one fixed burst of pure-Python work takes right now.

    Fraction arithmetic: pure-Python methods over big-int gcds, a broad
    mix of interpreter work like the program's own.  Of the kernels tried
    (small-int and dict churn, random reads over megabytes, object
    allocation, Fractions), it tracked the program's drift best."""
    gc.disable()
    start = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 150):
        acc += x * Fraction(i, i + 7)
        if acc.denominator > 10 ** 30:
            acc = Fraction(1, i)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def rescale(stretches, bursts) -> float:
    """Reference-host seconds of a child that ran ``stretches[i]`` seconds
    between ``bursts[i]`` and ``bursts[i + 1]``.  Each burst is first
    replaced by the median of itself and its neighbours, so that a burst
    the host preempted does not rescale the stretches beside it."""
    smooth = [statistics.median(bursts[max(i - 1, 0):i + 2])
              for i in range(len(bursts))]
    return sum(ran * 2 * REF_BURST_S / (smooth[i] + smooth[i + 1])
               for i, ran in enumerate(stretches))


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the
    calibration bursts time the CPU the child runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_child(argv, timeout: float, stderr_path: Path,
              paced: bool = True) -> dict:
    """Run one process to completion: its exit code, the seconds it ran
    (``run_s``; without the stops), its reference-host seconds (``ref_s``,
    paced only), CPU seconds and peak RSS."""
    bursts = [calibrate()] if paced else []
    stretches = []
    with open(stderr_path, "wb") as err:
        start = resumed = time.perf_counter()
        deadline = start + max(timeout, 0.0)
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            exited = select.poll()
            pidfd = os.pidfd_open(proc.pid)
            exited.register(pidfd, select.POLLIN)
            try:
                while not exited.poll(PACE_S * 1000):
                    if time.perf_counter() > deadline:
                        proc.kill()  # also ends a stopped child
                    elif paced:
                        os.kill(proc.pid, signal.SIGSTOP)
                        stretches.append(time.perf_counter() - resumed)
                        bursts.append(calibrate())
                        resumed = time.perf_counter()
                        os.kill(proc.pid, signal.SIGCONT)
                stretches.append(time.perf_counter() - resumed)
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"exit": proc.returncode, "run_s": sum(stretches),
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0}
    if paced:
        bursts.append(calibrate())
        res["ref_s"] = rescale(stretches, bursts)
    return res


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        from e8g3.report import strip_volatile

        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.strip = strip_volatile
        with open(BENCH / "reference.json") as fh:
            self.reference = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.ok = True
        self.children = 0

    def _timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_sample(self) -> float:
        """Reference-host seconds of one fresh setup process."""
        self.children += 1
        res = run_child([sys.executable, "-c", SETUP_CODE[self.workload]],
                        self._timeout(),
                        self.work / f"setup{self.children}.err")
        if res["exit"] != 0:
            self.ok = False
            print(f"setup probe exited with {res['exit']}")
        return res["ref_s"]

    def iteration(self, traced: bool, paced: bool) -> dict:
        """One pass over the workload's suites: the seconds its children
        ran, their reference-host seconds (paced only), CPU and peak RSS,
        and the trace files they wrote."""
        totals = {"wall_s": 0.0, "ref_wall_s": 0.0, "cpu_s": 0.0}
        rss = 0.0
        traces = []
        for suite in WORKLOADS[self.workload]:
            self.children += 1
            tag = self.work / f"{self.children}-{suite}"
            cli = ["verify", suite, "--threads", "1", "--seed", str(self.seed),
                   "--json", f"{tag}.report.json"]
            if traced:
                argv = [sys.executable, str(BENCH / "tracing.py"),
                        f"{tag}.spans.json"] + cli
            else:
                argv = [sys.executable, "-m", "e8g3"] + cli
            res = run_child(argv, self._timeout(), Path(f"{tag}.err"), paced)
            totals["wall_s"] += res["run_s"]
            totals["ref_wall_s"] += res.get("ref_s", 0.0)
            totals["cpu_s"] += res["cpu_s"]
            rss = max(rss, res["rss_mb"])
            self._gate(suite, res["exit"], Path(f"{tag}.report.json"))
            if traced and res["exit"] == 0:
                with open(f"{tag}.spans.json") as fh:
                    traces.append(json.load(fh))
        return dict(totals, peak_rss_mb=rss, traces=traces)

    def _gate(self, suite: str, exit_code: int, report: Path):
        expected = self.reference[suite]
        stripped = None
        if report.exists():
            stripped = self.strip(report.read_text())
        failed = count_failures(expected, stripped, exit_code)
        self.attempted += len(expected["checks"])
        self.failed += failed
        if failed:
            print(f"{suite}: {failed} of {len(expected['checks'])} checks "
                  f"failed the gate (exit {exit_code})")


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(traces) -> dict:
    """Per-layer self times and counts summed over the traced processes."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    suite_s = 0.0
    for t in traces:
        selfs = self_times(t["spans"])
        for name, kind in t["layers"].items():
            if kind == SPAN:
                add(f"{name}_s", selfs.get(name, 0.0))
                add(f"{name}_calls", sum(1 for s in t["spans"] if s[3] == name))
        for name, (calls, _, self_s) in t["aggregates"].items():
            add(f"{name}_s", self_s)
            add(f"{name}_calls", calls)
        for name, value in t["counts"].items():
            if name in GAUGES:
                out[name] = max(out.get(name, 0), value)
            else:
                add(name, value)
        add("cli.import_s", t["import_s"])
        suite_s += sum(s[5] - s[4] for s in t["spans"]
                       if s[3].startswith("suites."))
    suites_self = sum(v for k, v in out.items()
                      if k.startswith("suites.") and k.endswith("_s"))
    out["trace.named_share"] = 1.0 - suites_self / suite_s if suite_s else 0.0
    return out


# -- provenance ---------------------------------------------------------------

def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(seed: int, runs: int, load_start: float) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "runs": runs,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


# -- main ---------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(runner: Runner, seconds: float, spec: dict) -> tuple:
    """Untraced: paced whole passes until ``seconds`` elapse, between two
    halves of the setup probes."""
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES // 2)]
    samples = {"wall_s": [], "ref_wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    start = time.perf_counter()
    while True:
        it = runner.iteration(traced=False, paced=True)
        for key in samples:
            samples[key].append(it[key])
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(samples["wall_s"])
        if (elapsed >= seconds
                or runner.deadline - time.perf_counter() < 1.5 * per_pass):
            break
    setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES // 2)]
    samples["setup_s"] = setup
    print(f"fail_ratio: {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} checks)")
    for name in ("wall_s", "cpu_s"):  # as measured, not rescaled
        print(f"{name}: {describe(samples[name])} s")
    metrics = {}
    for m in spec["end_to_end"]:
        vals = samples[m["name"]]
        print(f"{m['name']}: {describe(vals)} {m['unit']}")
        metrics[m["name"]] = {"value": statistics.median(vals),
                              "unit": m["unit"]}
    return metrics, len(samples["wall_s"])


def measure_traced(runner: Runner, spec: dict) -> tuple:
    """One untraced pass for the baseline, one traced pass for the layers;
    neither is paced, so that span times hold no stops."""
    plain = runner.iteration(traced=False, paced=False)
    traced = runner.iteration(traced=True, paced=False)
    values = layer_metrics(traced["traces"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in values and not runner.failed:
            raise KeyError(f"traced run produced no {m['name']}")
        value = values.get(m["name"], 0)
        print(f"{m['name']}: {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, 2


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "e8g3" / "cli.py").is_file():
        print(f"no e8g3 sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    load_start = os.getloadavg()[0]
    pin_to_one_cpu()
    start = time.perf_counter()
    # compile once so that no timed process pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src")], check=True, stdout=subprocess.DEVNULL)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        runner = Runner(args.workload, args.seed, work, start + RUN_LIMIT_S)
        if args.trace:
            metrics, runs = measure_traced(runner, spec)
        else:
            metrics, runs = measure(runner, args.seconds, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = runner.ok and runner.failed == 0
    print(json.dumps({"provenance": provenance(args.seed, runs, load_start)}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
