"""Batch front-end: verification suites and bounded enumeration.
Exit codes: 0 pass, 1 verification failure, 2 usage error."""

from __future__ import annotations

import argparse
import os
import sys

from .report import dump_report


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = _Parser(
        prog="e8g3",
        description="exact checks for the graded E8 construction and its "
                    "genus-2 side")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=["rootsys", "heis", "gradedlie",
                                            "cusp", "sections", "all"])
    p_verify.add_argument("--json", metavar="PATH",
                          help="write the machine-readable report here")
    p_verify.add_argument("--threads", type=_positive_int, default=1,
                          help="worker processes for several suites, "
                               "at most one per suite")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="accepted and ignored: reports do not "
                               "depend on it")
    p_verify.add_argument("--fixture", metavar="PATH",
                          help="sections fixture file (default: the "
                               "packaged one)")

    p_enum = sub.add_parser("enumerate",
                            help="minimal quintics below a height bound")
    p_enum.add_argument("bound", type=int)
    p_enum.add_argument("--csv", metavar="PATH")

    args = parser.parse_args(argv)
    if args.command == "enumerate" and args.bound < 1:
        print(f"e8g3: error: bound must be a positive integer, got "
              f"{args.bound}", file=sys.stderr)
        return 2
    out = args.json if args.command == "verify" else args.csv
    created = False
    if out:
        # an unwritable output path is refused before any work is done
        created = not os.path.exists(out)
        try:
            open(out, "a").close()
        except OSError as exc:
            print(f"e8g3: error: cannot write output: {exc}", file=sys.stderr)
            return 2

    code = 2
    try:
        if args.command == "verify":
            code = cmd_verify(args)
        else:
            code = cmd_enumerate(args)
    finally:
        # a usage error writes nothing, and a run ended by any exception,
        # an interrupt too, leaves the path as it found it
        if code == 2 and created:
            os.remove(out)
    return code


def cmd_verify(args) -> int:
    from .suites import SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    if "sections" in names:
        # a bad fixture is a usage error, reported before any suite runs
        from .sections import fixture_from_json, fixture_text
        try:
            fixture_from_json(fixture_text(args.fixture))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"e8g3: error: bad sections fixture: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    jobs = [(name, args.fixture) for name in names]
    reports = []
    ok = True
    # the reports come first, so the pool closes when they run out
    for rep, name in zip(_run_jobs(jobs, args.threads), names):
        reports.append(rep)
        for check in rep["checks"]:
            status = check["status"].upper()
            line = f"[{status:4s}] {name}/{check['name']}"
            if check.get("detail"):
                line += f" -- {check['detail']}"
            if "slack" in check:
                line += f" (slack {check['slack']})"
            print(line)
            if check["status"] in ("fail", "error"):
                ok = False
    payload = reports[0] if len(reports) == 1 else reports
    text = dump_report(payload)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    print(f"suite{'s' if len(reports) > 1 else ''} "
          f"{'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def _run_jobs(jobs, threads: int):
    """Suite reports in job order: in process for one job or one thread,
    otherwise from a pool of at most one worker process per job.  Workers
    are spawned, so they start from a fresh import and inherit no state."""
    if threads == 1 or len(jobs) == 1:
        yield from map(_run_job, jobs)
        return
    import multiprocessing
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(threads, len(jobs))) as pool:
        yield from pool.imap(_run_job, jobs)


def _run_job(job) -> dict:
    """The report of one (suite name, fixture path) job."""
    from .suites import run_suite

    return run_suite(*job)


def cmd_enumerate(args) -> int:
    from .genus2 import discriminant, height_box, is_minimal

    rows = []
    count = 0
    for q in height_box(args.bound):
        d = discriminant(q)
        if d == 0:
            continue
        minimal = is_minimal(q)
        count += minimal
        rows.append((*q, d, int(minimal)))
    print(count)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("c12,c18,c24,c30,disc,minimal\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
