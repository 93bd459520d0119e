#!/usr/bin/env python3
"""Print the correctness reference that bench/run.py gates on.

    python3 bench/record_reference.py [SEED] > bench/reference.json

Runs every suite of every workload once, untraced, and records the ordered
check names with a digest of each check and of the whole report after
``e8g3.report.strip_volatile``.  Reports do not depend on the seed, so one
reference gates every seed.  Re-record only in a change that defines the
benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS, child_env, reference_entry


def main(argv) -> int:
    seed = argv[0] if argv else "0"
    sys.path.insert(0, str(ROOT / "src"))
    from e8g3.report import strip_volatile

    (BENCH / ".work").mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for suites in WORKLOADS.values():
            for suite in suites:
                path = Path(tmp) / f"{suite}.json"
                subprocess.run([sys.executable, "-m", "e8g3", "verify", suite,
                                "--threads", "1", "--seed", seed,
                                "--json", str(path)],
                               cwd=ROOT, env=child_env(), check=True,
                               stdout=subprocess.DEVNULL)
                reference[suite] = reference_entry(
                    strip_volatile(path.read_text()))
    print(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
