"""Machine-readable verification reports: a versioned JSON schema with
exact rationals serialized as num/den strings."""

from __future__ import annotations

import json
import time
from fractions import Fraction

# SHA-256 for the digests of the library, from CPython's own module:
# `hashlib` would load OpenSSL, about 3.6 MB of resident memory per process
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    from _sha256 import sha256

SCHEMA_VERSION = 1


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


class CheckFailed(Exception):
    """A false result found inside a sweep; the running check fails."""


class Suite:
    """Collects named pass/fail/skip checks with optional exact slack."""

    def __init__(self, name: str):
        self.name = name
        self.checks = []
        self._t0 = time.monotonic()

    def check(self, name: str, ok, detail: str, slack=None):
        entry = {
            "name": name,
            "status": "pass" if ok else "fail",
            "detail": detail,
        }
        if slack is not None:
            if isinstance(slack, (list, tuple)):
                entry["slack"] = [frac_str(s) for s in slack]
            else:
                entry["slack"] = frac_str(slack)
        self.checks.append(entry)

    def skip(self, name: str, reason: str):
        self.checks.append({"name": name, "status": "skipped",
                            "detail": reason})

    def error(self, name: str, detail: str):
        self.checks.append({"name": name, "status": "error",
                            "detail": detail})

    def to_dict(self, fixture_digest: str) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.name,
            "checks": self.checks,
            "wall_time_ms": int((time.monotonic() - self._t0) * 1000),
            "fixture_digest": fixture_digest,
        }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def strip_volatile(report_text: str) -> str:
    """Report text with wall-time fields removed (determinism compares)."""
    data = json.loads(report_text)
    if isinstance(data, list):
        for d in data:
            d.pop("wall_time_ms", None)
    else:
        data.pop("wall_time_ms", None)
    return json.dumps(data, sort_keys=True, indent=1) + "\n"
