#!/usr/bin/env python3
"""Print how two e8g3 reports differ, check by check.

    python3 tests/report_diff.py OLD NEW

Each of OLD and NEW is a report that `e8g3 verify --json` wrote (one
suite, or the list of `verify all`; wall times stripped or not) or the
benchmark's reference, `bench/reference.json`, which holds one digest per
check.  A check is keyed by its suite, its name and its occurrence among
the checks of that name in the suite.  A key only in OLD prints as a
removal (`-`), one only in NEW as an addition (`+`), and one in both whose
status, detail or digest differs as a change (`~`).  So do the other
fields of a suite (its fixture digest, say) when both sides are reports.
Identical reports print nothing and exit 0; any difference exits 1.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys

VOLATILE = ("wall_time_ms",)


def digest(check: dict) -> str:
    """The SHA-256 of one check, as the benchmark's reference records it."""
    return hashlib.sha256(
        json.dumps(check, sort_keys=True).encode()).hexdigest()


def suites(data) -> dict:
    """{suite: (its other fields or None, [(name, check or digest)])} of a
    parsed report or reference."""
    if isinstance(data, dict) and "suite" in data:
        data = [data]
    if isinstance(data, list):
        return {d["suite"]: ({k: v for k, v in d.items()
                              if k not in ("checks", "suite", *VOLATILE)},
                             [(c["name"], c) for c in d["checks"]])
                for d in data}
    return {suite: (None, [tuple(c) for c in entry["checks"]])
            for suite, entry in data.items()}


def _keyed(items) -> dict:
    """{(name, occurrence): value} of (name, value) pairs in order."""
    out, seen = {}, {}
    for name, value in items:
        seen[name] = seen.get(name, -1) + 1
        out[(name, seen[name])] = value
    return out


def _label(suite, name, k) -> str:
    return f"{suite}/{name}" + (f" (occurrence {k + 1})" if k else "")


def _change(old, new) -> str | None:
    """How one check changed, or None."""
    if isinstance(old, str) or isinstance(new, str):
        a, b = (x if isinstance(x, str) else digest(x) for x in (old, new))
        return None if a == b else f"digest {a[:12]} -> {b[:12]}"
    fields = [f"{f} {old.get(f)!r} -> {new.get(f)!r}"
              for f in ("status", "detail") if old.get(f) != new.get(f)]
    if fields:
        return "; ".join(fields)
    if old != new:
        return f"digest {digest(old)[:12]} -> {digest(new)[:12]}"
    return None


def diff(old: dict, new: dict) -> list:
    """The lines that tell `suites(...)` maps apart, OLD's order first."""
    out = []
    for suite in [*old, *(s for s in new if s not in old)]:
        head_a, items_a = old.get(suite, (None, []))
        head_b, items_b = new.get(suite, (None, []))
        if head_a is not None and head_b is not None:
            out += [f"~ {suite} ({f}): {head_a.get(f)!r} -> {head_b.get(f)!r}"
                    for f in sorted({*head_a, *head_b})
                    if head_a.get(f) != head_b.get(f)]
        a, b = _keyed(items_a), _keyed(items_b)
        for key, value in a.items():
            if key not in b:
                out.append(f"- {_label(suite, *key)}")
            elif (change := _change(value, b[key])) is not None:
                out.append(f"~ {_label(suite, *key)}: {change}")
        out += [f"+ {_label(suite, *key)}" for key in b if key not in a]
    return out


def load(path: str) -> dict:
    with open(path) as fh:
        return suites(json.load(fh))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines = diff(load(argv[0]), load(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
