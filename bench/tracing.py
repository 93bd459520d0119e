"""Span tracer for the benchmark's traced run.

Run as a script, it stands in for ``python -m e8g3``: it imports every
e8g3 module, wraps the layer boundaries listed in ``LAYERS`` from the
outside, calls ``e8g3.cli.main`` with the remaining arguments and writes
the spans to a JSON file when the process ends::

    python3 bench/tracing.py SPANS.json verify cusp --threads 1 --seed 0

The program itself is not modified.  A layer is traced in one of three
ways:

* ``span``: one record per call (name, start, end, parent span, run id);
  for functions called a few times.
* ``aggregate``: calls and total/self seconds only, for hot kernels
  called tens of thousands of times.  An aggregate must not call a
  span-wrapped function, so that its time can be charged to the
  enclosing span as one block.
* ``count``: the call count only; the time stays in the caller.

Field arithmetic (``Cyc``, ``GF.add``/``mul``) is deliberately not
wrapped: its cost stays in the self time of whichever layer calls it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

# Counts that hold a size rather than accumulating work: combined by max.
GAUGES = frozenset({"sp4.group_order"})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rref_cells(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "rows")) * _arg(args, kwargs, 1, "width")


def _section_candidates(args, kwargs, result):
    q = _arg(args, kwargs, 0, "F").q
    # q is odd, so lead(a) ranges over (q - 1) / 2 nonzero squares
    return (q - 1) // 2 * q * q


def _intermediates(args, kwargs, result):
    return sum(c["sampled_intermediates"]["count"] for c in result["cases"])


# (module, attribute, layer name, kind, {count name: f(args, kwargs, result)})
LAYERS = (
    ("rootsys", "build_root_system", "rootsys.build", SPAN, {}),
    ("rootsys", "RootSystem.symplectic_exponent",
     "rootsys.symplectic_exponent", AGGREGATE, {}),
    ("rootsys", "RootSystem.apply_w", "rootsys.apply_w", COUNT, {}),
    ("heis", "build_model", "heis.build_model", SPAN, {}),
    ("heis", "Mono.__mul__", "heis.mono_mul", AGGREGATE, {}),
    ("gradedlie", "get_algebra", "gradedlie.build", SPAN, {}),
    ("gradedlie", "GradedAlgebra.bracket", "gradedlie.bracket", AGGREGATE,
     {}),
    ("gradedlie", "verify_jacobi", "gradedlie.jacobi", SPAN,
     {"gradedlie.jacobi_triples": lambda a, k, r: r["evaluated_triples"]}),
    ("gradedlie", "verify_rho_prime_homomorphism", "gradedlie.rho_prime_hom",
     SPAN, {"gradedlie.rho_prime_hom_pairs": lambda a, k, r: r["pairs"]}),
    ("gradedlie", "verify_heis_action_match", "gradedlie.heis_action", SPAN,
     {"gradedlie.heis_action_pairs": lambda a, k, r: r["pairs"]}),
    ("gradedlie", "killing_gram", "gradedlie.killing", SPAN, {}),
    ("intlinalg", "rref", "intlinalg.rref", SPAN,
     {"intlinalg.rref_cells": _rref_cells}),
    ("intlinalg", "det_bareiss", "intlinalg.det_bareiss", COUNT, {}),
    ("kostant", "sampled_regularity", "kostant.sampled_regularity", SPAN,
     {"kostant.regularity_samples":
      lambda a, k, r: len(r["centralizer_dims"])}),
    ("wedge", "kostant_slice_report", "wedge.slice_report", SPAN, {}),
    ("vinberg", "verify_cusp_bound", "vinberg.cusp_bound", SPAN,
     {"vinberg.small_sets_enumerated":
      lambda a, k, r: r["small_sets"]["enumerated"],
      "vinberg.intermediates_sampled": _intermediates}),
    ("stability", "verify_stability", "stability.verify", SPAN, {}),
    ("finitefield", "GF.__init__", "finitefield.gf_build", SPAN, {}),
    ("sections", "find_sections", "sections.find_sections", SPAN,
     {"sections.candidates": _section_candidates,
      "sections.found": lambda a, k, r: len(r)}),
    ("sections", "verify_section_fixture", "sections.verify_fixture", SPAN,
     {}),
    ("sp4", "enumerate_sp4", "sp4.enumerate", SPAN,
     {"sp4.group_order": lambda a, k, r: len(r)}),
    ("sp4", "density_direct", "sp4.density_direct", SPAN, {}),
    ("sp4", "density_by_classes", "sp4.density_by_classes", SPAN, {}),
    ("jacobian", "enumerate_jacobian", "jacobian.enumerate", SPAN, {}),
    ("jacobian", "cantor_add", "jacobian.cantor_add", COUNT, {}),
    # enumerate_min is a generator that its one caller drains with list();
    # the wrapper drains it inside the span so the span covers the work
    ("genus2", "enumerate_min", "genus2.enumerate", SPAN, {}),
    ("genus2", "enumerate_min_bruteforce", "genus2.enumerate", SPAN, {}),
    ("genus2", "discriminant", "genus2.discriminant", COUNT, {}),
)

EAGER = frozenset({("genus2", "enumerate_min")})


class Tracer:
    """Spans and per-layer totals of one process, kept in memory."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        # [run_id, span_id, parent_id, name, start, end, aggregate_s]
        self.spans = []
        # open frames: [is_span, span_id, seconds covered by aggregates]
        self._stack = []
        self.layers = {}      # layer name -> kind
        self.aggregates = {}  # layer name -> [calls, total_s, self_s]
        self.counts = {}      # count name -> value

    def _add_counts(self, counts, args, kwargs, result):
        for key, f in counts.items():
            value, old = f(args, kwargs, result), self.counts[key]
            self.counts[key] = max(old, value) if key in GAUGES else old + value

    def wrap(self, kind, name, fn, counts=None, eager=False):
        """Wrapper of ``fn`` recording layer ``name``; ``counts`` maps count
        names to functions of (args, kwargs, result)."""
        counts = counts or {}
        self.layers[name] = kind
        for key in counts:
            self.counts.setdefault(key, 0)
        if kind == SPAN:
            return self._span(name, fn, counts, eager)
        if kind == AGGREGATE:
            self.aggregates.setdefault(name, [0, 0.0, 0.0])
            return self._aggregate(name, fn, counts)
        self.counts.setdefault(name + "_calls", 0)
        return self._counter(name, fn)

    def _span(self, name, fn, counts, eager):
        stack, clock, spans = self._stack, self.clock, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and not stack[-1][0]:
                raise RuntimeError(f"span {name} opened inside an aggregate")
            parent = stack[-1][1] if stack else None
            frame = [True, len(spans), 0.0]
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                spans[frame[1]] = [self.run_id, frame[1], parent, name,
                                   start, end, frame[2]]
            if counts:
                self._add_counts(counts, args, kwargs, result)
            return iter(result) if eager else result

        return wrapper

    def _aggregate(self, name, fn, counts):
        stack, clock, totals = self._stack, self.clock, self.aggregates[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [False, None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]
            if counts:
                self._add_counts(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts, key = self.counts, name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "layers": self.layers,
                "spans": self.spans, "aggregates": self.aggregates,
                "counts": self.counts}


def covered(interval, children) -> float:
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Self seconds per span name: each span's duration minus the part its
    child spans cover and minus the time of aggregates called directly
    inside it."""
    children = {}
    for run_id, _, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault((run_id, parent), []).append((start, end))
    out = {}
    for run_id, span_id, _, name, start, end, agg_s in spans:
        busy = covered((start, end), children.get((run_id, span_id), ()))
        out[name] = out.get(name, 0.0) + (end - start) - busy - agg_s
    return out


def install(tracer: Tracer, modules) -> None:
    """Wrap every layer in ``LAYERS`` plus each suite function.

    A module-level function is replaced wherever an e8g3 module holds a
    reference to it, since ``from .x import f`` binds the name at import
    time in the importing module; methods are replaced on their class.
    """
    for mod_name, attr, layer, kind, counts in LAYERS:
        mod = modules[mod_name]
        owner, _, fname = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner)
            setattr(cls, fname, tracer.wrap(kind, layer, getattr(cls, fname),
                                            counts))
            continue
        original = getattr(mod, fname)
        wrapped = tracer.wrap(kind, layer, original, counts,
                              eager=(mod_name, fname) in EAGER)
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    suites = modules["suites"].SUITES
    for suite, fn in suites.items():
        suites[suite] = tracer.wrap(SPAN, f"suites.{suite}", fn)


def import_all():
    import e8g3

    names = [m.name for m in pkgutil.iter_modules(e8g3.__path__)
             if m.name != "__main__"]
    return {name: importlib.import_module(f"e8g3.{name}") for name in names}


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    modules = import_all()
    import_s = time.perf_counter() - start
    tracer = Tracer(f"{os.getpid()}:{' '.join(cli_args[:2])}")
    install(tracer, modules)
    try:
        return modules["cli"].main(cli_args)
    finally:
        payload = tracer.to_json()
        payload["import_s"] = import_s
        with open(spans_path, "w") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
