"""Outside-in tracer for the signedflow layers.

``Tracer.traced()`` wraps each function named in ``TARGETS`` for the
duration of a ``with`` block.  Names such as ``is_flow_admissible`` or
``check_flow`` are imported by name into several package modules, so
every ``signedflow.*`` module attribute that *is* the target function
object is rebound to the wrapper, and every one of them is restored in
``finally``.  No package source is touched.

Each wrapped call records one span ``(id, parent, item, name, start, end,
counts)`` in memory; self time is a span's duration minus the durations
of its direct children.  Counts come only from public parameters and
return values: kernel nodes from the ``stats=`` dict of the solve entry
points (supplied when the caller passed none) or from the kernel's
returned tuple, LP status from ``solve_lp``'s return value, and
switches, minus steps, pushes and members from returned states.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "signedflow"


def _nodes_from_stats(stats, _result):
    return {"nodes": stats["nodes"]}


def _kernel_nodes(_stats, result):
    return {"nodes": result[2]}


def _lp_status(_stats, result):
    return {"optimal": int(result[0] == "optimal")}


def _circuits(_stats, result):
    return {"circuits": len(result)}


def _conversion_journal(_stats, result):
    state = result[1]
    return {"switches": len(state.switch_log), "minus_steps": len(state.minus_log)}


def _members(_stats, result):
    return {"members": len(result.members)}


def _pushes(_stats, result):
    return {"pushes": len(result.pushes)}


def _rejected(_stats, result):
    return {"rejected": int(not result.ok)}


# (span name, defining module, function, counter or None)
TARGETS = (
    ("corpus.enumerate_signed_graphs", "corpus", "enumerate_signed_graphs", None),
    ("structure.is_flow_admissible", "structure", "is_flow_admissible", None),
    ("structure.find_long_barbell", "structure", "find_long_barbell", None),
    ("structure.enumerate_circuits", "structure", "enumerate_circuits", _circuits),
    ("solve.find_nz_k_flow", "solve", "find_nz_k_flow", _nodes_from_stats),
    ("solve.find_nz_zk_flow", "solve", "find_nz_zk_flow", _nodes_from_stats),
    ("solve.integer_flow_number", "solve", "integer_flow_number", None),
    ("solve.circular_flow_number", "solve", "circular_flow_number", None),
    ("kernel.search_integer", "_solver_py", "search_integer", _kernel_nodes),
    ("kernel.search_modulo", "_solver_py", "search_modulo", _kernel_nodes),
    ("kernel.search_integer", "_kernel", "search_integer", _kernel_nodes),
    ("kernel.search_modulo", "_kernel", "search_modulo", _kernel_nodes),
    ("simplex.solve_lp", "simplex", "solve_lp", _lp_status),
    ("transform.run_modflow_conversion", "transform", "run_modflow_conversion",
     _conversion_journal),
    ("transform.decompose_into_2_flows", "transform", "decompose_into_2_flows", None),
    ("transform.eulerian_decompose", "transform", "eulerian_decompose", _members),
    ("transform.normalize_circular_flow", "transform", "normalize_circular_flow",
     _pushes),
    ("certificates.verify_certificate", "certificates", "verify_certificate", _rejected),
    ("core.check_flow", "core", "check_flow", None),
    ("verify_suites.run_suite", "verify_suites", "run_suite", None),
)

# entry points whose node count arrives through a ``stats=`` dict
_STATS_PARAM = "stats"


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Span recorder; ``item`` labels the spans of the item being run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []

    # -- installation --------------------------------------------------

    @contextmanager
    def traced(self):
        patches = []
        try:
            for name, modname, fname, count in TARGETS:
                mod = sys.modules.get(f"{PACKAGE}.{modname}")
                if mod is None:  # the compiled kernel is optional
                    continue
                original = getattr(mod, fname)
                wrapper = self._wrap(name, original, count)
                for owner in package_modules():
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, counts) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.item, name, start, end, counts)

    def _wrap(self, name, fn, count):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # the span runs from the first next() to exhaustion; the
            # benchmark drains the generator with list() at once
            def gen_wrapper(*args, **kwargs):
                sid, parent = tracer._open()
                start = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, name, start, None)

            return gen_wrapper

        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):  # a compiled function may hide it
            params = []
        stats_pos = params.index(_STATS_PARAM) if _STATS_PARAM in params else None

        def wrapper(*args, **kwargs):
            stats = None
            if stats_pos is not None:
                if len(args) > stats_pos:
                    stats = args[stats_pos]
                    if stats is None:
                        stats = {}
                        args = args[:stats_pos] + (stats,) + args[stats_pos + 1:]
                else:
                    stats = kwargs.get(_STATS_PARAM)
                    if stats is None:
                        stats = kwargs[_STATS_PARAM] = {}
            sid, parent = tracer._open()
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(stats, result)
                return result
            finally:
                tracer._close(sid, parent, name, start, counts)

        return wrapper

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span, its duration minus its direct children's durations."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                out[s[1]] -= s[5] - s[4]
        return out

    def by_name(self) -> dict[str, dict]:
        """calls, s (inclusive), self_s and summed counts per span name."""
        agg: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        for s, self_s in zip(self.spans, self.self_times()):
            row = agg[s[3]]
            row["calls"] += 1
            row["s"] += s[5] - s[4]
            row["self_s"] += self_s
            for key, val in (s[6] or {}).items():
                row[key] += val
        return agg

    def item_counts(self) -> dict:
        """Per item label and span name, the calls and summed counts."""
        per: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        for s in self.spans:
            if s[2] is None:
                continue
            row = per[s[2]][s[3]]
            row["calls"] += 1
            for key, val in (s[6] or {}).items():
                row[key] += val
        return per

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                sid, parent, item, name, start, end, counts = s
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "item": item, "name": name,
                    "start": start, "end": end, "counts": counts,
                }) + "\n")

