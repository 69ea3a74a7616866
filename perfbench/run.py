#!/usr/bin/env python3
"""signedflow benchmark: closed-loop workloads with every answer checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is suites-58, circular-47, hard-search, or ``all`` (each workload in
its own process, one after the other).  One process, one thread and
``workers=1`` drive each workload; a round of items is sent one item at
a time, and the run stops at the first round boundary after --seconds.
The first rounds of every run form its digest prefix, which is always
completed.

--trace 0 reports the end-to-end metrics: set-up time (import plus
inputs, the median of several fresh builds), items per second over all
timed rounds, the median and tail time to a verdict over all items, and
peak memory.  The timed rounds are split into parts, one after each
build, so that they spread over the whole run.

--trace 1 sets up once, runs the digest prefix untraced and then twice
traced.  The two traced passes must agree on every verdict and on every
item's work counters (kernel nodes, LP calls, switches, minus steps,
pushes); the untraced pass must agree with them on every verdict and,
where the public API returns it, on the kernel nodes.  Per-layer calls,
counts and self times are reported from the first traced pass.  Spans
are written to perfbench/out/.

Every item's answer is checked against known values; at the default
seed the verdicts must also match the digest committed in
perfbench/digests.json (--record-digests rewrites that entry from a
--trace 1 run).  Any wrong answer makes the run exit with code 1; a
refused or impossible run exits with code 2 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import parity  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
DIGESTS = HERE / "digests.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# span name -> measures reported from the traced pass
LAYER_MEASURES = {
    "corpus.enumerate_signed_graphs": ("s",),
    "structure.is_flow_admissible": ("calls", "self_s"),
    "structure.find_long_barbell": ("calls", "self_s"),
    "structure.enumerate_circuits": ("calls", "circuits", "self_s"),
    "solve.find_nz_k_flow": ("calls", "nodes", "self_s"),
    "solve.find_nz_zk_flow": ("calls", "nodes", "self_s"),
    "kernel.search_integer": ("self_s",),
    "kernel.search_modulo": ("self_s",),
    "solve.circular_flow_number": ("calls", "self_s"),
    "solve.integer_flow_number": ("calls", "self_s"),
    "simplex.solve_lp": ("calls", "self_s"),
    "transform.run_modflow_conversion": ("calls", "self_s", "switches", "minus_steps"),
    "transform.decompose_into_2_flows": ("calls", "self_s"),
    "transform.eulerian_decompose": ("calls", "self_s", "members"),
    "transform.normalize_circular_flow": ("calls", "self_s", "pushes"),
    "certificates.verify_certificate": ("calls", "self_s", "rejected"),
    "core.check_flow": ("calls", "self_s"),
    "verify_suites.run_suite": ("self_s",),
}
KERNEL_SPANS = ("kernel.search_integer", "kernel.search_modulo")
MEASURE_UNITS = {"s": "s", "self_s": "s"}  # every other measure is a count
DERIVED_UNITS = {
    "kernel.nodes_per_s": "1/s",
    "simplex.solve_lp.optimal_frac": "frac",
    "trace.overhead_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{m}": MEASURE_UNITS.get(m, "count")
             for name, measures in LAYER_MEASURES.items() for m in measures}
    units.update(DERIVED_UNITS)
    return units


class Refused(Exception):
    """The run cannot or must not start; no result line is printed."""


# ---------------------------------------------------------------------------
# environment


def import_package(fresh: bool):
    """Import signedflow from this checkout's src/, re-executing it if fresh.

    A compiled extension module stays loaded: it cannot be re-initialised.
    """
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise Refused(f"no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            if not str(getattr(sys.modules[name], "__file__", "")).endswith((".so", ".pyd")):
                del sys.modules[name]
    sf = importlib.import_module(PACKAGE)
    if src not in Path(sf.__file__).resolve().parents:
        raise Refused(f"{PACKAGE} imported from {sf.__file__}, not from {src}")
    return sf


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(sf, workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git": git_revision(),
        "backend": sf.solver_backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# running items


@dataclass
class Record:
    round: int
    label: str
    verdict: object
    problems: list
    counters: dict
    secs: float

    @property
    def line(self) -> str:
        return f"{self.label} {json.dumps(self.verdict, sort_keys=True)}"


def run_rounds(rounds, min_rounds: int, seconds: float, tracer: Tracer | None = None,
               first: int = 0):
    """Run whole rounds, from round first on, until round min_rounds is
    done and seconds have passed; earlier rounds are generated and skipped.

    Returns the item records and the wall time of each round run.
    """
    records: list[Record] = []
    round_secs: list[float] = []
    for r, items in enumerate(rounds):
        if r < first:
            continue
        start = time.perf_counter()
        for label, run in items:
            if tracer is not None:
                tracer.item = label
            t0 = time.perf_counter()
            try:
                verdict, problems, counters = run()
            except Exception as exc:  # a raising item is a failed item; go on
                verdict, problems, counters = None, [f"raised {exc!r}"], {}
            records.append(Record(r, label, verdict, problems, counters,
                                  time.perf_counter() - t0))
        round_secs.append(time.perf_counter() - start)
        if r + 1 >= min_rounds and sum(round_secs) >= seconds:
            break
    if tracer is not None:
        tracer.item = None
    return records, round_secs


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile, in steps of 0.5, that keeps TAIL_BEYOND samples
    above it (nearest rank); the maximum, as percentile 100, when there
    are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in (x / 2 for x in range(199, 99, -1)):
        rank = ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def item_counters(rows: dict) -> dict:
    """The deterministic work counters of one item, from its traced spans."""
    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    return {
        "nodes": sum(get(name, "nodes") for name in KERNEL_SPANS),
        "lp_calls": get("simplex.solve_lp", "calls"),
        "switches": get("transform.run_modflow_conversion", "switches"),
        "minus_steps": get("transform.run_modflow_conversion", "minus_steps"),
        "pushes": get("transform.normalize_circular_flow", "pushes"),
    }


def committed_digest(workload, seed: int):
    """The committed entry for this workload, if it covers this run."""
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get(workload.name)
    if entry is None or entry["config"] != repr(workload) or entry["seed"] != seed:
        return None
    return entry


def check_digest(name: str, got: str, entry, problems: list, gate: bool) -> str:
    if entry is None:
        return f"{name} digest {got} (no committed digest for this seed)"
    if got == entry[name]:
        return f"{name} digest {got} matches the committed digest"
    if gate:
        problems.append(f"{name} digest {got} differs from the committed {entry[name]}")
    return (f"{name} digest {got} differs from the committed {entry[name]}"
            + ("" if gate else " (a change to the search moves these counts)"))


# ---------------------------------------------------------------------------
# the two kinds of run


def run_end_to_end(workload, seed: int, seconds: float):
    """workload.setup_repeats fresh set-ups, each followed by its share of
    the timed rounds, so that the timed part spreads over the whole run."""
    setup_times: list[float] = []
    records: list[Record] = []
    round_secs: list[float] = []
    repeats = workload.setup_repeats
    for rep in range(repeats):
        inputs = sf = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        sf = import_package(fresh=True)
        inputs = workload.setup(sf, seed)
        setup_times.append(time.perf_counter() - t0)
        share = seconds * (rep + 1) / repeats - sum(round_secs)
        more, secs = run_rounds(workload.rounds(sf, inputs, seed), workload.prefix_rounds,
                                share, first=len(round_secs))
        records += more
        round_secs += secs
    info, problems = parity.check(sf)
    secs = [r.secs for r in records]
    p, tail_s = tail(secs)
    prefix = [r.line for r in records if r.round < workload.prefix_rounds]
    info += [
        f"setup runs: {', '.join(f'{t:.4f}' for t in setup_times)} s",
        f"timed: {len(records)} items in {len(round_secs)} rounds, {sum(round_secs):.3f} s; "
        f"tail is p{p} of {len(records)} samples",
        check_digest("verdicts", digest(prefix), committed_digest(workload, seed),
                     problems, gate=True),
    ]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(records) / sum(round_secs),
        "verdict_p50_ms": statistics.median(secs) * 1e3,
        "verdict_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return sf, records, problems, info, metrics, END_TO_END_UNITS


def traced_pass(workload, sf, inputs, seed: int, tracer: Tracer):
    """The digest prefix on fresh inputs, traced if a tracer is given.

    Returns the records, the wall time, and the verdict and counter
    digests; the counter digest is None for an untraced pass.
    """
    rounds = workload.rounds(sf, inputs, seed)
    if tracer is None:
        records, secs = run_rounds(rounds, workload.prefix_rounds, 0.0)
        return records, sum(secs), digest(r.line for r in records), None
    with tracer.traced():
        records, secs = run_rounds(rounds, workload.prefix_rounds, 0.0, tracer)
    per_item = tracer.item_counts()
    counter_lines = [
        f"{r.label} {json.dumps(item_counters(per_item.get(r.label, {})), sort_keys=True)}"
        for r in records
    ]
    return records, sum(secs), digest(r.line for r in records), digest(counter_lines)


def run_traced(workload, seed: int, record: bool):
    sf = import_package(fresh=False)
    tracer = Tracer()
    with tracer.traced():
        inputs = workload.setup(sf, seed)
    info, problems = parity.check(sf)
    plain, plain_s, _, _ = traced_pass(workload, sf, inputs, seed, None)
    traced, traced_s, verdicts, counters = traced_pass(workload, sf, inputs, seed, tracer)
    again = traced_pass(workload, sf, inputs, seed, Tracer())
    if [(r.line, r.counters) for r in plain] != [(r.line, r.counters) for r in traced]:
        problems.append("the untraced and traced passes disagree on verdicts or kernel nodes")
    if (verdicts, counters) != again[2:]:
        problems.append("two traced passes disagree on verdicts or work counters")
    entry = committed_digest(workload, seed)
    info += [
        check_digest("verdicts", verdicts, entry, problems, gate=True),
        check_digest("counters", counters, entry, problems, gate=False),
    ]
    if record:
        write_digest(workload, seed, len(traced), verdicts, counters)
        info.append(f"recorded the {workload.name} digests in {DIGESTS.name}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans)
    info.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")

    agg = tracer.by_name()
    metrics = {}
    for name, measures in LAYER_MEASURES.items():
        for m in measures:
            metrics[f"{name}.{m}"] = agg.get(name, {}).get(m, 0)
    kernel_s = sum(agg.get(k, {}).get("self_s", 0.0) for k in KERNEL_SPANS)
    kernel_nodes = sum(agg.get(k, {}).get("nodes", 0) for k in KERNEL_SPANS)
    lp = agg.get("simplex.solve_lp", {})
    metrics["kernel.nodes_per_s"] = kernel_nodes / kernel_s if kernel_s else 0.0
    metrics["simplex.solve_lp.optimal_frac"] = (
        lp["optimal"] / lp["calls"] if lp.get("calls") else 0.0)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    return sf, plain + traced + again[0], problems, info, metrics, per_layer_units()


def write_digest(workload, seed: int, items: int, verdicts: str, counters: str) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[workload.name] = {"config": repr(workload), "seed": seed, "items": items,
                           "verdicts": verdicts, "counters": counters}
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command line


def run_one(workload, seed: int, seconds: float, trace: int, record: bool) -> int:
    if trace:
        sf, records, problems, info, metrics, units = run_traced(workload, seed, record)
    else:
        sf, records, problems, info, metrics, units = run_end_to_end(workload, seed, seconds)
    failed = [r for r in records if r.problems]
    print("meta " + json.dumps(metadata(sf, workload.name, seed, trace), sort_keys=True))
    for line in info:
        print(line)
    for r in failed[:20]:
        print(f"FAILED {r.label}: {'; '.join(r.problems)}")
    for p in problems:
        print(f"FAILED {p}")
    print(f"failed_frac {len(failed) / len(records):.6f} ({len(failed)} of {len(records)})")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        code = max(code, proc.returncode)
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="with --trace 1 at the default seed, rewrite the "
                         "workload's committed digests")
    args = ap.parse_args(argv)
    try:
        if "SG_RESOURCE_CAP" in os.environ:
            raise Refused("SG_RESOURCE_CAP is set; it changes the search caps "
                          "and so what counts as a failed item")
        if args.record_digests and (args.trace != 1 or args.seed != DEFAULT_SEED):
            raise Refused(f"--record-digests needs --trace 1 and --seed {DEFAULT_SEED}")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                       args.record_digests)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
