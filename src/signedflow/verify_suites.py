"""Theorem-verification suites over graph corpora.

Each suite sweeps a filtered corpus, asserts the corresponding statement
with zero tolerance, and reports failures with enough material to
reproduce them.  Suites share one report shape and can distribute items
over a process pool; aggregation is keyed by item index, so summaries
are byte-identical regardless of worker count or completion order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from math import ceil
from typing import Callable, Optional, Sequence

from .core import (
    FlowAssignment,
    FlowKind,
    SignedGraph,
    check_flow,
    is_eulerian,
    serialize_graph,
)
from .errors import InvariantViolation, PreconditionError, ResourceCapExceeded
from .structure import (
    DEFAULT_SEARCH_CAP,
    find_long_barbell,
    is_flow_admissible,
    three_edge_coloring,
)
from . import solve, transform

__all__ = [
    "SUITES",
    "SuiteReport",
    "flow_parity_ok",
    "run_suite",
]


def flow_parity_ok(g: SignedGraph, fa: FlowAssignment) -> bool:
    """The number of negative edges with odd flow value is always even."""
    odd_neg = sum(
        1 for e, v in zip(g.edges, fa.values) if e.sign < 0 and int(v) % 2 != 0
    )
    return odd_neg % 2 == 0


@dataclass
class SuiteReport:
    suite: str
    items: int = 0
    checked: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "items": self.items,
                "checked": self.checked,
                "skipped": self.skipped,
                "failures": self.failures,
                "notes": {k: self.notes[k] for k in sorted(self.notes)},
                "ok": self.ok,
            },
            indent=2,
            sort_keys=True,
        )


def _fail(g: SignedGraph, detail: str) -> dict:
    return {"graph": serialize_graph(g), "detail": detail}


def _bump(notes: dict, key: str, amount: int = 1) -> None:
    notes[key] = notes.get(key, 0) + amount


def _merge_notes(into: dict, extra: dict) -> None:
    for key, val in extra.items():
        into[key] = into.get(key, 0) + val


def _pool_entry(args):
    fn, idx, g = args
    return idx, fn(g)


def _map_items(fn: Callable, graphs: Sequence[SignedGraph], workers: int):
    """Apply fn to every graph; order of results always follows input order."""
    if workers <= 1:
        return [fn(g) for g in graphs]
    import multiprocessing  # not at module level: it adds ~1 MB to every import of signedflow

    jobs = [(fn, i, g) for i, g in enumerate(graphs)]
    with multiprocessing.Pool(workers) as pool:
        indexed = list(pool.imap_unordered(_pool_entry, jobs, chunksize=4))
    indexed.sort(key=lambda t: t[0])
    return [r for _, r in indexed]


def _collect(
    suite: str, graphs: Sequence[SignedGraph], item_fn: Callable, workers: int
) -> SuiteReport:
    report = SuiteReport(suite=suite, items=len(graphs))
    for result in _map_items(item_fn, graphs, workers):
        if result is None:
            report.skipped += 1
            continue
        report.checked += result.get("checked", 1)
        report.failures.extend(result.get("failures", ()))
        _merge_notes(report.notes, result.get("notes", {}))
    return report


def _admissible_barbell_free(g: SignedGraph) -> bool:
    return bool(is_flow_admissible(g)) and find_long_barbell(g) is None


# ---------------------------------------------------------------------------
# individual suites: each item function takes one graph and the node cap

MOD_INT_KS = (3, 5, 6, 7)
CONVERSION_KS = (3, 5, 7)
TWO_FLOW_K_MAX = 6
PHI_EDGE_CAP = 12


def _six_flow_item(g: SignedGraph, cap: Optional[int]):
    """Every admissible barbell-free graph admits a nowhere-zero 6-flow."""
    if not _admissible_barbell_free(g):
        return None
    failures = []
    notes: dict = {}
    fa = solve.find_nz_k_flow(g, 6, cap=cap)
    if fa is None:
        failures.append(_fail(g, "no nowhere-zero 6-flow found (exhaustive)"))
    else:
        res = check_flow(g, fa, FlowKind.integer(6))
        if not res.ok:
            failures.append(_fail(g, f"witness fails validation: {res.violation}"))
        if not flow_parity_ok(g, fa):
            failures.append(_fail(g, "odd-value parity violated"))
            _bump(notes, "parity-violations")
    return {"failures": failures, "notes": notes}


def _mod_int_item(g: SignedGraph, cap: Optional[int]):
    """Modulo-k and integer-k solvability agree (k = 3 or k >= 5).

    "No Z_k-flow => no k-flow" holds by construction: find_nz_k_flow runs
    the Z_k search first and answers None when it exhausts, here from the
    answer find_nz_zk_flow has just recorded on g, at 0 nodes.  The
    direction this item tests is "Z_k-flow => k-flow"."""
    if not _admissible_barbell_free(g):
        return None
    failures = []
    notes: dict = {}
    checked = 0
    for k in MOD_INT_KS:
        zk = solve.find_nz_zk_flow(g, k, cap=cap)
        kk = solve.find_nz_k_flow(g, k, cap=cap)
        checked += 1
        if (zk is None) != (kk is None):
            failures.append(
                _fail(g, f"k={k}: Z_k {'yes' if zk else 'no'} but integer "
                         f"{'yes' if kk else 'no'}")
            )
        if kk is not None:
            _bump(notes, f"k={k}-flows")
            if not flow_parity_ok(g, kk):
                failures.append(_fail(g, f"k={k}: odd-value parity violated"))
    return {"failures": failures, "notes": notes, "checked": checked}


def _conversion_item(g: SignedGraph, cap: Optional[int]):
    """Every modulo-k flow on a barbell-free graph converts to integer k (odd k)."""
    if find_long_barbell(g) is not None:
        return None
    failures = []
    notes: dict = {}
    checked = 0
    for k in CONVERSION_KS:
        zk = solve.find_nz_zk_flow(g, k, cap=cap)
        if zk is None:
            continue
        checked += 1
        try:
            out, _ = transform.run_modflow_conversion(g, zk, k, cap=cap)
        except InvariantViolation as exc:
            failures.append(_fail(g, f"k={k}: invariant violation: {exc}"))
            _bump(notes, "invariant-aborts")
            continue
        res = check_flow(g, out, FlowKind.integer(k))
        if not res.ok:
            failures.append(_fail(g, f"k={k}: output fails: {res.violation}"))
            continue
        if out.orientation != zk.orientation:
            failures.append(_fail(g, f"k={k}: orientation changed"))
            continue
        if any((int(a) - int(b)) % k for a, b in zip(out.values, zk.values)):
            failures.append(_fail(g, f"k={k}: congruence mod {k} broken"))
        if not flow_parity_ok(g, out):
            failures.append(_fail(g, f"k={k}: odd-value parity violated"))
        _bump(notes, f"k={k}-converted")
    return {"failures": failures, "notes": notes, "checked": checked}


def _two_flow_item(g: SignedGraph, cap: Optional[int]):
    """Positive k-flows split into k-1 nonnegative 2-flows summing exactly."""
    if not _admissible_barbell_free(g):
        return None
    failures = []
    notes: dict = {}
    checked = 0
    for k in range(2, TWO_FLOW_K_MAX + 1):
        fa = solve.find_nz_k_flow(g, k, cap=cap)
        if fa is None:
            continue
        checked += 1
        if not flow_parity_ok(g, fa):
            failures.append(_fail(g, f"k={k}: odd-value parity violated"))
        try:
            parts = transform.decompose_into_2_flows(g, fa, k)
        except InvariantViolation as exc:
            failures.append(_fail(g, f"k={k}: decomposition failed: {exc}"))
            continue
        if len(parts) != k - 1:
            failures.append(_fail(g, f"k={k}: {len(parts)} parts"))
        _bump(notes, f"k={k}-decomposed")
    return {"failures": failures, "notes": notes, "checked": checked}


def _eulerian_item(g: SignedGraph, cap: Optional[int]):
    """Admissible eulerian barbell-free graphs with an even number of
    negative edges split into balanced circuits and short barbells.
    The decomposition is polynomial, so ``cap`` bounds nothing here."""
    if not (is_eulerian(g) and len(g.negative_edges) % 2 == 0 and _admissible_barbell_free(g)):
        return None
    failures = []
    notes: dict = {}
    try:
        dec = transform.eulerian_decompose(g)
    except (PreconditionError, InvariantViolation) as exc:
        return {"failures": [_fail(g, f"decomposition failed: {exc}")]}
    used = sorted(i for w in dec.members for i in w.edge_ids)
    if used != list(range(g.num_edges)):
        failures.append(_fail(g, "members do not partition the edges"))
    for w in dec.members:
        if w.kind == "balanced-circuit":
            _bump(notes, "balanced-circuits")
        elif w.kind == "short-barbell":
            _bump(notes, "short-barbells")
        else:
            failures.append(_fail(g, f"member of kind {w.kind}"))
    return {"failures": failures, "notes": notes}


def _phi_item(g: SignedGraph, cap: Optional[int]):
    """ceil(circular flow number) equals the integer flow number on
    barbell-free graphs; the gap is recorded in the notes otherwise.  The
    circular witness is also pushed through grid normalization and the
    terminal structure checked (empty residue when barbell-free)."""
    if not bool(is_flow_admissible(g)):
        return None
    failures = []
    notes: dict = {}
    barbell_free = find_long_barbell(g) is None
    try:
        numbers = solve.flow_numbers(g, k_max=8, edge_cap=PHI_EDGE_CAP, cap=cap)
    except ResourceCapExceeded:
        return {"failures": [], "notes": {"capped": 1}, "checked": 0}
    phi_c = numbers.phi_c
    phi_i = numbers.phi_i
    if phi_i is None:
        failures.append(_fail(g, "no integer flow number within k_max=8"))
        return {"failures": failures}
    gap = phi_i - ceil(phi_c)
    if barbell_free:
        if gap != 0:
            failures.append(
                _fail(g, f"ceil(phi_c)={ceil(phi_c)} but phi_i={phi_i}")
            )
    else:
        _bump(notes, f"barbell-gap={gap}")
    # normalization structure check on the exact circular witness
    witness = numbers.witnesses["phi_c"]
    ratio = phi_c - 1
    p, q = ratio.numerator, ratio.denominator
    try:
        state = transform.normalize_circular_flow(g, witness, p, q)
    except InvariantViolation as exc:
        failures.append(_fail(g, f"normalization invariant violation: {exc}"))
        return {"failures": failures, "notes": notes, "checked": 2}
    if barbell_free and state.off_grid:
        failures.append(
            _fail(g, f"barbell-free graph left off-grid edges {sorted(state.off_grid)}")
        )
    _bump(notes, "residual-empty" if not state.off_grid else "residual-nonempty")
    return {"failures": failures, "notes": notes, "checked": 2}


def _cubic_item(g: SignedGraph, cap: Optional[int]):
    """On admissible barbell-free cubic graphs: Z_4-flow iff 3-edge-colorable."""
    if any(g.degree(v) != 3 for v in range(g.num_vertices)):
        return None
    if any(e.u == e.v for e in g.edges):
        return None
    if not _admissible_barbell_free(g):
        return None
    failures = []
    notes: dict = {}
    z4 = solve.find_nz_zk_flow(g, 4, cap=cap)
    coloring = three_edge_coloring(g, solve._resolve_cap(cap, DEFAULT_SEARCH_CAP))
    if (z4 is None) != (coloring is None):
        failures.append(
            _fail(g, f"Z_4 {'yes' if z4 else 'no'} but 3-edge-coloring "
                     f"{'yes' if coloring else 'no'}")
        )
    _bump(notes, "colorable" if coloring is not None else "uncolorable")
    return {"failures": failures, "notes": notes}


SUITES: dict[str, Callable[..., Optional[dict]]] = {
    "six-flow": _six_flow_item,
    "mod-int-equiv": _mod_int_item,
    "conversion": _conversion_item,
    "two-flow-sum": _two_flow_item,
    "eulerian-decomp": _eulerian_item,
    "phi-equality": _phi_item,
    "cubic-z4": _cubic_item,
}


def run_suite(
    name: str,
    graphs: Sequence[SignedGraph],
    workers: int = 1,
    cap: Optional[int] = None,
) -> SuiteReport:
    """Run the named suite's item function over every graph."""
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    return _collect(name, list(graphs), partial(SUITES[name], cap=cap), workers)
