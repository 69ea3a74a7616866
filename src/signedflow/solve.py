"""Exact existence solvers: k-flows, Z_k-flows, flow numbers.

The k-flow and Z_k-flow searches run the backtracking kernels of
_solver_py over plain per-position arrays built here; a None from either
is an exactness claim, and tests/bruteforce.py holds the oracles they
are checked against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Edge,
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    boundary,
    check_flow,
)
from .errors import InvariantViolation, NotFlowAdmissibleError, PreconditionError, ResourceCapExceeded
from .structure import (
    SignedCircuitWitness,
    circuit_vertices,
    classify_signed_circuit,
    is_flow_admissible,
)
from . import _solver_py
from .simplex import INFEASIBLE, OPTIMAL, solve_lp

DEFAULT_NODE_CAP = 50_000_000
DEFAULT_EDGE_CAP_CIRCULAR = 20

__all__ = [
    "FlowNumbers",
    "find_nz_k_flow",
    "find_nz_zk_flow",
    "find_2_flow_on_even_graph",
    "signed_circuit_flow",
    "integer_flow_number",
    "circular_flow_number",
    "flow_numbers",
    "solver_backend_name",
]


def _resolve_cap(cap: Optional[int]) -> int:
    """The node cap: the argument, else SG_RESOURCE_CAP, else the default.

    A cap below 1 is rejected; the kernels would read 0 as unlimited."""
    if cap is None:
        env = os.environ.get("SG_RESOURCE_CAP")
        if not env:
            return DEFAULT_NODE_CAP
        try:
            cap = int(env)
        except ValueError:
            raise PreconditionError(f"SG_RESOURCE_CAP is not an integer: {env!r}") from None
    if cap < 1:
        raise PreconditionError(f"node cap must be at least 1, got {cap}")
    return cap


def solver_backend_name(backend: Optional[str] = None) -> str:
    """Name of the only search kernel, "python"; any other name is refused.

    The benchmark harness records the name and probes for other kernels."""
    if backend not in (None, "python"):
        raise PreconditionError(f"unknown backend {backend!r}")
    return "python"


def _assignment_order(g: SignedGraph) -> list[int]:
    """Edge positions in DFS discovery order.

    Vertices are explored depth-first from the lowest id, smallest
    neighbour first; when a vertex is first visited, its not yet
    discovered incident edges are appended in ascending id order.
    Clustering edges around vertices this way lets the kernel's slack
    prune close boundaries early.
    """
    order: list[int] = []
    seen = [False] * g.num_edges
    visited = [False] * g.num_vertices
    for root in range(g.num_vertices):
        if visited[root]:
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            nbrs = set()
            for eid, _end in g.incidence[v]:
                if not seen[eid]:
                    seen[eid] = True
                    order.append(eid)
                e = g.edges[eid]
                nbrs.add(e.v if e.u == v else e.u)
            for w in sorted(nbrs, reverse=True):
                if not visited[w]:
                    stack.append(w)
    return order


def _kernel_arrays(g: SignedGraph, order: list[int]):
    """typ/va/ca/vb/cb arrays (see _solver_py) under the reference orientation."""
    m = len(order)
    typ = [0] * m
    va = [0] * m
    ca = [0] * m
    vb = [0] * m
    cb = [0] * m
    for pos, eid in enumerate(order):
        e = g.edges[eid]
        if e.u == e.v:
            if e.sign < 0:
                typ[pos] = 1
                va[pos] = e.u
                ca[pos] = 2  # both half-edges point out
            else:
                typ[pos] = 2
                va[pos] = e.u
        else:
            typ[pos] = 0
            va[pos] = e.u
            vb[pos] = e.v
            ca[pos] = 1
            cb[pos] = -1 if e.sign > 0 else 1
    return typ, va, ca, vb, cb


def _positive_form(g: SignedGraph, per_edge: list[int]) -> FlowAssignment:
    """Signed reference-orientation values -> positive values + flip set."""
    rev = frozenset(i for i, v in enumerate(per_edge) if v < 0)
    return FlowAssignment(Orientation(rev), tuple(abs(v) for v in per_edge))


def _search(
    g: SignedGraph, k: int, cap: Optional[int], stats: Optional[dict], kernel, what: str
) -> Optional[list[int]]:
    """Run one kernel over g's arrays; per-edge values under the reference
    orientation, or None when the search space is exhausted."""
    if not (isinstance(k, int) and k >= 2):
        raise PreconditionError("k must be an integer >= 2")
    cap = _resolve_cap(cap)
    order = _assignment_order(g)
    typ, va, ca, vb, cb = _kernel_arrays(g, order)
    status, vals, nodes = kernel(len(order), g.num_vertices, typ, va, ca, vb, cb, k, cap)
    if stats is not None:
        stats["nodes"] = nodes
    if status == _solver_py.CAPPED:
        raise ResourceCapExceeded(what, cap=cap, spent=nodes)
    if status == _solver_py.EXHAUSTED:
        return None
    per_edge = [0] * g.num_edges
    for pos, eid in enumerate(order):
        per_edge[eid] = vals[pos]
    return per_edge


def find_nz_k_flow(
    g: SignedGraph,
    k: int,
    cap: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Optional[FlowAssignment]:
    """Nowhere-zero integer k-flow, or None when provably none exists.

    None is an exactness claim (the pruned search exhausted the whole
    value space); hitting the node cap raises ResourceCapExceeded.
    """
    per_edge = _search(g, k, cap, stats, _solver_py.search_integer, "k-flow search")
    return None if per_edge is None else _positive_form(g, per_edge)


def find_nz_zk_flow(
    g: SignedGraph,
    k: int,
    cap: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Optional[FlowAssignment]:
    """Nowhere-zero modulo-k flow with values in 1..k-1, or None (exact)."""
    per_edge = _search(g, k, cap, stats, _solver_py.search_modulo, "Z_k-flow search")
    return None if per_edge is None else FlowAssignment(Orientation.reference(), tuple(per_edge))


# ---------------------------------------------------------------------------
# eulerian 2-flows


def _eulerian_circuit(g: SignedGraph, used: list[bool], start: int):
    """Closed trail through every unused edge of start's component.

    Returns a list of (edge_id, depart_end, arrive_end) in walk order.
    Assumes every vertex of the component has even degree.
    """
    ptr = {}
    stack: list[tuple[int, Optional[tuple[int, int, int]]]] = [(start, None)]
    out: list[tuple[int, int, int]] = []
    while stack:
        v, via = stack[-1]
        inc = g.incidence[v]
        i = ptr.get(v, 0)
        while i < len(inc) and used[inc[i][0]]:
            i += 1
        ptr[v] = i
        if i == len(inc):
            stack.pop()
            if via is not None:
                out.append(via)
            continue
        eid, end = inc[i]
        used[eid] = True
        e = g.edges[eid]
        if e.u == e.v:
            stack.append((v, (eid, end, 1 - end)))
        else:
            w = e.v if end == 0 else e.u
            stack.append((w, (eid, end, 1 - end)))
    out.reverse()
    return out


def _ref_tau(e: Edge, end: int) -> int:
    if e.sign < 0:
        return 1
    return 1 if end == 0 else -1


def _chain_values(
    g: SignedGraph, walk, first_sign: int
) -> tuple[dict[int, int], int, int]:
    """Chain ±first_sign flow values along a walk of (eid, dep, arr) steps.

    Consecutive steps cancel at their shared vertex.  Returns the signed
    values (reference orientation), the contribution of the first step
    at the walk's start, and of the last step at the walk's end.
    """
    vals: dict[int, int] = {}
    dep_contrib = 0
    p = 0
    for i, (eid, dep, arr) in enumerate(walk):
        e = g.edges[eid]
        td = _ref_tau(e, dep)
        ta = _ref_tau(e, arr)
        if i == 0:
            f = first_sign * td  # depart contribution = first_sign
            dep_contrib = td * f
        else:
            f = -p * td
        vals[eid] = f
        p = ta * f
    return vals, dep_contrib, p


def find_2_flow_on_even_graph(g: SignedGraph) -> Optional[FlowAssignment]:
    """Nowhere-zero ±1 flow, existing iff every component is eulerian
    with an even number of negative edges.

    Constructive: each component is traversed along an eulerian circuit
    and values are chained so consecutive steps cancel; every negative
    edge flips the running polarity, so the circuit closes consistently
    exactly when the negative count is even.  None is definitive.
    """
    deg = [0] * g.num_vertices
    for e in g.edges:
        deg[e.u] += 1
        deg[e.v] += 1
    if any(d % 2 for d in deg):
        return None
    used = [False] * g.num_edges
    per_edge = [0] * g.num_edges
    for eid0 in range(g.num_edges):
        if used[eid0]:
            continue
        start = g.edges[eid0].u
        walk = _eulerian_circuit(g, used, start)
        if not walk:
            raise InvariantViolation("empty eulerian circuit on unused edge")
        vals, dep_contrib, p_last = _chain_values(g, walk, 1)
        if dep_contrib + p_last != 0:
            # circuit cannot close: the component has odd negatives
            neg = sum(1 for (eid, _, _) in walk if g.edges[eid].sign < 0)
            if neg % 2 == 0:
                raise InvariantViolation("closure failed on even-negative component")
            return None
        for eid, f in vals.items():
            per_edge[eid] = f
    fa = _positive_form(g, per_edge)
    res = check_flow(g, fa, FlowKind.integer(2))
    if not res.ok:
        raise InvariantViolation(f"constructed 2-flow invalid: {res.violation}")
    return fa


# ---------------------------------------------------------------------------
# signed circuit flows


def _walk_with_ends(g: SignedGraph, seq: tuple[int, ...], start: int):
    """Turn an edge-id trail into (eid, dep_end, arr_end) steps from start."""
    out = []
    v = start
    for eid in seq:
        e = g.edges[eid]
        if e.u == e.v:
            if v != e.u:
                raise PreconditionError("walk leaves its vertices")
            out.append((eid, 0, 1))
            continue
        if v == e.u:
            out.append((eid, 0, 1))
            v = e.v
        elif v == e.v:
            out.append((eid, 1, 0))
            v = e.u
        else:
            raise PreconditionError("walk edges not consecutive")
    return out, v


def _zero_boundary_or_raise(g: SignedGraph, per_edge: list) -> None:
    fa = FlowAssignment(Orientation.reference(), tuple(per_edge))
    bad = [v for v, b in enumerate(boundary(g, fa)) if b != 0]
    if bad:
        raise InvariantViolation(f"signed circuit flow has boundary at {bad}")


def signed_circuit_flow(w: SignedCircuitWitness) -> FlowAssignment:
    """Flow supported exactly on a signed circuit.

    Balanced circuit and short barbell get values ±1 (a 2-flow);
    a long barbell gets ±1 on the circuits and ±2 on the path.
    """
    g = w.graph
    if g is None:
        raise PreconditionError("witness does not reference its host graph")
    check = classify_signed_circuit(g, w.edge_ids)
    if check is None or check.kind != w.kind:
        raise PreconditionError("witness does not describe a signed circuit")
    per_edge: list[int] = [0] * g.num_edges

    def place(vals: dict[int, int]) -> None:
        for eid, f in vals.items():
            per_edge[eid] = f

    if w.kind == "balanced-circuit":
        seq = w.circuits[0]
        walk, _ = _walk_with_ends(g, seq, _circuit_start(g, seq))
        vals, dep, p_last = _chain_values(g, walk, 1)
        if dep + p_last != 0:
            raise InvariantViolation("balanced circuit failed to close")
        place(vals)
    elif w.kind == "short-barbell":
        c1, c2 = w.circuits
        meet = set(circuit_vertices(g, c1) & circuit_vertices(g, c2))
        if len(meet) != 1:
            raise PreconditionError("short barbell circuits must meet in one vertex")
        a = meet.pop()
        w1, _ = _walk_with_ends(g, _rotate_to(g, c1, a), a)
        w2, _ = _walk_with_ends(g, _rotate_to(g, c2, a), a)
        v1, d1, p1 = _chain_values(g, w1, 1)
        b1 = d1 + p1  # ±2 at the meet
        v2, d2, p2 = _chain_values(g, w2, 1)
        if d2 + p2 == b1:
            v2 = {eid: -f for eid, f in v2.items()}
        place(v1)
        place(v2)
    else:  # long barbell
        c1, c2 = w.circuits
        path = w.path or ()
        pverts_first = g.edges[path[0]]
        ends1 = circuit_vertices(g, c1)
        ends2 = circuit_vertices(g, c2)
        a = pverts_first.u if pverts_first.u in ends1 or pverts_first.u in ends2 else pverts_first.v
        # orient the path from the circuit containing a toward the other
        if a in ends1:
            ca_, cb_ = c1, c2
        else:
            ca_, cb_ = c2, c1
        wp, b = _walk_with_ends(g, path, a)
        wa, _ = _walk_with_ends(g, _rotate_to(g, ca_, a), a)
        wb, _ = _walk_with_ends(g, _rotate_to(g, cb_, b), b)
        va_, da, pa = _chain_values(g, wa, 1)
        ba = da + pa  # circuit boundary at a, ±2
        vp, dp, pp = _chain_values(g, wp, 1)
        vp = {eid: 2 * f for eid, f in vp.items()}
        dp, pp = 2 * dp, 2 * pp
        if dp == ba:  # path must cancel the circuit at a
            vp = {eid: -f for eid, f in vp.items()}
            dp, pp = -dp, -pp
        vb_, db, pb = _chain_values(g, wb, 1)
        if db + pb == pp:
            vb_ = {eid: -f for eid, f in vb_.items()}
        place(va_)
        place(vp)
        place(vb_)
    _zero_boundary_or_raise(g, per_edge)
    return _positive_form(g, per_edge)


def _circuit_start(g: SignedGraph, seq: tuple[int, ...]) -> int:
    """A vertex from which the circuit's edge sequence walks consecutively.

    The start of edge 0 is its endpoint not shared with edge 1; for
    digons and loops both choices work.
    """
    e0 = g.edges[seq[0]]
    if len(seq) == 1:
        return e0.u
    nxt = g.edges[seq[1]]
    shared = {e0.u, e0.v} & {nxt.u, nxt.v}
    if not shared:
        raise PreconditionError("circuit edges not consecutive")
    return e0.u if e0.v in shared else e0.v


def _rotate_to(g: SignedGraph, seq: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Rotate a circuit's edge sequence so it starts and ends at v."""
    n = len(seq)
    s0 = _circuit_start(g, seq)
    if n == 1:
        if s0 != v:
            raise PreconditionError("loop circuit does not touch rotation vertex")
        return seq
    verts = [s0]
    cur = s0
    for eid in seq:
        e = g.edges[eid]
        cur = e.v if cur == e.u else e.u
        verts.append(cur)
    if verts[-1] != s0:
        raise PreconditionError("edge sequence is not a closed circuit")
    for i in range(n):
        if verts[i] == v:
            return seq[i:] + seq[:i]
    raise PreconditionError("rotation vertex not on circuit")


# ---------------------------------------------------------------------------
# flow numbers


@dataclass
class FlowNumbers:
    """Integer and circular flow numbers with their witnesses.

    phi_i is None when no k ≤ k_max admits a flow; phi_c is None when
    not computed.  Witnesses are keyed "phi_i" / "phi_c" and re-verify
    under check_flow.
    """

    phi_i: Optional[int] = None
    phi_c: Optional[Fraction] = None
    witnesses: dict = field(default_factory=dict)


def integer_flow_number(
    g: SignedGraph,
    k_max: int = 8,
    cap: Optional[int] = None,
) -> FlowNumbers:
    """Smallest k ≤ k_max admitting a nowhere-zero k-flow, with witness.

    Raises NotFlowAdmissibleError up front when no k can ever work.
    phi_i None means every k ≤ k_max was exhausted without a flow.
    """
    if not (isinstance(k_max, int) and k_max >= 2):
        raise PreconditionError("k_max must be an integer >= 2")
    verdict = is_flow_admissible(g)
    if not verdict:
        raise NotFlowAdmissibleError(
            f"graph is not flow-admissible: {verdict.defects[0].kind}"
        )
    for k in range(2, k_max + 1):
        fa = find_nz_k_flow(g, k, cap=cap)
        if fa is not None:
            return FlowNumbers(phi_i=k, witnesses={"phi_i": fa})
    return FlowNumbers(phi_i=None)


def _orientation_coeffs(g: SignedGraph, lp_edges: list[int]):
    """Per lp-edge (vertex, coefficient) pairs under the reference orientation.

    A positive edge points out of u and into v, a negative edge out of
    both ends, and a negative loop gives its vertex 2.  Reversing an
    edge negates its coefficients.
    """
    ref = []
    for eid in lp_edges:
        e = g.edges[eid]
        if e.u == e.v:
            ref.append(((e.u, 2),))
        elif e.sign > 0:
            ref.append(((e.u, 1), (e.v, -1)))
        else:
            ref.append(((e.u, 1), (e.v, 1)))
    return ref


def _set_weight(g: SignedGraph, lp_edges: list[int], mask: int) -> int:
    """T = in + out of the vertex set `mask`, whatever the orientation.

    Each LP half-edge at the set counts 1, except that the two ends of a
    positive edge inside the set cancel."""
    total = 0
    for eid in lp_edges:
        e = g.edges[eid]
        ends = (mask >> e.u & 1) + (mask >> e.v & 1)
        if not (e.sign > 0 and ends == 2):
            total += ends
    return total


def _connected_sets(g: SignedGraph, lp_edges: list[int], size: int) -> list[int]:
    """Bitmasks of the vertex sets of at most `size` vertices that carry
    LP edges and are connected by non-loop LP edges, in ascending order."""
    adj = [0] * g.num_vertices
    layer = set()
    for eid in lp_edges:
        e = g.edges[eid]
        layer |= {1 << e.u, 1 << e.v}
        if e.u != e.v:
            adj[e.u] |= 1 << e.v
            adj[e.v] |= 1 << e.u
    found = set(layer)
    for _ in range(size - 1):
        grown = set()
        for mask in layer:
            reach = 0
            for v in range(g.num_vertices):
                if mask >> v & 1:
                    reach |= adj[v]
            reach &= ~mask
            while reach:
                low = reach & -reach
                grown.add(mask | low)
                reach ^= low
        layer = grown - found
        found |= layer
    return sorted(found)


# Largest connected vertex set the circular search checks.  On a
# relabelled signed Petersen, 4 cut leaf LPs from 912 to 697 with no
# slowdown; 5 saved one more LP and made each node dearer.
_SUBSET_SIZE = 4


def circular_flow_number(
    g: SignedGraph,
    edge_cap: int = DEFAULT_EDGE_CAP_CIRCULAR,
    stats: Optional[dict] = None,
) -> FlowNumbers:
    """Exact circular flow number by branch and bound over orientations.

    Positive loops take the value 1 and stay out of the search.  For an
    orientation of the other edges, an exact LP minimizes t subject to
    zero boundary and 1 ≤ f ≤ t; the flow number is 1 + the least t.
    Negating every edge leaves the optimum unchanged, so the lowest
    such edge stays unreversed.

    The edges are oriented one at a time, depth first, in
    `_assignment_order`.  A vertex is complete once all its edges are
    oriented, which happens at a fixed depth whatever the signs.  For a
    set X of complete vertices, sum each edge's coefficients over X and
    split them by sign into out and in.  Zero boundary on X with every
    value in [1, t] needs out·t ≥ in and in·t ≥ out, so
    t ≥ (T + |D|) / (T − |D|) with T = in + out and D = in − out (the
    vertex-cut bound of Goddyn, Tarsi and Zhang, necessary but not
    sufficient for signed graphs).  T does not depend on the
    orientation: it is the LP degree summed over X, less 2 for each
    positive non-loop edge inside X, and is tabulated once per call.  D
    is the sum of each vertex's in − out.  If X splits into parts with
    no edge between them, in and out add up, so the ratio of X is at
    most the larger ratio of its parts: connected sets suffice.  The
    search checks every connected set of at most `_SUBSET_SIZE`
    vertices, and the set of all complete vertices, at the depth where
    its last vertex completes, and keeps the largest ratio along the
    path.  A branch is cut when that ratio exceeds the best t so far,
    or some set has all its weight on one side.

    Cuts are strict, so every orientation that ties the best t survives
    them.  A leaf whose largest ratio equals the best t can at most tie
    it, so its LP is skipped when its reversed edge ids are larger than
    the best ones.  The result is the least pair of t and reversed edge
    ids: the answer and witness of a sweep over every orientation.

    `flow_numbers` starts the search from the bound phi_i − 1, which
    holds because every integer k-flow is a circular k-flow; the answer
    and witness are those of the unseeded search.  With `stats`, the
    numbers of leaf LPs solved and skipped as ties are stored under
    "lp_calls" and "tie_skips".
    """
    return _circular_flow_number(g, edge_cap, stats, None)


def _circular_flow_number(
    g: SignedGraph,
    edge_cap: int,
    stats: Optional[dict],
    phi_i: Optional[int],
) -> FlowNumbers:
    """circular_flow_number, optionally starting from the bound phi_i − 1.

    phi_i must be the graph's verified integer flow number."""
    verdict = is_flow_admissible(g)
    if not verdict:
        raise NotFlowAdmissibleError(
            f"graph is not flow-admissible: {verdict.defects[0].kind}"
        )
    if g.num_edges > edge_cap:
        raise ResourceCapExceeded(
            "circular flow number edge cap", cap=edge_cap, spent=g.num_edges
        )
    counts = {} if stats is None else stats
    counts.update(lp_calls=0, tie_skips=0)
    lp_edges = [i for i, e in enumerate(g.edges) if not (e.u == e.v and e.sign > 0)]
    if not lp_edges:
        # only positive loops (or no edges at all): every value may be 1
        fa = FlowAssignment(Orientation.reference(), (1,) * g.num_edges)
        return FlowNumbers(phi_c=Fraction(2), witnesses={"phi_c": fa})
    if phi_i in (None, 2):  # a verified phi_i above 2 rules out a 2-flow
        fa2 = find_nz_k_flow(g, 2)
        if fa2 is not None:
            return FlowNumbers(phi_c=Fraction(2), witnesses={"phi_c": fa2})
    ref = _orientation_coeffs(g, lp_edges)
    mlp = len(lp_edges)
    pos_of = {eid: pos for pos, eid in enumerate(lp_edges)}
    order = [pos_of[eid] for eid in _assignment_order(g) if eid in pos_of]
    at: dict[int, list[tuple[int, int]]] = {}  # vertex -> (lp edge, coefficient)
    for pos, pairs in enumerate(ref):
        for v, c0 in pairs:
            at.setdefault(v, []).append((pos, c0))
    depth = [0] * mlp
    for i, pos in enumerate(order):
        depth[pos] = i
    done_at = {v: max(depth[pos] for pos, _ in pairs) for v, pairs in at.items()}
    # Per depth, each set whose last vertex completes there: its vertices,
    # the coefficient c of that depth's edge summed over them, and T.
    # Orienting the edge with sign s moves the set's D by −s·c.
    checks: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(mlp)]
    family = set(_connected_sets(g, lp_edges, _SUBSET_SIZE))
    family |= {sum(1 << v for v in at if done_at[v] <= i) for i in done_at.values()}
    for mask in sorted(family):
        members = tuple(v for v in at if mask >> v & 1)
        i = max(done_at[v] for v in members)
        c = sum(c0 for v, c0 in ref[order[i]] if mask >> v & 1)
        checks[i].append((members, c, _set_weight(g, lp_edges, mask)))
    d = [0] * g.num_vertices  # in − out of each vertex's oriented half-edges
    sign = [1] * mlp
    a_ub = [[int(j == pos) for j in range(mlp)] + [-1] for pos in range(mlp)]
    b_ub = [0] * mlp
    cvec = [0] * mlp + [1]
    best: Optional[tuple[Fraction, tuple[int, ...], FlowAssignment]] = None
    # best t as numerator, denominator
    bound: Optional[tuple[int, int]] = None if phi_i is None else (phi_i - 1, 1)

    def leaf(hi: int, lo: int) -> None:
        nonlocal best, bound
        key = tuple(eid for pos, eid in enumerate(lp_edges) if sign[pos] < 0)
        if best is not None and hi * bound[1] == bound[0] * lo and key > best[1]:
            counts["tie_skips"] += 1
            return
        a_eq = []
        b_eq = []
        for v in sorted(at):
            arow = [0] * (mlp + 1)
            for pos, c0 in at[v]:
                arow[pos] = sign[pos] * c0
            a_eq.append(arow)
            b_eq.append(-sum(arow))
        counts["lp_calls"] += 1
        status, x, obj = solve_lp(cvec, a_eq, b_eq, a_ub, b_ub)
        if status == INFEASIBLE:
            return
        if status != OPTIMAL or x is None or obj is None:
            raise InvariantViolation(f"orientation LP returned {status}")
        t = 1 + obj
        if bound is not None and t * bound[1] > bound[0]:
            return
        if best is None or (t, key) < (best[0], best[1]):
            per_edge = [Fraction(1)] * g.num_edges  # positive loops keep 1
            for pos, eid in enumerate(lp_edges):
                per_edge[eid] = 1 + x[pos]
            best = (t, key, FlowAssignment(Orientation(frozenset(key)), tuple(per_edge)))
            bound = (t.numerator, t.denominator)

    def extend(i: int, hi: int, lo: int) -> None:
        # (hi, lo) = (T + |D|, T − |D|) of the checked set of largest ratio
        if i == mlp:
            leaf(hi, lo)
            return
        pos = order[i]
        # the checked set of largest ratio after orienting with s = 1 and s = −1
        hi1, lo1, hi2, lo2 = hi, lo, hi, lo
        for members, c, total in checks[i]:
            base = sum([d[v] for v in members])
            dx = abs(base - c)
            if (total + dx) * lo1 > hi1 * (total - dx):
                hi1, lo1 = total + dx, total - dx
            dx = abs(base + c)
            if (total + dx) * lo2 > hi2 * (total - dx):
                hi2, lo2 = total + dx, total - dx
        for s, nhi, nlo in ((1, hi1, lo1),) if pos == 0 else ((1, hi1, lo1), (-1, hi2, lo2)):
            if nlo == 0 if bound is None else nhi * bound[1] > bound[0] * nlo:
                continue
            sign[pos] = s
            for v, c0 in ref[pos]:
                d[v] -= s * c0
            extend(i + 1, nhi, nlo)
            for v, c0 in ref[pos]:
                d[v] += s * c0

    extend(0, 0, 1)
    if best is None:
        if phi_i is not None:
            raise InvariantViolation(
                f"no orientation reaches t <= {phi_i - 1} although phi_i={phi_i}"
            )
        raise InvariantViolation("no orientation admits a flow on an admissible graph")
    t, _, fa = best
    return FlowNumbers(phi_c=1 + t, witnesses={"phi_c": fa})


def flow_numbers(
    g: SignedGraph,
    k_max: int = 8,
    edge_cap: int = DEFAULT_EDGE_CAP_CIRCULAR,
    cap: Optional[int] = None,
    stats: Optional[dict] = None,
) -> FlowNumbers:
    """Both flow numbers of an admissible graph.

    The circular search starts from the bound phi_i − 1 (see
    circular_flow_number) and raises InvariantViolation when no
    orientation meets it; `stats` receives its counters."""
    fi = integer_flow_number(g, k_max=k_max, cap=cap)
    fc = _circular_flow_number(g, edge_cap, stats, fi.phi_i)
    out = FlowNumbers(phi_i=fi.phi_i, phi_c=fc.phi_c)
    out.witnesses.update(fi.witnesses)
    out.witnesses.update(fc.witnesses)
    return out
