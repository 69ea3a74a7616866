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
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    check_flow,
    edge_subgraph,
    is_eulerian,
    lift_flow,
)
from .errors import InvariantViolation, NotFlowAdmissibleError, PreconditionError, ResourceCapExceeded
from .structure import (
    SignedCircuitWitness,
    _circuit_walk,
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


def _resolve_cap(cap: Optional[int], default: int = DEFAULT_NODE_CAP) -> int:
    """A search cap: the argument, else SG_RESOURCE_CAP, else ``default``
    (kernel nodes here, ditrail and tadpole steps for conversion).

    A cap below 1 is rejected; the kernels would read 0 as unlimited."""
    if cap is None:
        env = os.environ.get("SG_RESOURCE_CAP")
        if not env:
            return default
        try:
            cap = int(env)
        except ValueError:
            raise PreconditionError(f"SG_RESOURCE_CAP is not an integer: {env!r}") from None
    if cap < 1:
        raise PreconditionError(f"search cap must be at least 1, got {cap}")
    return cap


def solver_backend_name(backend: Optional[str] = None) -> str:
    """Name of the only search kernel, "python"; any other name is refused.

    The benchmark harness records the name and probes for other kernels."""
    if backend not in (None, "python"):
        raise PreconditionError(f"unknown backend {backend!r}")
    return "python"


def _search_layout(g: SignedGraph):
    """The assignment order and the kernel arrays, in one pass; read
    through the per-graph cache ``SignedGraph.search_layout``.

    The order lists edge ids in DFS discovery order.  Vertices are
    explored depth-first from the lowest id, smallest neighbour first;
    when a vertex is first visited, its not yet discovered incident edges
    are appended in ascending id order.  Those are its negative loops and
    its edges to unvisited vertices, since an edge is discovered with the
    first of its ends visited.  Clustering edges around vertices this way
    lets the kernel's slack prune close boundaries early.  A positive
    loop adds nothing to any boundary, so no search decides it: it is
    left out, and the searches give it the value 1.

    Per position, the typ/va/ca/vb/cb arrays (see _solver_py) describe
    that edge under the reference orientation.  Returns
    ``(order, (typ, va, ca, vb, cb))``, all tuples.
    """
    edges = g.edges
    incidence = g.incidence
    visited = [False] * g.num_vertices
    order: list[int] = []
    rows: list[tuple[int, int, int, int, int]] = []
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
            for eid, end in incidence[v]:
                e = edges[eid]
                if e.u == e.v:
                    if end == 0 and e.sign < 0:  # a loop lists both its half-edges at v
                        order.append(eid)
                        rows.append((1, v, 2, 0, 0))  # both half-edges point out
                    continue
                w = e.v if end == 0 else e.u
                if not visited[w]:
                    order.append(eid)
                    rows.append((0, e.u, 1, e.v, -e.sign))
                    nbrs.add(w)
            stack += sorted(nbrs, reverse=True)
    return tuple(order), tuple(zip(*rows)) or ((),) * 5


# search kind -> (kernel in _solver_py, what a capped search raises); the
# kernel is looked up by name at call time, so a wrapper bound there runs
_KINDS = {"Z_k": ("search_modulo", "Z_k-flow search"), "integer": ("search_integer", "k-flow search")}


def _search(
    g: SignedGraph, k: int, cap: Optional[int], stats: Optional[dict], kind: str
) -> Optional[list[int]]:
    """Run the ``kind`` kernel over g's arrays; per-edge values under the
    reference orientation, or None when the search space is exhausted.
    Positive loops, which the layout leaves out, get the value 1.

    At k = 2 a graph with a vertex of odd degree is answered None with no
    search: ``stats["nodes"]`` is 0 and ``stats["decided"]`` is
    "odd-degree".  A nowhere-zero 2-flow or Z_2-flow has an odd value on
    every edge, so each vertex's boundary is congruent to its degree mod 2
    (a loop counts 2), and an odd one is not 0 mod 2.

    A finished or decided answer is recorded in ``g.search_answers`` under
    (kind, k), and a later call on the same object returns it without a
    search, under any cap, since it walks no node: ``stats["nodes"]`` is
    then 0 and ``kind`` is appended to ``stats["reused"]``.  A capped
    search records nothing and raises ResourceCapExceeded."""
    if not (isinstance(k, int) and k >= 2):
        raise PreconditionError("k must be an integer >= 2")
    cap = _resolve_cap(cap)
    answers = g.search_answers
    if (kind, k) in answers:
        vals = answers[kind, k]
        if stats is not None:
            stats["nodes"] = 0
            stats.setdefault("reused", []).append(kind)
    elif k == 2 and not is_eulerian(g):
        vals = answers[kind, k] = None
        if stats is not None:
            stats.update(nodes=0, decided="odd-degree")
    else:
        order, arrays = g.search_layout
        kernel, what = _KINDS[kind]
        status, vals, nodes = getattr(_solver_py, kernel)(
            len(order), g.num_vertices, *arrays, k, cap)
        if stats is not None:
            stats["nodes"] = nodes
        if status == _solver_py.CAPPED:
            raise ResourceCapExceeded(what, cap=cap, spent=nodes)
        vals = answers[kind, k] = None if status == _solver_py.EXHAUSTED else tuple(vals)
    if vals is None:
        return None
    order = g.search_layout[0]
    per_edge = [1] * g.num_edges
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

    The Z_k search runs first: a k-flow read mod k is a Z_k-flow, since
    0 < |f| < k, so its exhaustion proves that none exists, on a much
    smaller tree.  The integer search runs only when a Z_k-flow exists or
    the Z_k search hits the cap, so every witness is its own.  Each search
    has the node cap to itself; a capped integer search raises
    ResourceCapExceeded.  ``stats["nodes"]`` counts the integer tree (0
    when the Z_k search decides), ``stats["zk_nodes"]`` the Z_k one; both
    are set before a capped integer search raises.  At k = 2 a vertex of
    odd degree rules out a Z_2-flow, so "none" is decided with no search
    and ``stats["decided"]`` says "odd-degree" (see ``_search``).  The
    integer search's pruning (a positive first branching value, no
    stranded last edge) cuts only branches without a flow; see
    ``_solver_py.search_integer``.

    Both answers are recorded on g (``_search``), the Z_k one shared with
    ``find_nz_zk_flow``.  A search answered from the record walks 0 nodes
    under any cap and is listed in ``stats["reused"]`` ("Z_k", "integer");
    the key is absent when every search ran.  When only the integer
    answer is recorded, no Z_k search runs, so one that hit the cap is
    not walked again.
    """
    zk: dict = {"nodes": 0}
    none = False
    answers = g.search_answers
    if ("integer", k) not in answers or ("Z_k", k) in answers:
        try:
            none = _search(g, k, cap, zk, "Z_k") is None
        except ResourceCapExceeded:
            pass
    if stats is not None:
        stats.update(zk, nodes=0, zk_nodes=zk["nodes"])
    per_edge = None if none else _search(g, k, cap, stats, "integer")
    return None if per_edge is None else FlowAssignment.from_signed(per_edge)


def find_nz_zk_flow(
    g: SignedGraph,
    k: int,
    cap: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Optional[FlowAssignment]:
    """Nowhere-zero modulo-k flow with values in 1..k-1, or None (exact).

    At k = 2 a vertex of odd degree decides "none" with no search, and
    ``stats["decided"]`` says "odd-degree".  The answer is recorded on g
    and shared with ``find_nz_k_flow``'s Z_k search; one read from the
    record walks 0 nodes under any cap and sets ``stats["reused"] =
    ["Z_k"]`` (see ``_search``)."""
    per_edge = _search(g, k, cap, stats, "Z_k")
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


def _chain_values(
    g: SignedGraph, walk, first_sign: int
) -> tuple[dict[int, int], int, int]:
    """Chain ±first_sign flow values along a walk of (eid, dep, arr) steps.

    Consecutive steps cancel at their shared vertex.  Returns the signed
    values (reference orientation), the contribution of the first step
    at the walk's start, and of the last step at the walk's end.
    """
    tau = Orientation.reference().directions(g)
    vals: dict[int, int] = {}
    dep_contrib = 0
    p = 0
    for i, (eid, dep, arr) in enumerate(walk):
        td = tau[eid][dep]
        ta = tau[eid][arr]
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
    if not is_eulerian(g):
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
    fa = FlowAssignment.from_signed(per_edge)
    res = check_flow(g, fa, FlowKind.integer(2))
    if not res.ok:
        raise InvariantViolation(f"constructed 2-flow invalid: {res.violation}")
    return fa


# ---------------------------------------------------------------------------
# signed circuit flows


def signed_circuit_flow(w: SignedCircuitWitness) -> FlowAssignment:
    """Flow supported exactly on a signed circuit: ±1 on a balanced
    circuit or a short barbell; on a long barbell ±1 on the two circuits
    and ±2 on the path.

    It is the ±1 flow of ``find_2_flow_on_even_graph`` on the witness's
    edges with the path taken twice, each path edge carrying the sum of
    its two copies.  With the path doubled every degree is even and the
    negative edges are even in number, so that flow exists.  The flows
    of a signed circuit form a one-dimensional space, so the circuit
    edges' ±1 forces ±2 on the path.  The sign is fixed so that the
    lowest edge id of the witness is positive under the reference
    orientation.

    The witness must carry its host graph, be a signed circuit of its
    stated kind with its stated path, and list each circuit in walking
    order; otherwise PreconditionError.
    """
    g = w.graph
    if g is None:
        raise PreconditionError("witness does not reference its host graph")
    check = classify_signed_circuit(g, w.edge_ids)
    if check is None or check.kind != w.kind or sorted(w.path or ()) != sorted(check.path or ()):
        raise PreconditionError("witness does not describe a signed circuit")
    for c in w.circuits:
        _circuit_walk(g, c)
    sub, _, eback = edge_subgraph(g, w.edge_ids + (w.path or ()))
    fa = find_2_flow_on_even_graph(sub)
    if fa is None:
        raise InvariantViolation("signed circuit with its path doubled has no 2-flow")
    per_edge = lift_flow(g, eback, fa, Orientation.reference()).values
    sign = -1 if per_edge[min(w.edge_ids)] < 0 else 1
    return FlowAssignment.from_signed(sign * f for f in per_edge)


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

    The edges are oriented one at a time, depth first, in the search
    kernels' assignment order (``SignedGraph.search_layout``).  A
    vertex is complete once all its edges are oriented, which happens at
    a fixed depth whatever the signs.  For a set X of complete vertices,
    sum each edge's coefficients over X and split them by sign into out
    and in.  Zero boundary on X with every
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

    Identical parallel edges (equal `Edge`s: same ends in the same order,
    same sign, such as repeated negative loops at one vertex) other than
    the lowest LP edge are twins.  Swapping two twins' orientations swaps
    two LP columns, so both leaves have the same set ratios and the same
    optimum t.  Twins are oriented in ascending id order, and the search
    refuses −1 for a twin while the one oriented just before it is +1, so
    it keeps only orientations whose reversed twins are the lowest ids of
    their class.  Of the leaves a twin swap relates, the kept one has the
    least sorted tuple of reversed ids, so the least pair of t and
    reversed ids is always a kept leaf, and the answer and witness are
    unchanged.

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
    layout, (typ, va, ca, vb, cb) = g.search_layout
    lp_edges = sorted(layout)  # every edge but the positive loops
    if not lp_edges:
        # only positive loops (or no edges at all): every value may be 1
        fa = FlowAssignment(Orientation.reference(), (1,) * g.num_edges)
        return FlowNumbers(phi_c=Fraction(2), witnesses={"phi_c": fa})
    if phi_i in (None, 2):  # a verified phi_i above 2 rules out a 2-flow
        fa2 = find_nz_k_flow(g, 2)
        if fa2 is not None:
            return FlowNumbers(phi_c=Fraction(2), witnesses={"phi_c": fa2})
    mlp = len(lp_edges)
    pos_of = {eid: pos for pos, eid in enumerate(lp_edges)}
    order = [pos_of[eid] for eid in layout]
    # per LP edge, its (vertex, coefficient) pairs under the reference
    # orientation: the kernels' row of a non-loop (typ 0) or a negative
    # loop (typ 1); reversing the edge negates them
    ref: list[tuple[tuple[int, int], ...]] = [()] * mlp
    for i, eid in enumerate(layout):
        pairs = ((va[i], ca[i]), (vb[i], cb[i]))
        ref[pos_of[eid]] = pairs if typ[i] == 0 else pairs[:1]
    at: dict[int, list[tuple[int, int]]] = {}  # vertex -> (lp edge, coefficient)
    for pos, pairs in enumerate(ref):
        for v, c0 in pairs:
            at.setdefault(v, []).append((pos, c0))
    depth = [0] * mlp
    for i, pos in enumerate(order):
        depth[pos] = i
    # Per position, its twin oriented just before it, or -1; position 0
    # has no twins.  The layout lists twins in ascending id order.
    prev_twin = [-1] * mlp
    last: dict = {}
    for pos in order:
        if pos:
            e = g.edges[lp_edges[pos]]
            prev_twin[pos] = last.get(e, -1)
            last[e] = pos
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
        twin = prev_twin[pos]
        for s, nhi, nlo in ((1, hi1, lo1),) if pos == 0 else ((1, hi1, lo1), (-1, hi2, lo2)):
            if nlo == 0 if bound is None else nhi * bound[1] > bound[0] * nlo:
                continue
            if s < 0 and twin >= 0 and sign[twin] > 0:
                continue  # a kept leaf's LP with two columns swapped
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
