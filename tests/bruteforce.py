"""Unpruned reference enumerators used as an independent oracle.

Everything here works straight off the edge list: build the half-edge
incidence matrix, enumerate every assignment, test the boundary; the
tadpole search likewise tries every tail and every head.  No code is
shared with the pruned solvers on purpose — agreement between the two
is one of the acceptance gates.  The one exception is the orientation
sweep for circular flow numbers: it calls the package's exact LP and
2-flow search, so that its witnesses can be compared byte for byte.
The pruned integer kernel is kept here too, as search_integer_reference,
with each of its rules a mode that can be left off: the kernel must walk
the same tree node for node.  Its last_slot mode adds the kernel's two
last-slot refusals as plain per-candidate tests, found by scanning the
positions still to come where the kernel reads them from a table.
search_modulo_reference is the modulo kernel's search as a plain
recursion that counts each end's unassigned slots by scanning the
positions still to come, and closes a last slot by trying every value:
the kernel must walk the same tree node for node.
subset_component_table and nowhere_zero_zk_flow_count count nowhere-zero
Z_k-flows by Beck and Zaslavsky's inclusion-exclusion over edge subsets,
the oracle for "no Z_k-flow" that shares no code with any search.
subset_bound is the circular search's vertex-cut bound over all 2^n
vertex sets, the oracle for the connected sets the search checks.
enumerate_signed_graphs_reference is the corpus enumerator as it was
before the degree-order prefilter, with its own connectivity,
canonical-form, automorphism and orbit code: the package's corpus must
stream exactly the same graphs.  Its _signature_classes, which marks
whole switching x automorphism orbits, is the oracle for the signature
step signedflow.corpus._signature_classes, which generates the pivot
normal form directly and compares only ties and automorphism images.
w5_all_signatures_reference is the 5-wheel's signature sweep as it was
before it used that step: every sign vector, each new one marking its
switching orbit.
degree_sorted_multisets_reference is the degree-order prefilter over
every edge multiset that the corpus's pruned generator replaced; kept
to those _connected_spanning accepts, it is the oracle for the
corpus's connected walk.
decompose_two_regular_reference is the 2-factor splitter the cubic tools
used before they shared the package's circuit peel.
three_edge_colorable_reference decides 3-edge-colourability by trying
all 3^m colourings, the oracle for the colouring search's answer;
is_proper_edge_coloring checks a colouring at every vertex.
classify_signed_circuit_reference is the signed-circuit classifier with
its own forced-walk tracer, as it was before it classified on the peel.
flow_admissibility_reference is the admissibility check as it was
before it flipped only candidate edges and counted inconsistent edges
per tree subtree: it rebuilds a graph for every edge flip and every edge
deletion, with its own component split and its own balance scan
(is_balanced_reference, the scan before it shared its potential spread).
find_nz_k_flow_reference is the integer k-flow search as it was before
it ran the Z_k search first, or decided k = 2 by degree parity: the
integer kernel alone, over the layout of search_layout_reference.
search_layout_reference is the search kernels' assignment order and
per-position arrays as they were built before the one-pass
solve._search_layout: a DFS that tracks discovered edges and neighbour
sets, then a second pass over the order for the arrays; positive loops,
which no search decides, are dropped from the order.
value_for_kind_reference is the certificate value decoder as it was
before plain integer literals skipped Fraction.
integer_none_outcome_reference is the certificate verifier's outcome on
"no integer k-flow" by that plain integer re-search.
signed_circuit_flow_reference is the signed-circuit flow as it was
built by hand before it became the 2-flow of the witness with its path
doubled: each circuit walked from the barbell's meeting vertex, the path
walked between the circuits, and the three chained to cancel.  It
shares only the 2-flow search's value chaining with the package.
find_long_barbell_reference is the long-barbell search as it was before
it decided by a balancing vertex and scanned the rest of the graph in
place: every unbalanced circuit, shortest first, with the rest built as
a graph (delete_vertices), split into component graphs and each tested
by is_balanced.
find_bridges_reference is the bridge search as it was before it read
the bridges off the admissibility check's spanning trees: Tarjan's
low-link DFS.
connected_components_reference is the component split as it was before
it read the components off those spanning trees: a DFS of its own.
switch_orientation and edge_boundary are no oracles but the two
bookkeeping laws the package relies on without a function of its own:
switching carries an orientation, and a flow with it, to the switched
graph, and vertex and edge boundaries cancel.

Size guard: 2(k-1) choices per edge, so k=4 with 6 edges is 6^6 = 46656
columns.  Keep inputs small.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

import numpy as np

from signedflow import _solver_py, simplex
from signedflow._solver_py import CAPPED, EXHAUSTED, FOUND
from signedflow.core import (
    Edge,
    FlowAssignment,
    Orientation,
    SignedGraph,
    connected_components,
    edge_subgraph,
    is_balanced,
)
from signedflow.certificates import VerifyOutcome, str_to_fraction
from signedflow.errors import PreconditionError, ResourceCapExceeded
from signedflow.solve import _chain_values, _resolve_cap, find_nz_k_flow
from signedflow.structure import (
    SignedCircuitWitness,
    _circuit_walk,
    _connecting_path,
    circuit_vertices,
    enumerate_circuits,
    is_unbalanced_circuit,
)

MAX_COLUMNS = 2_000_000


def incidence(g) -> np.ndarray:
    """Vertex-by-edge matrix of summed half-edge directions.

    Reference orientation: positive edge points u -> v (+1 at u, -1 at
    v), negative edge points out at both ends (+1, +1).  A positive
    loop therefore contributes 0, a negative loop 2.
    """
    a = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
    for j, e in enumerate(g.edges):
        tau_u = 1
        tau_v = -1 if e.sign > 0 else 1
        a[e.u, j] += tau_u
        a[e.v, j] += tau_v
    return a


def _value_grid(per_edge: list[list[int]]) -> np.ndarray:
    count = 1
    for options in per_edge:
        count *= len(options)
        if count > MAX_COLUMNS:
            raise ValueError(f"brute-force grid too large (> {MAX_COLUMNS})")
    if count == 0:
        return np.zeros((0, len(per_edge)), dtype=np.int64)
    return np.array(list(itertools.product(*per_edge)), dtype=np.int64)


def all_integer_k_flows(g, k: int) -> np.ndarray:
    """Every nowhere-zero integer k-flow, as signed values under the
    reference orientation.  Shape (count, num_edges)."""
    options = [v for v in range(-(k - 1), k) if v != 0]
    grid = _value_grid([options] * g.num_edges)
    if grid.shape[0] == 0:
        return grid
    b = incidence(g) @ grid.T
    return grid[np.all(b == 0, axis=0)]


def all_zk_flows(g, k: int) -> np.ndarray:
    """Every nowhere-zero Z_k-flow as residues 1..k-1 under the
    reference orientation (reversal maps v to k-v, so this sweep covers
    every orientation)."""
    grid = _value_grid([[v for v in range(1, k)]] * g.num_edges)
    if grid.shape[0] == 0:
        return grid
    b = incidence(g) @ grid.T
    return grid[np.all(b % k == 0, axis=0)]


def has_integer_k_flow(g, k: int) -> bool:
    return bool(all_integer_k_flows(g, k).shape[0])


def has_zk_flow(g, k: int) -> bool:
    return bool(all_zk_flows(g, k).shape[0])


def subset_component_table(g) -> Counter:
    """How many edge subsets S have each (|S|, b(S), u(S)): b and u count
    the balanced and unbalanced components of the spanning subgraph
    (V, S), an isolated vertex balanced.  A union-find keeps each
    vertex's sign parity to its root; an edge closing a cycle of odd
    parity, a negative loop included, unbalances its component."""
    n = g.num_vertices
    table = Counter()
    for mask in range(1 << g.num_edges):
        parent = list(range(n))
        parity = [0] * n  # sign parity of the path to parent
        unbalanced = [False] * n

        def find(x):
            p = 0
            while parent[x] != x:
                p ^= parity[x]
                x = parent[x]
            return x, p

        size = 0
        for j, e in enumerate(g.edges):
            if mask >> j & 1:
                size += 1
                (ru, pu), (rv, pv) = find(e.u), find(e.v)
                p = pu ^ pv ^ (e.sign < 0)
                if ru == rv:
                    unbalanced[ru] |= bool(p)
                else:
                    parent[ru], parity[ru] = rv, p
                    unbalanced[rv] |= unbalanced[ru]
        roots = [v for v in range(n) if parent[v] == v]
        u = sum(unbalanced[r] for r in roots)
        table[size, len(roots) - u, u] += 1
    return table


def nowhere_zero_zk_flow_count(g, k: int, table: Optional[Counter] = None) -> int:
    """The number of nowhere-zero Z_k-flows on g, by Beck and Zaslavsky's
    inclusion-exclusion: an edge subset S carries
    k^(|S| - n + b(S)) gcd(2, k)^u(S) Z_k-flows, zero values allowed, and
    the nowhere-zero count is the alternating sum over S by |E - S|.
    The table of subset_component_table(g) serves every k."""
    if table is None:
        table = subset_component_table(g)
    m, n = g.num_edges, g.num_vertices
    return sum(
        (-1) ** (m - size) * k ** (size - n + b) * gcd(2, k) ** u * count
        for (size, b, u), count in table.items()
    )


def boundary_of(g, orientation_flips, values) -> list:
    """Boundary recomputed from scratch (exact, Fraction-safe)."""
    acc = [Fraction(0)] * g.num_vertices
    for j, e in enumerate(g.edges):
        tau_u = 1
        tau_v = -1 if e.sign > 0 else 1
        if j in orientation_flips:
            tau_u, tau_v = -tau_u, -tau_v
        acc[e.u] += tau_u * Fraction(values[j])
        acc[e.v] += tau_v * Fraction(values[j])
    return acc


def negative_odd_count(g, values) -> int:
    """Number of negative edges carrying an odd value (the parity lemma
    says this is even for any integer flow)."""
    return sum(
        1 for j, e in enumerate(g.edges) if e.sign < 0 and int(values[j]) % 2 != 0
    )


def _half_edge_moves(g, dirs):
    """Per vertex: (edge, tau leaving here, far vertex, tau arriving there)
    for every half-edge, both ends of a loop included."""
    moves = [[] for _ in range(g.num_vertices)]
    for j, e in enumerate(g.edges):
        moves[e.u].append((j, dirs[j][0], e.v, dirs[j][1]))
        moves[e.v].append((j, dirs[j][1], e.u, dirs[j][0]))
    return moves


def tadpole_exists(g, dirs, x) -> bool:
    """Is there a tadpole with tail end x under half-edge directions dirs?

    Tail: a vertex-simple walk from x along edges that leave through +1
    and arrive through -1 (possibly empty).  Head: an edge-simple closed
    walk at the tail's far end v that leaves v through +1, leaves every
    vertex through the opposite of the direction it arrived by, returns
    to v through +1, and touches no other tail vertex.  Every tail is
    tried, every head searched to exhaustion.
    """
    moves = _half_edge_moves(g, dirs)

    def head_from(v, banned):
        used = set()

        def rec(w, need):
            for j, tau, far, arr in moves[w]:
                if j in used or tau != need or far in banned:
                    continue
                if far == v and arr == 1:
                    return True
                used.add(j)
                if rec(far, -arr):
                    return True
                used.discard(j)
            return False

        return rec(v, 1)

    def tails(v, verts):
        if head_from(v, verts - {v}):
            return True
        for j, tau, far, arr in moves[v]:
            if tau == 1 and arr == -1 and far not in verts:
                if tails(far, verts | {far}):
                    return True
        return False

    return tails(x, frozenset({x}))


def circular_sweep(g):
    """(phi_c, witness) of a flow-admissible graph by one exact LP per
    orientation, every orientation tried.

    Per orientation of the edges other than positive loops, minimize t
    subject to zero boundary and 1 <= f <= t; phi_c is 1 + the least t,
    and the witness is that of the least (t, reversed edge ids).  The
    lowest such edge is never reversed, since negating every edge keeps
    the optimum.  Orientations with a vertex whose half-edges all point
    one way are skipped without an LP; a 2-flow, when one exists, is the
    answer outright.
    """
    a = incidence(g)
    lp_edges = [i for i, e in enumerate(g.edges) if not (e.u == e.v and e.sign > 0)]
    if not lp_edges:
        return Fraction(2), FlowAssignment(Orientation.reference(), (1,) * g.num_edges)
    fa2 = find_nz_k_flow(g, 2)
    if fa2 is not None:
        return Fraction(2), fa2
    mlp = len(lp_edges)
    a_ub = [[int(j == pos) for j in range(mlp)] + [-1] for pos in range(mlp)]
    best = None
    for mask in range(1 << (mlp - 1)):
        signs = [1] + [-1 if mask >> b & 1 else 1 for b in range(mlp - 1)]
        rows = [
            [signs[pos] * int(a[v, eid]) for pos, eid in enumerate(lp_edges)] + [0]
            for v in range(g.num_vertices)
        ]
        rows = [row for row in rows if any(row)]
        if any(all(c >= 0 for c in row) or all(c <= 0 for c in row) for row in rows):
            continue
        status, x, obj = simplex.solve_lp(
            [0] * mlp + [1], rows, [-sum(row) for row in rows], a_ub, [0] * mlp
        )
        if status == simplex.INFEASIBLE:
            continue
        assert status == simplex.OPTIMAL
        key = tuple(eid for pos, eid in enumerate(lp_edges) if signs[pos] < 0)
        if best is None or (1 + obj, key) < best[:2]:
            values = [Fraction(1)] * g.num_edges
            for pos, eid in enumerate(lp_edges):
                values[eid] = 1 + x[pos]
            best = (1 + obj, key, FlowAssignment(Orientation(frozenset(key)), tuple(values)))
    t, _, fa = best
    return 1 + t, fa


def subset_bound(g, reversed_edges):
    """The vertex-cut bound over every vertex set, for one orientation.

    For each set X, sum every edge's coefficients over X (the reference
    orientation, negated on reversed edges) and split the sums by sign
    into out and in.  Returns whether some X has all its weight on one
    side, and the largest max(out/in, in/out) over the other sets with
    any weight (None when there is none).
    """
    a = incidence(g)
    for j in reversed_edges:
        a[:, j] = -a[:, j]
    one_sided, best = False, None
    for mask in range(1, 1 << g.num_vertices):
        c = a[[v for v in range(g.num_vertices) if mask >> v & 1]].sum(axis=0)
        out, into = int(c[c > 0].sum()), int(-c[c < 0].sum())
        if not out and not into:
            continue
        if not out or not into:
            one_sided = True
            continue
        ratio = Fraction(max(out, into), min(out, into))
        best = ratio if best is None else max(best, ratio)
    return one_sided, best


def search_integer_reference(
    m, n, typ, va, ca, vb, cb, k, cap, root_positive=False, last_slot=False
):
    """The integer kernel with its rules as modes: the oracle for
    signedflow._solver_py.search_integer, same arguments and statuses.

    Every candidate 1, -1, 2, -2, ... is applied and tested in turn, one
    node each; a branch is pruned when some touched vertex has
    |partial boundary| larger than the largest swing its unassigned
    edges can still produce.  With root_positive the first position
    tries only 1, 2, ..., k-1, and with last_slot a candidate is also
    refused when it leaves a touched vertex one unassigned slot that no
    value can close (see _last_slot_ok); search_integer follows both
    rules.  Returns (status, values, nodes)."""
    values = [0] * m
    bnd = [0] * n
    slack = [0] * n
    for i in range(m):
        t = typ[i]
        if t == 0:
            slack[va[i]] += k - 1
            slack[vb[i]] += k - 1
        elif t == 1:
            slack[va[i]] += 2 * (k - 1)
    num_vals = 2 * (k - 1)
    root = 0 if root_positive else m
    idx = [0] * (m + 1)
    nodes = 0
    pos = 0
    # slack for position pos is released on entry, restored on final backtrack
    if m == 0:
        return FOUND, values, 0
    _release(slack, typ, va, ca, vb, cb, 0, k)
    while True:
        i = idx[pos]
        t = typ[pos]
        limit = k - 1 if pos == root else num_vals
        if i >= limit:
            # undo slack release and step back
            _restore(slack, typ, va, ca, vb, cb, pos, k)
            idx[pos] = 0
            pos -= 1
            if pos < 0:
                return EXHAUSTED, values, nodes
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1
            continue
        if pos == root:
            val = i + 1
        else:
            val = (i // 2 + 1) * (1 if i % 2 == 0 else -1)
        nodes += 1
        if cap and nodes > cap:
            return CAPPED, values, nodes
        values[pos] = val
        ok = True
        if t == 0:
            a, b = va[pos], vb[pos]
            bnd[a] += ca[pos] * val
            bnd[b] += cb[pos] * val
            if abs(bnd[a]) > slack[a] or abs(bnd[b]) > slack[b]:
                ok = False
        elif t == 1:
            a = va[pos]
            bnd[a] += ca[pos] * val
            if abs(bnd[a]) > slack[a]:
                ok = False
        if ok and last_slot:
            ends = (va[pos],) if t == 1 else (va[pos], vb[pos])
            ok = all(_last_slot_ok(bnd, slack, typ, va, ca, vb, cb, pos, v, k) for v in ends)
        if ok:
            pos += 1
            if pos == m:
                return FOUND, values, nodes
            _release(slack, typ, va, ca, vb, cb, pos, k)
        else:
            _unapply(bnd, typ, va, ca, vb, cb, pos, values)
            idx[pos] += 1


def _last_slot_ok(bnd, slack, typ, va, ca, vb, cb, pos, v, k):
    """False when positions up to pos are assigned and v's only unassigned
    slot cannot be given a nonzero value: an ordinary edge (v, w) would
    need f = -c_v * bnd[v], which is zero or leaves w a boundary its
    other unassigned edges cannot absorb, or a negative loop would need
    2f = -bnd[v], with bnd[v] zero or odd."""
    rest = [
        q
        for q in range(pos + 1, len(typ))
        if (typ[q] == 0 and v in (va[q], vb[q])) or (typ[q] == 1 and va[q] == v)
    ]
    if len(rest) != 1:
        return True
    q = rest[0]
    if typ[q] == 1:
        return bnd[v] != 0 and bnd[v] % 2 == 0
    if bnd[v] == 0:
        return False
    if va[q] == v:
        c_v, w, c_w = ca[q], vb[q], cb[q]
    else:
        c_v, w, c_w = cb[q], va[q], ca[q]
    f = -c_v * bnd[v]
    return abs(bnd[w] + c_w * f) <= slack[w] - (k - 1)


def _release(slack, typ, va, ca, vb, cb, pos, k):
    t = typ[pos]
    if t == 0:
        slack[va[pos]] -= k - 1
        slack[vb[pos]] -= k - 1
    elif t == 1:
        slack[va[pos]] -= 2 * (k - 1)


def _restore(slack, typ, va, ca, vb, cb, pos, k):
    t = typ[pos]
    if t == 0:
        slack[va[pos]] += k - 1
        slack[vb[pos]] += k - 1
    elif t == 1:
        slack[va[pos]] += 2 * (k - 1)


def _unapply(bnd, typ, va, ca, vb, cb, pos, values):
    t = typ[pos]
    val = values[pos]
    if t == 0:
        bnd[va[pos]] -= ca[pos] * val
        bnd[vb[pos]] -= cb[pos] * val
    elif t == 1:
        bnd[va[pos]] -= ca[pos] * val


def search_modulo_reference(m, n, typ, va, ca, vb, cb, k, cap):
    """The modulo kernel's search, stated plainly: the oracle for
    signedflow._solver_py.search_modulo, same arguments and statuses.

    Positions are assigned in order, every value 1..k-1 tried in turn at
    each, one node each; a nonzero cap ends the search at node cap + 1.
    A value is refused when it leaves an end of its position unclosable
    (_closable_mod).  Returns (status, values, nodes), the values a
    witness only when the status is FOUND."""
    values = [0] * m
    bnd = [0] * n
    nodes = 0

    def rec(pos: int) -> Optional[int]:
        nonlocal nodes
        if pos == m:
            return FOUND
        t = typ[pos]
        ends = ((va[pos], ca[pos]), (vb[pos], cb[pos])) if t == 0 else ((va[pos], ca[pos]),)
        for val in range(1, k):
            nodes += 1
            if cap and nodes > cap:
                return CAPPED
            values[pos] = val
            for v, c in ends:
                bnd[v] += c * val
            if all(_closable_mod(bnd, typ, va, ca, vb, cb, pos, v, k) for v, _ in ends):
                status = rec(pos + 1)
                if status is not None:
                    return status
            for v, c in ends:
                bnd[v] -= c * val
        return None

    status = rec(0)
    return (EXHAUSTED if status is None else status), values, nodes


def _closable_mod(bnd, typ, va, ca, vb, cb, pos, v, k):
    """Whether v can still reach boundary 0 mod k once positions up to
    pos are assigned, judged only when at most one of v's slots is left:
    with none, its boundary must be 0 mod k; with one, some value 1..k-1
    on that slot must make it so."""
    slots = []  # v's coefficient on each of its unassigned slots
    for q in range(pos + 1, len(typ)):
        if typ[q] == 0:
            slots += [c for w, c in ((va[q], ca[q]), (vb[q], cb[q])) if w == v]
        elif typ[q] == 1 and va[q] == v:
            slots.append(ca[q])
    if not slots:
        return bnd[v] % k == 0
    if len(slots) > 1:
        return True
    return any((bnd[v] + slots[0] * f) % k == 0 for f in range(1, k))


# ---------------------------------------------------------------------------
# reference corpus enumeration


def _connected_spanning(n: int, pairs: tuple[tuple[int, int], ...]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = [False] * n
    for u, v in pairs:
        touched[u] = touched[v] = True
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    if not all(touched):
        return False
    root = find(0)
    return all(find(v) == root for v in range(n))


def _degree_sorting_orders(n: int, deg: list[int]) -> Iterator[tuple[int, ...]]:
    """Vertex orders listing degrees nondecreasingly (all tie rearrangements)."""
    by_deg = sorted(range(n), key=lambda v: (deg[v], v))
    blocks: list[list[int]] = []
    for v in by_deg:
        if blocks and deg[blocks[-1][0]] == deg[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        yield tuple(v for blk in choice for v in blk)


def _relabel_pairs(
    pairs: tuple[tuple[int, int], ...], pos: dict[int, int]
) -> tuple[tuple[int, int], ...]:
    out = []
    for u, v in pairs:
        a, b = pos[u], pos[v]
        out.append((a, b) if a <= b else (b, a))
    out.sort()
    return tuple(out)


def _canonical_pairs(n: int, pairs: tuple[tuple[int, int], ...]):
    """Lex-least relabeling among degree-sorted orders, plus its automorphisms.

    Returns (canonical pair tuple, list of vertex->position maps fixing it).
    """
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    best: Optional[tuple[tuple[int, int], ...]] = None
    maps: list[dict[int, int]] = []
    for order in _degree_sorting_orders(n, deg):
        pos = {v: i for i, v in enumerate(order)}
        cand = _relabel_pairs(pairs, pos)
        if best is None or cand < best:
            best = cand
            maps = [pos]
        elif cand == best:
            maps.append(pos)
    assert best is not None
    return best, maps


def _pair_automorphisms(n: int, pairs: tuple[tuple[int, int], ...]) -> list[tuple[int, ...]]:
    """Vertex permutations (as position tuples) preserving the pair multiset."""
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    auts = []
    for order in _degree_sorting_orders(n, deg):
        pos = {v: i for i, v in enumerate(order)}
        if _relabel_pairs(pairs, pos) == pairs:
            auts.append(tuple(pos[v] for v in range(n)))
    return auts


def _signature_normal_form(
    pairs: tuple[tuple[int, int], ...], signs: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted((u, v, s) for (u, v), s in zip(pairs, signs)))


def _signature_orbit(
    n: int,
    pairs: tuple[tuple[int, int], ...],
    nf: tuple[tuple[int, int, int], ...],
    auts: list[tuple[int, ...]],
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    subsets = [
        frozenset(s)
        for r in range(n)
        for s in itertools.combinations(range(1, n), r)
    ]
    for aut in auts:
        for sub in subsets:
            out = []
            for u, v, s in nf:
                if u != v and ((u in sub) != (v in sub)):
                    s = -s
                a, b = aut[u], aut[v]
                if a > b:
                    a, b = b, a
                out.append((a, b, s))
            out.sort()
            yield tuple(out)


def _signature_classes(
    n: int, pairs: tuple[tuple[int, int], ...], auts: list[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """One sign vector per switching x automorphism class, lex-first.

    Every sign pattern is visited, and the whole orbit of each class's
    first pattern is marked: the oracle for the corpus's signature step.
    """
    per_class: list[list[tuple[int, ...]]] = []
    start = 0
    while start < len(pairs):
        stop = start
        while stop < len(pairs) and pairs[stop] == pairs[start]:
            stop += 1
        size = stop - start
        opts = [(-1,) * j + (1,) * (size - j) for j in range(size, -1, -1)]
        opts.sort()
        per_class.append(opts)
        start = stop
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    for combo in itertools.product(*per_class):
        signs = tuple(s for part in combo for s in part)
        nf = _signature_normal_form(pairs, signs)
        if nf in seen:
            continue
        for img in _signature_orbit(n, pairs, nf, auts):
            seen.add(img)
        yield signs


def degree_sorted_multisets_reference(n: int, m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every multiset of m vertex pairs on n vertices, filtered by degree order.

    The walk the corpus enumerator made before it generated only the
    multisets whose vertex degrees (a loop counting 2) are nondecreasing.
    Filtered by _connected_spanning, it is the oracle for
    signedflow.corpus._connected_multisets, which must give the same
    tuples in the same order.
    """
    all_pairs = [(u, v) for u in range(n) for v in range(u, n)]
    for pairs in itertools.combinations_with_replacement(all_pairs, m):
        deg = [0] * n
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        if deg == sorted(deg):
            yield pairs


def w5_all_signatures_reference(g: SignedGraph) -> list[SignedGraph]:
    """Every switching class of the signatures of g, lex-first (+ < -).

    The 5-wheel's signature sweep as it was before it shared the corpus's
    signature step: every sign vector in lex order, each new one marking
    its orbit under all 2^(n-1) switchings.
    """
    n, m = g.num_vertices, g.num_edges
    flips = []
    for r in range(n):
        for sub in itertools.combinations(range(1, n), r):
            flips.append(tuple(-1 if (e.u in sub) != (e.v in sub) else 1 for e in g.edges))
    seen: set[tuple[int, ...]] = set()
    reps = []
    for signs in itertools.product((1, -1), repeat=m):
        if signs not in seen:
            reps.append(signs)
            seen.update(tuple(map(int.__mul__, signs, fl)) for fl in flips)
    return [SignedGraph(n, tuple(Edge(e.u, e.v, s) for e, s in zip(g.edges, signs)))
            for signs in reps]


def enumerate_signed_graphs_reference(max_v: int, max_e: int) -> Iterator[SignedGraph]:
    """All connected signed multigraphs within bounds, one per class.

    The enumerator as it was before the degree-order prefilter and the
    negative-count signature classes: every edge multiset is tested for
    connectivity and canonicity, and signature orbits are built from
    sorted (u, v, sign) normal forms.  The oracle for
    signedflow.corpus.enumerate_signed_graphs, whose stream must equal
    this one graph for graph.

    Classes are taken under vertex relabeling and switching together.
    Underlying multigraphs stream in (vertex count, edge count, edge
    list) order; signatures per graph stream lex-first.  Loops and
    parallel edges are included; the edgeless one-vertex graph is not.
    """
    # Edge is frozen, so every graph can share one object per (u, v, sign)
    interned: dict[tuple[int, int, int], Edge] = {}

    def edge(u: int, v: int, s: int) -> Edge:
        e = interned.get((u, v, s))
        if e is None:
            e = interned[u, v, s] = Edge(u, v, s)
        return e

    for n in range(1, max_v + 1):
        all_pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(max(1, n - 1), max_e + 1):
            for combo in itertools.combinations_with_replacement(all_pairs, m):
                pairs = tuple(combo)
                if not _connected_spanning(n, pairs):
                    continue
                canon, _maps = _canonical_pairs(n, pairs)
                if canon != pairs:
                    continue
                auts = _pair_automorphisms(n, pairs)
                for signs in _signature_classes(n, pairs, auts):
                    yield SignedGraph(
                        n, tuple(edge(u, v, s) for (u, v), s in zip(pairs, signs))
                    )


def is_proper_edge_coloring(g: SignedGraph, colors: Sequence[int]) -> bool:
    """No two half-edges at a vertex share a colour; signs ignored."""
    return all(
        len({colors[eid] for eid, _ in g.incidence[v]}) == g.degree(v) for v in range(g.num_vertices)
    )


def three_edge_colorable_reference(g: SignedGraph) -> bool:
    """Whether some proper 3-edge-colouring exists: a product over all 3^m
    colourings, each tested at every vertex."""
    return any(
        is_proper_edge_coloring(g, colors)
        for colors in itertools.product(range(3), repeat=g.num_edges)
    )


def decompose_two_regular_reference(
    g: SignedGraph, edge_ids
) -> Optional[list[tuple[int, ...]]]:
    """Split a 2-regular edge set into its circuits; None if not 2-regular.

    Each circuit starts at the smallest remaining edge, traversed from its
    stored u; the circuits come sorted shortest first, then by edge ids.
    The oracle for structure._peel_circuits on the edge sets it accepts."""
    remaining = set(edge_ids)
    out: list[tuple[int, ...]] = []
    while remaining:
        e0 = min(remaining)
        remaining.discard(e0)
        if g.edges[e0].is_loop:
            out.append((e0,))
            continue
        start, x = g.edges[e0].u, g.edges[e0].v
        seq = [e0]
        while x != start:
            cand = {eid for eid, _ in g.incidence[x] if eid in remaining}
            if len(cand) != 1:
                return None
            eid = cand.pop()
            if g.edges[eid].is_loop:
                return None
            seq.append(eid)
            remaining.discard(eid)
            x = g.edges[eid].other(x)
        out.append(tuple(seq))
    out.sort(key=lambda c: (len(c), c))
    return out


def _edge_set_connected(g: SignedGraph, edge_ids: Sequence[int]) -> bool:
    sub, _, _ = edge_subgraph(g, edge_ids)
    return len(connected_components(sub)) <= 1


def _forced_walks_from(
    g: SignedGraph, edge_ids: frozenset[int], start: int, stops: frozenset[int]
) -> list[tuple[tuple[int, ...], int]] | None:
    """Walk from ``start`` along each unused incident subgraph edge,
    forced through degree-2 vertices, halting at a vertex in ``stops``.

    Returns (edge sequence, terminus) per walk, or None when some walk is
    not forced (the degree structure is broken).  Every subgraph edge at
    ``start`` begins at most one walk: a returning walk consumes both of
    its end half-edges."""
    used: set[int] = set()
    walks = []
    for eid, _end in g.incidence[start]:
        if eid not in edge_ids or eid in used:
            continue
        seq = [eid]
        used.add(eid)
        x = g.edges[eid].other(start) if not g.edges[eid].is_loop else start
        while x not in stops:
            cand = {
                e2 for e2, _ in g.incidence[x] if e2 in edge_ids and e2 not in used
            }
            if len(cand) != 1:
                return None
            e2 = cand.pop()
            if g.edges[e2].is_loop:
                return None
            seq.append(e2)
            used.add(e2)
            x = g.edges[e2].other(x)
        walks.append((tuple(seq), x))
    return walks


def _trace_single_circuit(g: SignedGraph, edge_ids: Sequence[int]) -> tuple[int, ...] | None:
    """Trace a connected 2-regular edge set as one circuit; None if the
    trace does not cover every edge."""
    ids = frozenset(edge_ids)
    if len(ids) == 1:
        (eid,) = ids
        return (eid,) if g.edges[eid].is_loop else None
    start = min(min(g.edges[i].u, g.edges[i].v) for i in ids)
    walks = _forced_walks_from(g, ids, start, frozenset({start}))
    if walks is None or len(walks) != 1:
        return None
    seq, terminus = walks[0]
    if terminus != start or len(seq) != len(ids):
        return None
    return seq


def classify_signed_circuit_reference(
    g: SignedGraph, edge_ids: Sequence[int]
) -> SignedCircuitWitness | None:
    """Decide whether an edge set is a signed circuit and of which kind.

    Returns None for anything else (never raises for mathematically
    negative answers).  The classifier as it was before it was built on
    the circuit peel: a connectivity check on a rebuilt subgraph, then
    forced walks through degree-2 vertices, started at the smallest
    vertex, at the degree-4 vertex, or at the smaller degree-3 vertex."""
    ids = list(edge_ids)
    if len(ids) != len(set(ids)) or not ids:
        return None
    if any(not (0 <= i < g.num_edges) for i in ids):
        raise PreconditionError("edge id out of range")
    idset = frozenset(ids)
    deg: dict[int, int] = {}
    for i in ids:
        e = g.edges[i]
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    if not _edge_set_connected(g, ids):
        return None
    degs = sorted(deg.values(), reverse=True)
    if all(d == 2 for d in degs):
        seq = _trace_single_circuit(g, ids)
        if seq is None or is_unbalanced_circuit(g, seq):
            return None
        return SignedCircuitWitness("balanced-circuit", (seq,), graph=g)
    if degs[0] == 4 and all(d == 2 for d in degs[1:]):
        meet = next(v for v, d in deg.items() if d == 4)
        walks = _forced_walks_from(g, idset, meet, frozenset({meet}))
        if walks is None or len(walks) != 2:
            return None
        (c1, t1), (c2, t2) = walks
        if t1 != meet or t2 != meet or len(c1) + len(c2) != len(ids):
            return None
        if not (is_unbalanced_circuit(g, c1) and is_unbalanced_circuit(g, c2)):
            return None
        return SignedCircuitWitness("short-barbell", (c1, c2), graph=g)
    if degs[0] == 3 and degs[1] == 3 and all(d == 2 for d in degs[2:]):
        a, b = sorted(v for v, d in deg.items() if d == 3)
        walks_a = _forced_walks_from(g, idset, a, frozenset({a, b}))
        if walks_a is None:
            return None
        circ_a = [w for w, t in walks_a if t == a]
        paths = [w for w, t in walks_a if t == b]
        if len(circ_a) != 1 or len(paths) != 1:
            return None
        used = set(circ_a[0]) | set(paths[0])
        rest = idset - used
        if not rest:
            return None
        walks_b = _forced_walks_from(g, rest, b, frozenset({a, b}))
        if walks_b is None:
            return None
        circ_b = [w for w, t in walks_b if t == b]
        if len(walks_b) != 1 or len(circ_b) != 1 or set(circ_b[0]) != rest:
            return None
        c1, c2, path = circ_a[0], circ_b[0], paths[0]
        if not (is_unbalanced_circuit(g, c1) and is_unbalanced_circuit(g, c2)):
            return None
        return SignedCircuitWitness("long-barbell", (c1, c2), path, graph=g)
    return None


def is_balanced_reference(g: SignedGraph) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]]:
    """(potential, witness) by the balance scan as it was before it shared
    its potential spread with the admissibility check: one spanning tree
    per component, then the first inconsistent non-tree edge in id order
    closes the witness circuit through the tree."""
    potential = [0] * g.num_vertices
    parent: dict[int, tuple[int, int]] = {}
    for root in range(g.num_vertices):
        if potential[root]:
            continue
        potential[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for eid, _ in g.incidence[x]:
                e = g.edges[eid]
                if e.is_loop:
                    continue
                y = e.other(x)
                if not potential[y]:
                    potential[y] = potential[x] * e.sign
                    parent[y] = (eid, x)
                    stack.append(y)

    def chain_to_root(x: int) -> list[int]:
        out = []
        while x in parent:
            eid, x = parent[x]
            out.append(eid)
        return out

    tree_ids = {eid for eid, _ in parent.values()}
    for eid, e in enumerate(g.edges):
        if eid in tree_ids:
            continue
        if e.is_loop:
            if e.sign < 0:
                return None, (eid,)
            continue
        if e.sign != potential[e.u] * potential[e.v]:
            cu, cv = chain_to_root(e.u), chain_to_root(e.v)
            while cu and cv and cu[-1] == cv[-1]:
                cu.pop()
                cv.pop()
            return None, tuple(cu + cv[::-1]) + (eid,)
    return tuple(potential), None


def _component_graphs(g: SignedGraph):
    """(component, graph on it, vertex back map, edge back map) per
    connected component, vertices and edges renumbered in id order."""
    comp_of = list(range(g.num_vertices))

    def find(x: int) -> int:
        while comp_of[x] != x:
            comp_of[x] = comp_of[comp_of[x]]
            x = comp_of[x]
        return x

    for e in g.edges:
        a, b = find(e.u), find(e.v)
        if a != b:
            comp_of[max(a, b)] = min(a, b)
    comps: dict[int, list[int]] = {}
    for v in range(g.num_vertices):
        comps.setdefault(find(v), []).append(v)
    for comp in comps.values():
        vmap = {v: i for i, v in enumerate(comp)}
        eback = tuple(i for i, e in enumerate(g.edges) if e.u in vmap)
        sub = SignedGraph(
            len(comp),
            tuple(Edge(vmap[g.edges[i].u], vmap[g.edges[i].v], g.edges[i].sign) for i in eback),
        )
        yield tuple(comp), sub, tuple(comp), eback


def flow_admissibility_reference(g: SignedGraph):
    """The admissibility verdict by Bouchet's characterization, read off
    literally: per component, flip every edge in turn and rebuild the
    graph to test balance (the first flip that balances it gives the
    one-negative-edge defect and its switch set), else delete every edge
    in turn and, where that splits the component (a bridge), test both
    sides for balance.  The oracle for structure._flow_admissibility."""
    from signedflow.structure import AdmissibilityVerdict, ComponentDefect

    defects = []
    for comp, sub, vback, eback in _component_graphs(g):
        for i, e in enumerate(sub.edges):
            flipped = SignedGraph(
                sub.num_vertices, sub.edges[:i] + (Edge(e.u, e.v, -e.sign),) + sub.edges[i + 1 :]
            )
            potential, _ = is_balanced_reference(flipped)
            if potential is not None:
                sw = tuple(sorted(vback[v] for v, p in enumerate(potential) if p < 0))
                defects.append(
                    ComponentDefect(comp, "one-negative-edge", edge=eback[i], switch_set=sw)
                )
                break
        else:
            for b in range(sub.num_edges):
                without = SignedGraph(
                    sub.num_vertices, tuple(e for i, e in enumerate(sub.edges) if i != b)
                )
                sides = list(_component_graphs(without))
                if len(sides) > 1 and any(
                    is_balanced_reference(side)[0] is not None for _, side, _, _ in sides
                ):
                    defects.append(ComponentDefect(comp, "balanced-side-bridge", edge=eback[b]))
                    break
    return AdmissibilityVerdict(not defects, tuple(defects))


def _assignment_order_reference(g: SignedGraph) -> list[int]:
    """Edge positions in DFS discovery order (see solve._search_layout)."""
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


def _kernel_arrays_reference(g: SignedGraph, order: list[int]):
    """typ/va/ca/vb/cb arrays (see _solver_py) under the reference orientation."""
    m = len(order)
    typ = [0] * m
    va = [0] * m
    ca = [0] * m
    vb = [0] * m
    cb = [0] * m
    for pos, eid in enumerate(order):
        e = g.edges[eid]
        if e.u == e.v:  # a negative loop: layouts hold no positive one
            typ[pos] = 1
            va[pos] = e.u
            ca[pos] = 2  # both half-edges point out
        else:
            typ[pos] = 0
            va[pos] = e.u
            vb[pos] = e.v
            ca[pos] = 1
            cb[pos] = -1 if e.sign > 0 else 1
    return typ, va, ca, vb, cb


def search_layout_reference(g: SignedGraph):
    """solve._search_layout by two passes: (order, (typ, va, ca, vb, cb)),
    positive loops left out."""
    order = [eid for eid in _assignment_order_reference(g) if not _is_positive_loop(g.edges[eid])]
    return tuple(order), tuple(tuple(a) for a in _kernel_arrays_reference(g, order))


def _is_positive_loop(e) -> bool:
    return e.is_loop and e.sign > 0


def find_nz_k_flow_reference(
    g: SignedGraph, k: int, cap: Optional[int] = None, stats: Optional[dict] = None
) -> Optional[FlowAssignment]:
    """find_nz_k_flow by the integer kernel alone, with no Z_k search first
    and no rule deciding k = 2, over the reference layout of g; no answer
    recorded on g stands in for it.  Positive loops, which the layout
    leaves out, get the value 1.  The cap and its exception are those of
    the package's integer search."""
    if not (isinstance(k, int) and k >= 2):
        raise PreconditionError("k must be an integer >= 2")
    cap = _resolve_cap(cap)
    order, arrays = search_layout_reference(g)
    status, vals, nodes = _solver_py.search_integer(len(order), g.num_vertices, *arrays, k, cap)
    if stats is not None:
        stats["nodes"] = nodes
    if status == CAPPED:
        raise ResourceCapExceeded("k-flow search", cap=cap, spent=nodes)
    if status == EXHAUSTED:
        return None
    per_edge = [1 if _is_positive_loop(e) else 0 for e in g.edges]
    for pos, eid in enumerate(order):
        per_edge[eid] = vals[pos]
    return FlowAssignment.from_signed(per_edge)


def value_for_kind_reference(s, kind):
    """A certificate flow value decoded through Fraction: an int for the
    integer and modulo kinds when it is whole, else the Fraction."""
    f = str_to_fraction(s)
    if kind.kind in ("integer", "modulo") and f.denominator == 1:
        return int(f)
    return f


def integer_none_outcome_reference(g: SignedGraph, k: int) -> VerifyOutcome:
    """The outcome of verifying "g has no nowhere-zero integer k-flow" by
    the integer search alone: the oracle for the verifier's Z_k-first
    re-check."""
    if find_nz_k_flow_reference(g, k) is not None:
        return VerifyOutcome(False, "re-search found a flow the certificate denies")
    return VerifyOutcome(True)


def _walk_with_ends(g: SignedGraph, seq: Sequence[int], start: int):
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


def _rotate_to(g: SignedGraph, seq: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Rotate a circuit's edge sequence so it starts and ends at v."""
    walk = _circuit_walk(g, seq)
    i = walk.index(v)
    return seq[i:] + seq[:i]


def signed_circuit_flow_reference(w: SignedCircuitWitness) -> FlowAssignment:
    """The flow of a signed circuit witness, chained by hand: a balanced
    circuit walked from its walk's start; a short barbell's circuits
    walked from their meeting vertex, the second negated if it would
    double the first's boundary there; a long barbell's path walked from
    its end a on one circuit, doubled and signed to cancel that circuit
    at a, and the other circuit signed to cancel the path at its far end.
    The oracle for solve.signed_circuit_flow, up to one global sign."""
    g = w.graph
    per_edge: list[int] = [0] * g.num_edges

    def chain(seq, start, scale=1):
        # values ±scale chained along a trail, and the first and the last
        # step's contributions at its two ends
        vals, dep, last = _chain_values(g, _walk_with_ends(g, seq, start)[0], 1)
        return {eid: scale * f for eid, f in vals.items()}, scale * dep, scale * last

    def place(vals, sign):
        for eid, f in vals.items():
            per_edge[eid] = sign * f

    if w.kind == "balanced-circuit":
        seq = w.circuits[0]
        place(chain(seq, _circuit_walk(g, seq)[0])[0], 1)
    elif w.kind == "short-barbell":
        c1, c2 = w.circuits
        (a,) = circuit_vertices(g, c1) & circuit_vertices(g, c2)
        v1, d1, p1 = chain(_rotate_to(g, c1, a), a)
        v2, d2, p2 = chain(_rotate_to(g, c2, a), a)
        place(v1, 1)
        place(v2, -1 if d2 + p2 == d1 + p1 else 1)
    else:
        c1, c2 = w.circuits
        first = g.edges[w.path[0]]
        ends = circuit_vertices(g, c1) | circuit_vertices(g, c2)
        a = first.u if first.u in ends else first.v
        ca, cb = (c1, c2) if a in circuit_vertices(g, c1) else (c2, c1)
        b = _walk_with_ends(g, w.path, a)[1]
        va, da, pa = chain(_rotate_to(g, ca, a), a)
        vp, dp, pp = chain(w.path, a, 2)
        sp = -1 if dp == da + pa else 1  # the path cancels the circuit at a
        vb, db, pb = chain(_rotate_to(g, cb, b), b)
        place(va, 1)
        place(vp, sp)
        place(vb, -1 if db + pb == sp * pp else 1)
    return FlowAssignment.from_signed(per_edge)


def delete_vertices(
    g: SignedGraph, vertices
) -> tuple[SignedGraph, tuple[int, ...], tuple[int, ...]]:
    """Induced subgraph after removing the given vertices (and their
    edges), with the original ids of its vertices and edges."""
    drop = frozenset(vertices)
    keep = [v for v in range(g.num_vertices) if v not in drop]
    vmap = {v: i for i, v in enumerate(keep)}
    kept_ids = [i for i, e in enumerate(g.edges) if e.u not in drop and e.v not in drop]
    edges = tuple(
        Edge(vmap[g.edges[i].u], vmap[g.edges[i].v], g.edges[i].sign) for i in kept_ids
    )
    return SignedGraph(len(keep), edges), tuple(keep), tuple(kept_ids)


def _component_subgraphs(g: SignedGraph):
    for comp in connected_components(g):
        sub, vback, eback = delete_vertices(
            g, [v for v in range(g.num_vertices) if v not in comp]
        )
        yield comp, sub, vback, eback


def find_long_barbell_reference(g: SignedGraph) -> SignedCircuitWitness | None:
    """The long-barbell search as it was before the balancing-vertex
    decision and the in-place rest scan: the oracle for
    structure._long_barbell.  Every unbalanced circuit c, shortest first;
    G - V(c) is built, split into component graphs, and the first
    unbalanced one with a path to c gives the witness."""
    for c in enumerate_circuits(g):
        if not is_unbalanced_circuit(g, c):
            continue
        cverts = circuit_vertices(g, c)
        rest, _, eback = delete_vertices(g, cverts)
        for _, comp_sub, _, ceb in _component_subgraphs(rest):
            cert = is_balanced(comp_sub)
            if cert.witness is None:
                continue
            c2 = tuple(eback[ceb[i]] for i in cert.witness)
            path = _connecting_path(g, cverts, circuit_vertices(g, c2))
            if path is not None:
                return SignedCircuitWitness("long-barbell", (c, c2), path, graph=g)
    return None


def find_bridges_reference(g: SignedGraph) -> tuple[int, ...]:
    """Cut edges, ascending, by Tarjan's low-link DFS.  The oracle for
    core.find_bridges."""
    disc = [-1] * g.num_vertices
    low = [0] * g.num_vertices
    bridges: list[int] = []
    timer = 0
    for root in range(g.num_vertices):
        if disc[root] != -1:
            continue
        # iterative DFS; entry edge excluded by id so parallels survive
        stack = []
        disc[root] = low[root] = timer
        timer += 1
        stack.append((root, -1, iter(g.incidence[root])))
        while stack:
            x, in_edge, it = stack[-1]
            advanced = False
            for eid, _ in it:
                e = g.edges[eid]
                if e.is_loop or eid == in_edge:
                    continue
                y = e.other(x)
                if disc[y] == -1:
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, eid, iter(g.incidence[y])))
                    advanced = True
                    break
                low[x] = min(low[x], disc[y])
            if not advanced:
                stack.pop()
                if stack:
                    px = stack[-1][0]
                    low[px] = min(low[px], low[x])
                    if low[x] > disc[px]:
                        bridges.append(in_edge)
    return tuple(sorted(bridges))


def connected_components_reference(g: SignedGraph) -> tuple[tuple[int, ...], ...]:
    seen = [False] * g.num_vertices
    comps = []
    for root in range(g.num_vertices):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for eid, _ in g.incidence[x]:
                y = g.edges[eid].other(x)
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def switch_orientation(g: SignedGraph, o: Orientation, vertices) -> Orientation:
    """The orientation of ``switch(g, vertices)`` that flips every
    half-edge at the switched vertices; a loop there ends up reversed.
    End 0 of an edge points out under the reference orientation, so an
    edge is reversed exactly when its end 0 then points in."""
    s = frozenset(vertices)
    dirs = o.directions(g)
    return Orientation(frozenset(
        i for i, e in enumerate(g.edges) if dirs[i][0] * (-1 if e.u in s else 1) < 0
    ))


def edge_boundary(g: SignedGraph, fa: FlowAssignment, edge_id: int):
    """Charge sitting on the edge itself, -(tau(h1) + tau(h2)) * f: nonzero
    exactly on negative edges, and with the vertex boundaries it sums to 0."""
    t0, t1 = fa.orientation.directions(g)[edge_id]
    return -(t0 + t1) * fa.values[edge_id]
