"""Structural predicates: signed circuits, barbells, admissibility, and
the 3-edge-colouring of cubic graphs.

A circuit is a connected 2-regular subgraph, represented as the tuple of
its edge ids in traversal order (a loop is a circuit of length one, a
pair of parallel edges one of length two).  A circuit is unbalanced when
it carries an odd number of negative edges.

This module owns circuit tracing for the whole package, with one tracer:
the vertex walk of a circuit (``_circuit_walk``), the circuit peel
(``_peel``), which splits an edge set with 0 or 2 odd-degree vertices
into circuits plus, for two, the open trail between them, and the
negative-edge parity of each connected component
(``_component_negative_parities``).  ``_peel_circuits`` is the peel of
an even edge set, and ``classify_signed_circuit`` reads the kind of a
signed circuit off the peel.  The solvers and transforms call these
instead of walking circuits themselves.

The three kinds of signed circuit:
  * balanced circuit,
  * short barbell: two unbalanced circuits meeting in exactly one vertex,
  * long barbell: two vertex-disjoint unbalanced circuits joined by a
    path that meets them only at its ends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .core import (
    SignedGraph,
    _inconsistent_edges,
    _spread_potential,
    _tree_crossings,
    _tree_path,
    connected_components,
    find_bridges,
)
from .errors import InvariantViolation, PreconditionError, ResourceCapExceeded

DEFAULT_CIRCUIT_CAP = 10**6
DEFAULT_SEARCH_CAP = 10**7

__all__ = [
    "SignedCircuitWitness",
    "StarCut",
    "AdmissibilityVerdict",
    "ComponentDefect",
    "enumerate_circuits",
    "circuit_vertices",
    "is_unbalanced_circuit",
    "classify_signed_circuit",
    "find_long_barbell",
    "find_signed_circuit",
    "is_flow_admissible",
    "has_star_cut",
    "three_edge_coloring",
]


@dataclass(frozen=True)
class SignedCircuitWitness:
    """A verified signed circuit.  ``circuits`` holds one entry for a
    balanced circuit, two for barbells; ``path`` only for long barbells."""

    kind: str  # "balanced-circuit" | "short-barbell" | "long-barbell"
    circuits: tuple[tuple[int, ...], ...]
    path: tuple[int, ...] | None = None
    # host graph the edge ids refer to; lets a witness travel alone
    graph: "SignedGraph | None" = None

    @property
    def edge_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for c in self.circuits:
            out.extend(c)
        if self.path:
            out.extend(self.path)
        return tuple(out)


@dataclass(frozen=True)
class StarCut:
    center: int
    leaves: tuple[int, ...]
    edges: tuple[int, ...]


@dataclass(frozen=True)
class ComponentDefect:
    component: tuple[int, ...]
    kind: str  # "one-negative-edge" | "balanced-side-bridge"
    edge: int | None = None
    switch_set: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    defects: tuple[ComponentDefect, ...]

    def __bool__(self) -> bool:
        return self.admissible


def circuit_vertices(g: SignedGraph, circuit: Sequence[int]) -> frozenset[int]:
    verts: set[int] = set()
    for eid in circuit:
        verts.add(g.edges[eid].u)
        verts.add(g.edges[eid].v)
    return frozenset(verts)


def is_unbalanced_circuit(g: SignedGraph, circuit: Sequence[int]) -> bool:
    return sum(1 for eid in circuit if g.edges[eid].sign < 0) % 2 == 1


def _circuit_walk(g: SignedGraph, circuit: Sequence[int]) -> list[int]:
    """Vertices v0, v1, ..., v0 met walking a circuit's edge sequence.

    The walk starts at the end of the first edge that the second edge
    does not share (at u for loops and digons).  Raises PreconditionError
    when the edges are not listed in walking order or do not close.
    """
    first = g.edges[circuit[0]]
    start = first.u
    if len(circuit) > 1:
        second = g.edges[circuit[1]]
        if first.v not in (second.u, second.v):
            start = first.v
    walk = [start]
    v = start
    for eid in circuit:
        e = g.edges[eid]
        if v == e.u:
            v = e.v
        elif v == e.v:
            v = e.u
        else:
            raise PreconditionError("circuit edges are not in walking order")
        walk.append(v)
    if v != start:
        raise PreconditionError("circuit edge sequence does not close")
    return walk


def _odd_vertices(g: SignedGraph, edge_ids: Iterable[int]) -> set[int]:
    """The vertices of odd degree in an edge set (a loop adds 2)."""
    odd: set[int] = set()
    for eid in edge_ids:
        odd ^= {g.edges[eid].u}
        odd ^= {g.edges[eid].v}
    return odd


def _peel(
    g: SignedGraph, edge_ids: Iterable[int]
) -> tuple[list[tuple[int, ...]], tuple[int, ...]] | None:
    """Split an edge set into edge-disjoint circuits and at most one open
    trail; None unless 0 or 2 of its vertices have odd degree.

    Walks greedily, extracting a circuit every time the walk revisits a
    vertex on its stack.  A walk starts at the stored u of the smallest
    unused edge, except the first walk of a set with two odd vertices,
    which starts at the smaller one.  The stack is a path from the
    walk's start s to its current vertex v, so the unused edges have odd
    degree where the set's odd vertices and {s, v} differ.  In an even
    set that is s and v, so a walk stops only with an empty stack.  From
    the odd vertex a of a set with odd vertices a and b it is b and v, so
    the walk stops only at v = b: its stack is the returned trail, a path
    from a to b, and the edges left are even.  On a 2-regular edge set
    the circuits are its components.
    """
    unused = set(edge_ids)
    odd = _odd_vertices(g, unused)
    if len(odd) not in (0, 2):
        return None
    circuits: list[tuple[int, ...]] = []
    trail: tuple[int, ...] = ()
    start = min(odd, default=None)
    while unused:
        v = g.edges[min(unused)].u if start is None else start
        start = None
        path_v = [v]
        path_e: list[int] = []
        pos = {v: 0}
        while True:
            nxt = next(((eid, end) for eid, end in g.incidence[v] if eid in unused), None)
            if nxt is None:
                if path_e:
                    trail = tuple(path_e)
                break
            eid, end = nxt
            unused.discard(eid)
            w = g.edges[eid].endpoint(1 - end)
            if w in pos:
                i = pos[w]
                circuits.append(tuple(path_e[i:] + [eid]))
                for vv in path_v[i + 1 :]:
                    del pos[vv]
                path_v = path_v[: i + 1]
                path_e = path_e[:i]
            else:
                path_e.append(eid)
                path_v.append(w)
                pos[w] = len(path_v) - 1
            v = w
    return circuits, trail


def _peel_circuits(g: SignedGraph, edge_ids: Iterable[int]) -> list[tuple[int, ...]]:
    """Split an even edge set into edge-disjoint circuits, by ``_peel``.
    Raises InvariantViolation when some degree is odd."""
    peeled = _peel(g, edge_ids)
    if peeled is None or peeled[1]:
        raise InvariantViolation("circuit peel given an edge set with odd degrees")
    return peeled[0]


def _component_negative_parities(g: SignedGraph) -> list[int]:
    """Number of negative edges mod 2 in each connected component, in
    the order of ``connected_components``."""
    comp_of = [0] * g.num_vertices
    comps = connected_components(g)
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    parity = [0] * len(comps)
    for e in g.edges:
        if e.sign < 0:
            parity[comp_of[e.u]] ^= 1
    return parity


def enumerate_circuits(g: SignedGraph, cap: int = DEFAULT_CIRCUIT_CAP) -> list[tuple[int, ...]]:
    """All circuits, sorted shortest first then lexicographically.

    Each circuit is discovered exactly once: its smallest edge id comes
    first, traversed from stored u to stored v.  ``cap`` bounds the DFS
    step count.
    """
    out: list[tuple[int, ...]] = []
    steps = 0
    for eid, e in enumerate(g.edges):
        if e.is_loop:
            out.append((eid,))
    for e0, e in enumerate(g.edges):
        if e.is_loop:
            continue
        start, first = e.u, e.v
        path = [e0]
        visited = {start, first}
        # stack of (vertex, iterator over incident half-edges)
        stack = [(first, iter(g.incidence[first]))]
        while stack:
            steps += 1
            if steps > cap:
                raise ResourceCapExceeded("circuit enumeration cap", cap=cap, spent=steps)
            x, it = stack[-1]
            advanced = False
            for eid, _ in it:
                e2 = g.edges[eid]
                if eid <= e0 or e2.is_loop or eid in path:
                    continue
                y = e2.other(x)
                if y == start:
                    out.append(tuple(path) + (eid,))
                elif y not in visited:
                    path.append(eid)
                    visited.add(y)
                    stack.append((y, iter(g.incidence[y])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    visited.discard(x)
                    path.pop()
    out.sort(key=lambda c: (len(c), c))
    return out


def classify_signed_circuit(
    g: SignedGraph, edge_ids: Sequence[int]
) -> SignedCircuitWitness | None:
    """Decide whether an edge set is a signed circuit and of which kind.

    The set is peeled (``_peel``): one balanced circuit is a balanced
    circuit; two unbalanced circuits sharing exactly one vertex are a
    short barbell; two vertex-disjoint unbalanced circuits with an open
    trail that meets each of them only at its own end are a long barbell,
    whose path is that trail, walked from the smaller odd vertex.  The
    circuits come in peel order.  Returns None for anything else (never
    raises for mathematically negative answers)."""
    ids = list(edge_ids)
    if len(ids) != len(set(ids)) or not ids:
        return None
    if any(not (0 <= i < g.num_edges) for i in ids):
        raise PreconditionError("edge id out of range")
    peeled = _peel(g, ids)
    if peeled is None:
        return None
    circuits, trail = peeled
    if len(circuits) == 1 and not trail:
        if is_unbalanced_circuit(g, circuits[0]):
            return None
        return SignedCircuitWitness("balanced-circuit", (circuits[0],), graph=g)
    if len(circuits) != 2 or not all(is_unbalanced_circuit(g, c) for c in circuits):
        return None
    v1, v2 = (circuit_vertices(g, c) for c in circuits)
    if not trail:
        if len(v1 & v2) != 1:
            return None
        return SignedCircuitWitness("short-barbell", tuple(circuits), graph=g)
    tv = circuit_vertices(g, trail)
    if v1 & v2 or len(tv & v1) != 1 or len(tv & v2) != 1:
        return None
    if tv & (v1 | v2) != _odd_vertices(g, trail):  # the trail's two ends
        return None
    return SignedCircuitWitness("long-barbell", tuple(circuits), trail, graph=g)


def _connecting_path(
    g: SignedGraph, from_verts: frozenset[int], to_verts: frozenset[int]
) -> tuple[int, ...] | None:
    """Shortest path whose internal vertices avoid both endpoint sets."""
    prev: dict[int, tuple[int, int]] = {}
    seen = set(from_verts)
    queue = deque(from_verts)
    while queue:
        x = queue.popleft()
        for eid, _ in sorted(g.incidence[x]):
            e = g.edges[eid]
            if e.is_loop:
                continue
            y = e.other(x)
            if y in to_verts:
                path = [eid]
                while x not in from_verts:
                    peid, px = prev[x]
                    path.append(peid)
                    x = px
                return tuple(reversed(path))
            if y not in seen:
                seen.add(y)
                prev[y] = (eid, x)
                queue.append(y)
    return None


def find_long_barbell(g: SignedGraph) -> SignedCircuitWitness | None:
    """Search for a long barbell; None is an exactness claim.

    A long barbell exists exactly when some component has two
    vertex-disjoint unbalanced circuits: a shortest path between them
    meets each only at its end.  So a balanced component has none, and
    neither has one with a one-negative-edge defect (its edge lies on
    every unbalanced circuit) or a balancing vertex, a vertex whose
    deletion leaves the component balanced: it lies on every unbalanced
    circuit, so any two of them share it.  In the other components the
    unbalanced circuits are tried shortest first, loops and digons
    before any longer circuit is listed, and for each, the balance scan
    of the rest of its component, run in place, supplies a disjoint
    unbalanced circuit and a breadth-first search the connecting path.
    The answer is computed once per graph object and cached on it.
    """
    return g.long_barbell


def _long_barbell(g: SignedGraph) -> SignedCircuitWitness | None:
    """The search of ``find_long_barbell``, in three steps, each run only
    when the one before finds nothing.

    (1) One spanning tree per component, the one admissibility reads
    (``g.spanning_forest``), leaves open the unbalanced components
    without a one-negative-edge defect in ``g.flow_admissibility``.

    (2) The unbalanced loops and digons c of the open components, in
    ``enumerate_circuits`` order, which lists them before any longer
    circuit: the rest of c's component is scanned in place with V(c)
    blocked (``_unbalanced_circuit``).  The first circuit found there,
    with ``_connecting_path`` from V(c) to it, is the witness.  It is
    the one that deleting V(c), splitting the rest into components and
    scanning each for balance as a graph of its own would give, since
    the scan spreads the same trees and reads the same first edge.

    (3) Every balancing vertex of an open component lies on the circuit
    that its tree closes at the first inconsistent edge, so only that
    circuit's vertices are tried, each by one scan with the vertex
    blocked.  The components left list their circuits and run the scan
    of step (2) on the longer ones, shortest first.  A circuit in a
    decided component is skipped: it runs through the balancing vertex
    or the defect's edge, as every unbalanced circuit there does.  So
    the witness is the first circuit in ``enumerate_circuits`` order
    with a vertex-disjoint unbalanced partner.
    """
    decided = {d.component for d in g.flow_admissibility.defects if d.kind == "one-negative-edge"}
    _, tree_edge, trees = g.spanning_forest
    # (component, its edges, its first inconsistent edge) per open component
    opened = [(comp, edges, bad[0]) for comp, _, edges, bad in trees if bad and comp not in decided]
    if not opened:
        return None
    open_at = {v: entry for entry in opened for v in entry[0]}

    def barbell_through(c: tuple[int, ...]) -> SignedCircuitWitness | None:
        # c with the first unbalanced circuit of the rest of its component
        entry = open_at.get(g.edges[c[0]].u)
        if entry is None:
            return None
        cverts = circuit_vertices(g, c)
        c2 = _unbalanced_circuit(g, entry[0], entry[1], cverts)
        if c2 is None:
            return None
        path = _connecting_path(g, cverts, circuit_vertices(g, c2))
        return SignedCircuitWitness("long-barbell", (c, c2), path, graph=g)

    for c in _unbalanced_loops_and_digons(g):
        w = barbell_through(c)
        if w is not None:
            return w
    for comp, edges, first in opened:
        e = g.edges[first]
        circuit = _tree_path(g, tree_edge, e.u, e.v) + [first]
        if any(
            _unbalanced_circuit(g, comp, edges, (v,)) is None for v in circuit_vertices(g, circuit)
        ):
            for v in comp:
                del open_at[v]
    if not open_at:
        return None
    for c in enumerate_circuits(g):
        if len(c) > 2 and is_unbalanced_circuit(g, c):
            w = barbell_through(c)
            if w is not None:
                return w
    return None


def _unbalanced_loops_and_digons(g: SignedGraph) -> list[tuple[int, ...]]:
    """The negative loops, then the digons of two parallel edges of
    opposite sign, as ``enumerate_circuits`` lists and orders them."""
    loops: list[tuple[int, ...]] = []
    parallel: dict[tuple[int, int], list[int]] = {}
    for eid, e in enumerate(g.edges):
        if e.u == e.v:
            if e.sign < 0:
                loops.append((eid,))
        else:
            parallel.setdefault((e.u, e.v) if e.u < e.v else (e.v, e.u), []).append(eid)
    digons = [
        (a, b)
        for ids in parallel.values()
        if len(ids) > 1
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if g.edges[a].sign != g.edges[b].sign
    ]
    return loops + sorted(digons)


def _unbalanced_circuit(
    g: SignedGraph, comp: Sequence[int], comp_edges: Sequence[int], blocked: Collection[int]
) -> tuple[int, ...] | None:
    """An unbalanced circuit of the component ``comp``, with edge ids
    ``comp_edges`` (both ascending), with the vertices ``blocked``
    deleted, or None when what is left is balanced.  Read in place: the
    blocked vertices count as reached, so the potential spreads around
    them.  The parts left are spread in order of their smallest vertex,
    and the first one with an inconsistent edge gives the tree path
    closed by its first such edge in id order, the witness of
    ``is_balanced`` on that part."""
    potential = [0] * g.num_vertices
    tree_edge = [-1] * g.num_vertices
    part = [0] * g.num_vertices  # parts numbered in order of smallest vertex
    for v in blocked:
        potential[v] = 1
    parts = 0
    for root in comp:
        if not potential[root]:
            for x in _spread_potential(g, root, potential, tree_edge):
                part[x] = parts
            parts += 1
    first = min(
        (
            (part[g.edges[eid].u], eid)
            for eid in _inconsistent_edges(g, comp_edges, potential)
            if g.edges[eid].u not in blocked and g.edges[eid].v not in blocked
        ),
        default=None,
    )
    if first is None:
        return None
    e = g.edges[first[1]]
    return tuple(_tree_path(g, tree_edge, e.u, e.v)) + (first[1],)


def find_signed_circuit(g: SignedGraph) -> SignedCircuitWitness | None:
    """First signed circuit contained in g: balanced circuits first, then
    short barbells, then long barbells.  None means g has no signed
    circuit (its components are unbalanced-circuit trees at most)."""
    circuits = enumerate_circuits(g)
    unbalanced = []
    for c in circuits:
        if is_unbalanced_circuit(g, c):
            unbalanced.append(c)
        else:
            return SignedCircuitWitness("balanced-circuit", (c,), graph=g)
    for i, c1 in enumerate(unbalanced):
        v1 = circuit_vertices(g, c1)
        for c2 in unbalanced[i + 1 :]:
            common = v1 & circuit_vertices(g, c2)
            if len(common) == 1:
                return SignedCircuitWitness("short-barbell", (c1, c2), graph=g)
            if len(common) >= 2:
                # two unbalanced circuits through two common vertices always
                # enclose a balanced circuit, which would have been returned
                raise InvariantViolation(
                    "unbalanced circuits share >= 2 vertices yet no balanced "
                    "circuit exists"
                )
    for i, c1 in enumerate(unbalanced):
        v1 = circuit_vertices(g, c1)
        for c2 in unbalanced[i + 1 :]:
            v2 = circuit_vertices(g, c2)
            if v1 & v2:
                continue
            path = _connecting_path(g, v1, v2)
            if path is not None:
                return SignedCircuitWitness("long-barbell", (c1, c2), path, graph=g)
    return None


def is_flow_admissible(g: SignedGraph) -> AdmissibilityVerdict:
    """Flow admissibility check, per connected component (Bouchet 1983).

    A connected signed graph admits a nowhere-zero flow iff it is not
    switching-equivalent to a graph with exactly one negative edge and
    no cut edge leaves a balanced component behind.  The verdict is
    computed once per graph object and cached on it.

    Each component is read in place, off one spanning tree carrying its
    switching potential p, and its inconsistent edges B (those whose
    sign is not p(u)p(v); negative loops included).  Flipping the sign
    of edge e balances the component exactly when some member of its
    switching class is negative on e alone.  Flipping a non-tree edge
    leaves p as it is, so it balances exactly when B = {e}.  Flipping
    the tree edge into y negates p below y, which changes the
    consistency of exactly the non-tree edges whose tree paths cross it,
    so it balances exactly when those edges are B.  One count of the
    crossing edges per tree edge (``_tree_crossings``) therefore judges
    every flip.  The defect's edge is the smallest one whose flip
    balances, and the switch set is where the flipped potential, +1 at
    the smallest vertex, is -1.

    The bridges come from the same counts: they are the tree edges that
    nothing crosses (every spanning tree contains every bridge).  A tree
    with a bridge removed spans both sides of it, so a side is balanced
    exactly when none of B lies in it, and one count of B per tree
    subtree judges every bridge without building a graph.
    """
    return g.flow_admissibility


def _flow_admissibility(g: SignedGraph) -> AdmissibilityVerdict:
    edges = g.edges
    potential, tree_edge, trees = g.spanning_forest
    defects: list[ComponentDefect] = []
    for comp, reached, comp_edges, bad in trees:
        cross, cross_bad = _tree_crossings(g, reached, tree_edge, comp_edges, set(bad))
        # (edge, y) for each edge whose flip balances; y = -1 off the tree
        flips = [(tree_edge[y], y) for y in reached[1:] if cross[y] == cross_bad[y] == len(bad)]
        if len(bad) == 1:
            flips.append((bad[0], -1))
        if flips:
            eid, y = min(flips)
            negated = set()  # where the flipped potential differs from p
            if y >= 0:
                negated.add(y)
                for v in reached[reached.index(y) + 1 :]:
                    if edges[tree_edge[v]].other(v) in negated:
                        negated.add(v)
            switch_set = tuple(v for v in comp if (potential[v] < 0) != (v in negated))
            defects.append(ComponentDefect(comp, "one-negative-edge", edge=eid, switch_set=switch_set))
            continue
        bridges = sorted((tree_edge[y], y) for y in reached[1:] if not cross[y])
        if bad and bridges:
            below = [0] * g.num_vertices  # inconsistent edges per tree subtree
            for eid in bad:
                below[edges[eid].u] += 1
            for y in reversed(reached[1:]):
                below[edges[tree_edge[y]].other(y)] += below[y]
            for eid, y in bridges:
                if below[y] in (0, len(bad)):
                    defects.append(ComponentDefect(comp, "balanced-side-bridge", edge=eid))
                    break
    return AdmissibilityVerdict(not defects, tuple(defects))


def has_star_cut(g: SignedGraph) -> StarCut | None:
    """Find an induced star K_{1,t} (t >= 1) all of whose edges are cut
    edges.  Loops at the center or a leaf disqualify it (not induced)."""
    bridges = set(find_bridges(g))
    has_loop = [False] * g.num_vertices
    for e in g.edges:
        if e.is_loop:
            has_loop[e.u] = True
    adj: dict[tuple[int, int], bool] = {}
    for e in g.edges:
        if not e.is_loop:
            adj[(min(e.u, e.v), max(e.u, e.v))] = True
    best: StarCut | None = None
    for c in range(g.num_vertices):
        if has_loop[c]:
            continue
        cand = sorted(
            (g.edges[b].other(c), b)
            for b, _ in g.incidence[c]
            if b in bridges and not has_loop[g.edges[b].other(c)]
        )
        leaves: list[int] = []
        edges: list[int] = []
        for leaf, b in cand:
            if any((min(leaf, l2), max(leaf, l2)) in adj for l2 in leaves):
                continue
            leaves.append(leaf)
            edges.append(b)
        # keep the widest star; first (= smallest center) wins ties
        if leaves and (best is None or len(leaves) > len(best.leaves)):
            best = StarCut(c, tuple(leaves), tuple(edges))
    return best


def _require_cubic(g: SignedGraph) -> None:
    if any(e.is_loop for e in g.edges):
        raise PreconditionError("not cubic: graph has a loop")
    bad = [v for v in range(g.num_vertices) if g.degree(v) != 3]
    if bad:
        raise PreconditionError(f"not cubic: vertex {bad[0]} has degree {g.degree(bad[0])}")


def three_edge_coloring(
    g: SignedGraph, cap: int = DEFAULT_SEARCH_CAP
) -> tuple[int, ...] | None:
    """Proper 3-edge-coloring by exhaustive backtracking; signs ignored.

    Edges are coloured in the search kernels' assignment order
    (``SignedGraph.search_layout``), which clusters them around vertices
    for early contradictions; a cubic graph has no loops, so it lists
    every edge.  None is exact: the graph is not 3-edge-colorable."""
    _require_cubic(g)
    order = g.search_layout[0]
    m = g.num_edges
    if len(order) != m:
        raise InvariantViolation("search layout misses an edge of a cubic graph")
    colors = [-1] * m
    used_at = [0] * g.num_vertices  # bitmask of colors present at a vertex
    steps = 0

    def rec(pos: int) -> bool:
        nonlocal steps
        if pos == m:
            return True
        eid = order[pos]
        e = g.edges[eid]
        for col in range(3):
            bit = 1 << col
            if used_at[e.u] & bit or used_at[e.v] & bit:
                continue
            steps += 1
            if steps > cap:
                raise ResourceCapExceeded("coloring search cap", cap=cap, spent=steps)
            colors[eid] = col
            used_at[e.u] |= bit
            used_at[e.v] |= bit
            if rec(pos + 1):
                return True
            colors[eid] = -1
            used_at[e.u] &= ~bit
            used_at[e.v] &= ~bit
        return False

    return tuple(colors) if rec(0) else None
