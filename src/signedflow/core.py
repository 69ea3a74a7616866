"""Core data model for signed multigraphs and their flows.

A signed graph is a multigraph (loops and parallel edges allowed) whose
edges carry a sign in {+1, -1}.  Every edge is split into two half-edges,
one per endpoint; an orientation assigns each half-edge a direction
(+1 away from its endpoint, -1 towards it) subject to the compatibility
rule ``tau(h1) * tau(h2) == -sign(e)``.  For a positive edge the two
half-edges therefore point the same way (one out, one in: an ordinary
directed edge); for a negative edge they point both out or both in.

A flow is read under an orientation, and reversing an edge negates its
value.  That sign rule is stated once, here: ``FlowAssignment.signed_values``
reads a flow's values under the reference orientation,
``FlowAssignment.from_signed`` folds signed values back into positive values
and a flip set, and ``lift_flow`` carries a flow on an ``edge_subgraph`` back
to its host.  ``Orientation.directions`` states the same rule for half-edges.

Vertices are dense 0-based integers internally.  The text file format is
1-based (see :func:`parse_graph`).  Edge identity is positional: the
index into ``SignedGraph.edges``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence, Union

Value = Union[int, Fraction]

__all__ = [
    "Edge",
    "SignedGraph",
    "Orientation",
    "FlowAssignment",
    "FlowKind",
    "CheckResult",
    "BalanceCertificate",
    "GraphFormatError",
    "parse_graph",
    "serialize_graph",
    "switch",
    "boundary",
    "check_flow",
    "is_balanced",
    "connected_components",
    "is_eulerian",
    "find_bridges",
    "edge_subgraph",
    "lift_flow",
]


class GraphFormatError(ValueError):
    """Raised for malformed graph or flow files (includes line number)."""


@dataclass(frozen=True, slots=True)
class Edge:
    u: int
    v: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"edge sign must be +1 or -1, got {self.sign}")
        if not (type(self.u) is int and type(self.v) is int):  # the common case, checked fast
            for end in (self.u, self.v):
                if isinstance(end, bool) or not isinstance(end, int):
                    raise ValueError(f"edge endpoint {end!r} is not an integer")

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def endpoint(self, end: int) -> int:
        return self.u if end == 0 else self.v

    def other(self, vertex: int) -> int:
        return self.v if vertex == self.u else self.u


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed multigraph.

    ``num_vertices`` fixes the vertex set {0, ..., num_vertices-1}; edges
    may not reference vertices outside it.  Isolated vertices are legal.

    The cached properties are computed once per object, on first use, and
    never shared between equal objects.  ``flow_admissibility``,
    ``long_barbell`` and ``search_answers`` hold answers; the others hold
    layouts derived from the edges.  A cached answer is the one a fresh
    computation gives, so only work counters (the ``stats`` of a search)
    depend on which calls came before on the same object.
    """

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        n = self.num_vertices
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                # an equal edge is out of range too, so index finds this one
                raise ValueError(f"edge {self.edges.index(e)} endpoints {e.u},{e.v} out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident half-edges as (edge_id, end) pairs.

        A loop at v contributes both of its half-edges to v.
        """
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for i, e in enumerate(self.edges):
            inc[e.u].append((i, 0))
            inc[e.v].append((i, 1))
        return tuple(tuple(h) for h in inc)

    @cached_property
    def negative_edges(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.edges) if e.sign < 0)

    @cached_property
    def spanning_forest(self):
        """Cached ``_spanning_forest``: one spanning tree per component."""
        return _spanning_forest(self)

    @cached_property
    def flow_admissibility(self):
        """Cached ``structure.is_flow_admissible`` verdict."""
        from .structure import _flow_admissibility

        return _flow_admissibility(self)

    @cached_property
    def search_layout(self):
        """Cached ``solve._search_layout``: every edge but the positive
        loops, in the order the kernels, the circular search and the
        3-edge-colouring assign them, and the kernels' per-position arrays."""
        from .solve import _search_layout

        return _search_layout(self)

    @cached_property
    def search_answers(self) -> dict:
        """Finished ``solve._search`` answers, keyed by (kind, k) with kind
        "Z_k" or "integer": the kernel's values tuple, or None when the
        search was exhausted or decided without one.  A capped search is
        not recorded."""
        return {}

    @cached_property
    def long_barbell(self):
        """Cached ``structure.find_long_barbell`` witness, or None."""
        from .structure import _long_barbell

        return _long_barbell(self)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])


_SIGNS = {"+": 1, "-": -1}


def parse_graph(text: str) -> SignedGraph:
    """Parse the plain-text graph format.

    Format: optional ``#`` comment lines, one ``p <num_vertices> <num_edges>``
    header, then exactly num_edges lines ``e <u> <v> <+|->`` with 1-based
    vertex identifiers.  Edge order in the file is the edge identity.
    Fields are separated by any whitespace and numbers are read by
    ``int``.  A malformed line raises GraphFormatError naming its line
    number (blank and comment lines counted) and the first check it fails.
    """
    n = m = -1  # no header yet
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if n < 0:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: edge needs 3 fields")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex id") from None
            sign = _SIGNS.get(parts[3])
            if sign is None:
                raise GraphFormatError(f"line {lineno}: sign must be + or -")
            if not (0 < u <= n and 0 < v <= n):
                raise GraphFormatError(f"line {lineno}: vertex out of range 1..{n}")
            edges.append(Edge(u - 1, v - 1, sign))
        elif tag == "p":
            if n >= 0:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: header needs 2 fields")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad header numbers") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative header numbers")
        elif tag[0] != "#":
            raise GraphFormatError(f"line {lineno}: unknown record {tag!r}")
    if n < 0:
        raise GraphFormatError("missing 'p' header")
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, file has {len(edges)}")
    return SignedGraph(n, tuple(edges))


def serialize_graph(g: SignedGraph) -> str:
    """Canonical text form: header, then edges in stored order."""
    lines = [f"p {g.num_vertices} {g.num_edges}"]
    for e in g.edges:
        lines.append(f"e {e.u + 1} {e.v + 1} {'+' if e.sign > 0 else '-'}")
    return "\n".join(lines) + "\n"


def switch(g: SignedGraph, vertices: Iterable[int]) -> SignedGraph:
    """Switch at a vertex set: negate signs of non-loop edges with exactly
    one endpoint in the set.  Loop signs never change."""
    s = frozenset(vertices)
    for v in s:
        if not (0 <= v < g.num_vertices):
            raise ValueError(f"switch vertex {v} out of range")
    new_edges = []
    for e in g.edges:
        flip = (e.u in s) != (e.v in s)
        new_edges.append(Edge(e.u, e.v, -e.sign if flip else e.sign))
    return SignedGraph(g.num_vertices, tuple(new_edges))


@dataclass(frozen=True)
class Orientation:
    """Orientation stored as the set of edges reversed from the reference.

    Reference orientation: a positive edge is directed from its first to
    its second endpoint (tau = +1 at end 0, -1 at end 1); a negative edge
    has both half-edges pointing out (+1, +1).  Reversing an edge flips
    both of its half-edges, which is the only other valid choice for that
    edge, so every orientation of a fixed signature is representable.
    """

    reversed_edges: frozenset[int]

    @classmethod
    def reference(cls) -> "Orientation":
        return cls(frozenset())

    def directions(self, g: SignedGraph) -> tuple[tuple[int, int], ...]:
        """Materialized (tau at end 0, tau at end 1) per edge."""
        out = []
        for i, e in enumerate(g.edges):
            t0, t1 = (1, -1) if e.sign > 0 else (1, 1)
            if i in self.reversed_edges:
                t0, t1 = -t0, -t1
            out.append((t0, t1))
        return tuple(out)


def _negate_reversed(
    reversed_edges: Collection[int], values: Iterable[Value]
) -> tuple[Value, ...]:
    """The values with those of the reversed edges negated.  This maps
    values under an orientation to the reference one and back."""
    return tuple(-v if i in reversed_edges else v for i, v in enumerate(values))


@dataclass(frozen=True)
class FlowAssignment:
    """Edge values under an orientation.  Values are int or Fraction, and
    keep their type through every operation here."""

    orientation: Orientation
    values: tuple[Value, ...]

    def signed_values(self) -> tuple[Value, ...]:
        """The same flow's values under the reference orientation."""
        return _negate_reversed(self.orientation.reversed_edges, self.values)

    @classmethod
    def from_signed(cls, values: Iterable[Value]) -> "FlowAssignment":
        """The flow with these values under the reference orientation,
        folded to non-negative values: an edge with a negative value is
        reversed instead."""
        values = tuple(values)
        rev = frozenset(i for i, v in enumerate(values) if v < 0)
        return cls(Orientation(rev), tuple(abs(v) for v in values))


def boundary(g: SignedGraph, fa: FlowAssignment) -> tuple[Value, ...]:
    """Per-vertex boundary: sum over incident half-edges of tau(h)*f(e).

    A negative loop contributes +-2 f(e); a positive loop contributes 0.
    """
    if len(fa.values) != g.num_edges:
        raise ValueError("value list length mismatch")
    return tuple(_boundary(g, fa.orientation.directions(g), fa.values))


def _boundary(
    g: SignedGraph, dirs: Sequence[Sequence[int]], values: Sequence[Value]
) -> list[Value]:
    """Per-vertex boundary of values under explicit half-edge directions
    (``dirs[e]`` = tau at end 0, tau at end 1), as a list."""
    bnd: list[Value] = [0] * g.num_vertices
    for e, (t0, t1), f in zip(g.edges, dirs, values):
        bnd[e.u] += t0 * f
        bnd[e.v] += t1 * f
    return bnd


@dataclass(frozen=True)
class FlowKind:
    """Flow species selector: integer k, modulo k, or circular r."""

    kind: str
    param: Value

    @classmethod
    def integer(cls, k: int) -> "FlowKind":
        return cls("integer", k)

    @classmethod
    def modulo(cls, k: int) -> "FlowKind":
        return cls("modulo", k)

    @classmethod
    def circular(cls, r: Value) -> "FlowKind":
        return cls("circular", Fraction(r))

    @classmethod
    def parse(cls, text: str) -> "FlowKind":
        """The kind whose ``str`` is ``text``, or ValueError.

        Only the canonical text parses: for k ASCII digits with no sign
        or leading zero, for r ``str(Fraction)``.  The pattern admits
        ASCII digits only and no sign on k (``integer:-3`` is its own
        ``str``); the round trip then refuses leading zeros and any r
        not in lowest terms.  A zero denominator raises
        ZeroDivisionError, as Fraction does.
        """
        m = re.fullmatch(r"(integer|modulo):([0-9]+)|circular:(-?[0-9]+(?:/[0-9]+)?)", text)
        if m:
            kind = cls(m[1], int(m[2])) if m[1] else cls.circular(Fraction(m[3]))
            if str(kind) == text:
                return kind
        raise ValueError(f"bad flow kind {text!r}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.param}"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(msg: str) -> CheckResult:
    return CheckResult(False, msg)


def check_flow(g: SignedGraph, fa: FlowAssignment, kind: FlowKind) -> CheckResult:
    """Validate a flow assignment against a flow kind.

    Reports the first violated condition, checking support, then value
    bounds, then boundary.  Mathematical negatives are reported, never
    raised.
    """
    if len(fa.values) != g.num_edges:
        return _fail("value list length mismatch")
    if kind.kind == "integer":
        k = kind.param
        if not (isinstance(k, int) and k >= 2):
            return _fail("k must be an integer >= 2")
        for i, f in enumerate(fa.values):
            if f != int(f):
                return _fail(f"non-integer value (edge {i})")
            if f == 0:
                return _fail(f"support != E (edge {i})")
            if not (1 <= abs(f) <= k - 1):
                return _fail(f"value out of range (edge {i})")
        for v, b in enumerate(boundary(g, fa)):
            if b != 0:
                return _fail(f"boundary != 0 (vertex {v})")
        return CheckResult(True)
    if kind.kind == "modulo":
        k = kind.param
        if not (isinstance(k, int) and k >= 2):
            return _fail("k must be an integer >= 2")
        for i, f in enumerate(fa.values):
            if f != int(f):
                return _fail(f"non-integer value (edge {i})")
            if int(f) % k == 0:
                return _fail(f"support != E (edge {i})")
            if not (1 <= f <= k - 1):
                return _fail(f"value not reduced to 1..k-1 (edge {i})")
        for v, b in enumerate(boundary(g, fa)):
            if int(b) % k != 0:
                return _fail(f"boundary != 0 mod {k} (vertex {v})")
        return CheckResult(True)
    if kind.kind == "circular":
        r = Fraction(kind.param)
        if r < 2:
            return _fail("r must be >= 2")
        for i, f in enumerate(fa.values):
            if f == 0:
                return _fail(f"support != E (edge {i})")
            if not (1 <= abs(Fraction(f)) <= r - 1):
                return _fail(f"value out of range (edge {i})")
        for v, b in enumerate(boundary(g, fa)):
            if b != 0:
                return _fail(f"boundary != 0 (vertex {v})")
        return CheckResult(True)
    return _fail(f"unknown flow kind {kind.kind!r}")


@dataclass(frozen=True)
class BalanceCertificate:
    """Either a switching potential (balanced) or an unbalanced circuit.

    ``potential`` maps each vertex to +-1 with sign(uv) == p(u)*p(v) for
    every non-loop edge and every loop positive; ``witness`` is an edge-id
    sequence tracing a circuit with an odd number of negative edges.
    Exactly one of the two is present.
    """

    potential: tuple[int, ...] | None
    witness: tuple[int, ...] | None

    @property
    def balanced(self) -> bool:
        return self.potential is not None

    def __bool__(self) -> bool:
        return self.balanced


def _spread_potential(
    g: SignedGraph, root: int, potential: list[int], tree_edge: list[int]
) -> list[int]:
    """Spread a switching potential from ``root`` (value 1) along a
    spanning tree of its component.

    ``potential`` holds 0 at every vertex not yet reached; ``tree_edge[y]``
    receives the id of the tree edge that reached y.  The tree depends on
    the incidence lists only, never on the signs.  Returns the
    component's vertices in the order they were reached, so every vertex
    comes after its tree parent.
    """
    edges = g.edges
    incidence = g.incidence
    potential[root] = 1
    reached = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        px = potential[x]
        for eid, _ in incidence[x]:
            e = edges[eid]
            y = e.v if x == e.u else e.u
            if not potential[y]:
                potential[y] = px * e.sign
                tree_edge[y] = eid
                reached.append(y)
                stack.append(y)
    return reached


def _inconsistent_edges(
    g: SignedGraph, edge_ids: Iterable[int], potential: list[int]
) -> Iterator[int]:
    """The edges whose sign differs from p(u)*p(v), in the order given.
    The tree edges of a potential spread never qualify; a loop
    qualifies exactly when its sign is negative."""
    edges = g.edges
    for eid in edge_ids:
        e = edges[eid]
        if e.sign != potential[e.u] * potential[e.v]:
            yield eid


def _spanning_forest(g: SignedGraph) -> tuple[
    tuple[int, ...],
    tuple[int, ...],
    tuple[tuple[tuple[int, ...], tuple[int, ...], Sequence[int], tuple[int, ...]], ...],
]:
    """One spanning tree per connected component, each spread from the
    component's smallest vertex (``_spread_potential``): the switching
    potential and tree-edge arrays of all of them, and per component, in
    order of smallest vertex, its vertices ascending and in the order
    reached, its edge ids ascending, and its edges inconsistent with the
    potential, ascending.  Cached on the graph as ``g.spanning_forest``
    and read by admissibility and the long-barbell search; tuples, so
    that the garbage collector stops tracking them."""
    n = g.num_vertices
    potential = [0] * n
    tree_edge = [-1] * n
    trees = []
    for root in range(n):
        if potential[root]:
            continue
        reached = _spread_potential(g, root, potential, tree_edge)
        comp_edges: Sequence[int] = (
            range(g.num_edges)
            if len(reached) == n
            else tuple(sorted(eid for x in reached for eid, end in g.incidence[x] if end == 0))
        )
        bad = tuple(_inconsistent_edges(g, comp_edges, potential))
        trees.append((tuple(sorted(reached)), tuple(reached), comp_edges, bad))
    return tuple(potential), tuple(tree_edge), tuple(trees)


def _tree_path(g: SignedGraph, tree_edge: Sequence[int], u: int, v: int) -> list[int]:
    """Edge ids along the spanning-tree path from u to v."""

    def chain_to_root(x: int) -> list[int]:
        out = []
        while tree_edge[x] >= 0:
            eid = tree_edge[x]
            out.append(eid)
            x = g.edges[eid].other(x)
        return out

    cu, cv = chain_to_root(u), chain_to_root(v)
    while cu and cv and cu[-1] == cv[-1]:
        cu.pop()
        cv.pop()
    return cu + list(reversed(cv))


def is_balanced(g: SignedGraph) -> BalanceCertificate:
    """Spanning-tree potential propagation, per connected component
    (``g.spanning_forest``).

    The first edge (loops included) in ascending id order that is
    inconsistent with the tree potential closes the witness circuit
    through the tree.
    """
    potential, tree_edge, trees = g.spanning_forest
    first = min((bad[0] for _, _, _, bad in trees if bad), default=None)
    if first is None:
        return BalanceCertificate(potential, None)
    e = g.edges[first]
    return BalanceCertificate(None, tuple(_tree_path(g, tree_edge, e.u, e.v)) + (first,))


def connected_components(g: SignedGraph) -> tuple[tuple[int, ...], ...]:
    """Each component's vertices ascending, in order of smallest vertex,
    read off ``g.spanning_forest``."""
    return tuple(comp for comp, _, _, _ in g.spanning_forest[2])


def is_eulerian(g: SignedGraph) -> bool:
    """Every vertex has even degree (loops count twice)."""
    return all(g.degree(v) % 2 == 0 for v in range(g.num_vertices))


def find_bridges(g: SignedGraph) -> tuple[int, ...]:
    """Cut edges, ascending.  Loops and parallel edges are never bridges.

    One spanning tree per component (``g.spanning_forest``); the bridges
    are its edges that no other edge's tree path covers (``_tree_bridges``).
    """
    _, tree_edge, trees = g.spanning_forest
    reached = [v for _, order, _, _ in trees for v in order]
    return tuple(_tree_bridges(g, reached, tree_edge, range(g.num_edges)))


def _tree_crossings(
    g: SignedGraph,
    reached: Sequence[int],
    tree_edge: Sequence[int],
    comp_edges: Sequence[int],
    marked: Collection[int] = (),
) -> tuple[list[int], list[int]]:
    """How many of the edges ``comp_edges`` off the spanning trees that
    reached them have a tree path through each tree edge, and how many
    of those are in ``marked``; both indexed by the vertex y that the
    tree edge ``tree_edge[y]`` reached (``reached`` lists every vertex
    after its tree parent, and a root has no tree edge).  The edges
    counted at y are those with exactly one end below y: negating the
    potential below y changes the consistency of exactly these."""
    edges = g.edges
    up = [0] * g.num_vertices  # tree parent
    depth = [0] * g.num_vertices
    for y in reached:
        if tree_edge[y] >= 0:
            x = edges[tree_edge[y]].other(y)
            up[y] = x
            depth[y] = depth[x] + 1
    cross = [0] * g.num_vertices
    cross_marked = [0] * g.num_vertices
    for eid in comp_edges:
        x, y = edges[eid].u, edges[eid].v
        if tree_edge[x] == eid or tree_edge[y] == eid:
            continue
        mark = eid in marked
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            cross[x] += 1
            cross_marked[x] += mark
            x = up[x]
    return cross, cross_marked


def _tree_bridges(
    g: SignedGraph, reached: Sequence[int], tree_edge: Sequence[int], comp_edges: Sequence[int]
) -> list[int]:
    """The bridges among the edges ``comp_edges`` of one or more
    components, ascending, from the spanning trees that reached them:
    the tree edges on no non-tree edge's tree path (``_tree_crossings``).
    A circuit through a tree edge is the sum of the fundamental circuits
    of its non-tree edges, so one of those covers the tree edge."""
    cross, _ = _tree_crossings(g, reached, tree_edge, comp_edges)
    return sorted(tree_edge[y] for y in reached if tree_edge[y] >= 0 and not cross[y])


def edge_subgraph(
    g: SignedGraph, edge_ids: Sequence[int]
) -> tuple[SignedGraph, tuple[int, ...], tuple[int, ...]]:
    """Subgraph on the given edges and the vertices they touch.

    Returns (subgraph, vertex_back, edge_back): position i of the back
    arrays is the original id of subgraph vertex/edge i.
    """
    verts = sorted({g.edges[i].u for i in edge_ids} | {g.edges[i].v for i in edge_ids})
    vmap = {v: i for i, v in enumerate(verts)}
    edges = tuple(
        Edge(vmap[g.edges[i].u], vmap[g.edges[i].v], g.edges[i].sign) for i in edge_ids
    )
    return SignedGraph(len(verts), edges), tuple(verts), tuple(edge_ids)


def lift_flow(
    g: SignedGraph, eback: Sequence[int], sub: FlowAssignment, orientation: Orientation
) -> FlowAssignment:
    """The flow on g of a flow ``sub`` on an ``edge_subgraph`` of g with
    edge map ``eback``, under ``orientation``.  Each edge of g carries the
    sum of its copies' signed values, since ``edge_subgraph`` repeats an
    edge listed twice, and 0 off the subgraph; the boundary at each
    subgraph vertex is the one it had in the subgraph."""
    total: list[Value] = [0] * g.num_edges
    for old, v in zip(eback, sub.signed_values()):
        total[old] += v
    return FlowAssignment(orientation, _negate_reversed(orientation.reversed_edges, total))
