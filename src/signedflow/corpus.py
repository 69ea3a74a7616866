"""Instance generators: named graphs, signature sweeps, bounded enumeration.

The exhaustive enumerator emits one representative per equivalence class
under relabeling x switching.  Everything the suites measure is invariant
under both, so collapsing classes loses no coverage and keeps desk-scale
runs fast; class soundness is tested pairwise on small runs.  Signatures
are generated in a pivot normal form, not found by marking orbits: at
each pivot (a pair joining two components of the pairs before it) at
most half the parallel edges are positive, and only a tie at a pivot or
an automorphism costs a comparison (``_signature_classes``).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import getitem, itemgetter
from typing import Iterator

from .core import Edge, FlowAssignment, FlowKind, Orientation, SignedGraph, boundary, check_flow
from .errors import InvariantViolation, PreconditionError

MAX_ENUM_VERTICES = 5
MAX_ENUM_EDGES = 8

__all__ = [
    "CorpusSpec",
    "MAX_ENUM_EDGES",
    "MAX_ENUM_VERTICES",
    "enumerate_signed_graphs",
    "g_family",
    "g_family_circular_witness",
    "random_signed_graph",
    "signed_petersen",
    "w5_all_signatures",
    "wheel_w5",
]


def signed_petersen() -> SignedGraph:
    """Petersen graph, positive outer cycle and spokes, negative inner chords.

    Edge ids: 0-4 outer cycle, 5-9 spokes, 10-14 the pentagram.
    """
    edges = []
    for i in range(5):
        edges.append(Edge(i, (i + 1) % 5, 1))
    for i in range(5):
        edges.append(Edge(i, 5 + i, 1))
    for i in range(5):
        edges.append(Edge(5 + i, 5 + (i + 2) % 5, -1))
    return SignedGraph(10, tuple(edges))


def g_family(t: int) -> SignedGraph:
    """Glue t copies of K4 along one edge, delete it, add two negative loops.

    Vertices 0 and 1 are the shared pair; copy i adds vertices 2+2i and
    3+2i with the five remaining K4 edges (all positive).  The last two
    edges are the negative loops at 0 and at 1.
    """
    if isinstance(t, bool) or not (isinstance(t, int) and t >= 1):
        raise PreconditionError("t must be an integer >= 1")
    edges = []
    for i in range(t):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges.extend(
            [Edge(0, a, 1), Edge(0, b, 1), Edge(1, a, 1), Edge(1, b, 1), Edge(a, b, 1)]
        )
    edges.append(Edge(0, 0, -1))
    edges.append(Edge(1, 1, -1))
    return SignedGraph(2 + 2 * t, tuple(edges))


def g_family_circular_witness(t: int) -> FlowAssignment:
    """The explicit circular 3-flow on g_family(t) with 3/2 on both loops.

    Construction: the glued all-positive graph carries a positive 4-flow
    whose deleted edge has value 3 (one copy routes 3 units between the
    shared vertices, the others circulate internally); rerouting those 3
    units through the loops costs 3/2 per loop because a loop meets its
    vertex twice.
    """
    g = g_family(t)
    per_edge: list[Fraction] = [Fraction(0)] * g.num_edges
    rev: set[int] = set()

    def put(eid: int, u: int, val: int) -> None:
        # val flows out of u; reference direction of a positive edge is
        # first listed endpoint -> second
        e = g.edges[eid]
        per_edge[eid] = Fraction(val)
        if e.u != u:
            rev.add(eid)

    # copy 0 moves 3 units from vertex 0 to vertex 1
    a, b = 2, 3
    put(0, 0, 2)  # 0 -> a: 2
    put(1, 0, 1)  # 0 -> b: 1
    put(2, a, 1)  # a -> 1: 1
    put(3, b, 2)  # b -> 1: 2
    put(4, a, 1)  # a -> b: 1
    # remaining copies circulate, no net transfer between 0 and 1
    for i in range(1, t):
        base = 5 * i
        a, b = 2 + 2 * i, 3 + 2 * i
        put(base + 0, 0, 1)  # 0 -> a: 1
        put(base + 1, b, 1)  # b -> 0: 1
        put(base + 2, a, 2)  # a -> 1: 2
        put(base + 3, 1, 2)  # 1 -> b: 2
        put(base + 4, b, 1)  # b -> a: 1
    # each loop replaces the deleted edge's 3 units at its vertex; a loop
    # meets the vertex twice, so its value is 3/2, flipped inward where
    # the residual boundary is positive (net outflow)
    l1, l2 = g.num_edges - 2, g.num_edges - 1
    residual = boundary(g, FlowAssignment(Orientation(frozenset(rev)), tuple(per_edge)))
    per_edge[l1] = Fraction(3, 2)
    per_edge[l2] = Fraction(3, 2)
    for eid, v in ((l1, 0), (l2, 1)):
        if residual[v] > 0:
            rev.add(eid)
    fa = FlowAssignment(Orientation(frozenset(rev)), tuple(per_edge))
    res = check_flow(g, fa, FlowKind.circular(Fraction(3)))
    if not res.ok:
        raise InvariantViolation(f"loop witness construction broke: {res.violation}")
    return fa


def wheel_w5() -> SignedGraph:
    """All-positive wheel: hub 0, rim 1-5; edge ids 0-4 rim, 5-9 spokes."""
    edges = [Edge(1 + i, 1 + (i + 1) % 5, 1) for i in range(5)]
    edges += [Edge(0, 1 + i, 1) for i in range(5)]
    return SignedGraph(6, tuple(edges))


def w5_all_signatures() -> list[SignedGraph]:
    """Every switching-inequivalent signature of the 5-wheel.

    Representatives are the lexicographically smallest sign vector of
    each class (positive < negative), in sorted order; 32 in all.  With
    signs negated, they are ``_signature_classes`` of the edges in order.
    """
    g = wheel_w5()
    pairs = tuple((min(e.u, e.v), max(e.u, e.v)) for e in g.edges)
    return [SignedGraph(6, tuple(Edge(e.u, e.v, -1 if d else 1)
                                 for e, d in zip(g.edges, digits)))
            for digits in _signature_classes(6, pairs, [tuple(range(6))])]


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _connected_spanning(n: int, pairs: tuple[tuple[int, int], ...]) -> bool:
    reach = 1  # vertex mask reached from vertex 0; pairs are grown until stable
    while True:
        before = reach
        for u, v in pairs:
            if (reach >> u | reach >> v) & 1:
                reach |= 1 << u | 1 << v
        if reach == before:
            return reach == (1 << n) - 1


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
    pairs: tuple[tuple[int, int], ...], pos: list[int]
) -> tuple[tuple[int, int], ...]:
    out = []
    for u, v in pairs:
        a, b = pos[u], pos[v]
        out.append((a, b) if a <= b else (b, a))
    out.sort()
    return tuple(out)


def _canonical_automorphisms(n: int, pairs: tuple[tuple[int, int], ...], deg: list[int]):
    """The automorphisms of the pair multiset, or None when ``pairs`` is
    not its own canonical form.

    The canonical form is the lex-least relabeling among degree-sorted
    orders.  ``deg`` is sorted, so the identity is one of those orders and
    the canonical form is at most ``pairs``: ``pairs`` is canonical unless
    some order relabels it lex-smaller, and the scan stops at the first
    that does.  Otherwise the orders that relabel it to itself are
    returned as vertex->position maps.
    """
    maps: list[tuple[int, ...]] = []
    for order in _degree_sorting_orders(n, deg):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        cand = _relabel_pairs(pairs, pos)
        if cand < pairs:
            return None
        if cand == pairs:
            maps.append(tuple(pos))
    return maps


def _degree_sorted_multisets(n: int, m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Multisets of m vertex pairs on n vertices whose degrees are sorted.

    Yields the tuples of ``combinations_with_replacement`` over the
    lex-ordered pairs (loops included) that list vertex degrees, a loop
    counting 2, in nondecreasing order, in the same order, but grows them
    depth first and never builds the others.  Pairs come in lex order, so
    no later pair touches a vertex below the last pair's first endpoint:
    those degrees are final and must already be sorted.  The remaining r
    pairs bring 2r degree units, so the shortfall of the other vertices
    below the running maximum of the degrees before them must be at most
    2r.
    """
    all_pairs = [(u, v) for u in range(n) for v in range(u, n)]
    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def extend(start: int, r: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if r == 0:
            yield tuple(chosen)
            return
        r -= 1
        for i in range(start, len(all_pairs)):
            u, v = pair = all_pairs[i]
            deg[u] += 1
            deg[v] += 1
            top = short = 0
            for w, d in enumerate(deg):
                if d >= top:
                    top = d
                elif w < u:
                    # a final degree is out of order, and a later pair
                    # has a first endpoint >= u, so none can repair it
                    deg[u] -= 1
                    deg[v] -= 1
                    return
                else:
                    short += top - d
            if short <= 2 * r:
                chosen.append(pair)
                yield from extend(i, r)
                chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    return extend(0, m)


def _signature_classes(
    n: int, pairs: tuple[tuple[int, int], ...], auts: list[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """One signature per switching x automorphism class, the lex-first.

    A signature is held as its digits: per distinct pair (group), in
    order of first appearance, the number d of its c parallel edges that
    are positive.  Increasing digits is lex order of sign vectors
    (negative first), and the classes come in that order.

    A pivot is a non-loop group joining two components of the groups
    before it (Kruskal order).  The pivots are a spanning forest, so what
    a switching does is fixed by the pivots it flips, and it changes no
    group before the first of them, whose d it takes to c - d.  So x is
    switching-least iff d <= c - d at every pivot and no switching that
    flips only tied pivots (2d = c) makes x smaller.  Only such digits
    are generated; a candidate with a tie is compared with its tie
    flips, and each automorphism image of it with the least of that
    image's switching class.  ``auts`` is the automorphism group, as
    vertex -> position maps.
    """
    groups = list(dict.fromkeys(pairs))
    comp = [1 << v for v in range(n)]  # vertex mask of each vertex's component
    steps = []  # (u, v, c, flip): at a pivot, the side of u to switch, else 0
    for u, v in groups:
        flip = 0
        if not comp[u] >> v & 1:
            flip = comp[u]
            joined = flip | comp[v]
            comp = [joined if joined >> w & 1 else k for w, k in enumerate(comp)]
        steps.append((u, v, pairs.count((u, v)), flip))
    ties = [(j, c // 2) for j, (_, _, c, flip) in enumerate(steps) if flip and c % 2 == 0]
    # x[a(j)] at each group j is x's image under a's inverse, also in auts
    moved = set()
    if len(auts) > 1:
        index = {p: j for j, p in enumerate(groups)}
        moved = {tuple(index[min(a[u], a[v]), max(a[u], a[v])] for u, v in groups) for a in auts}
        moved.discard(tuple(range(len(groups))))
    images = [itemgetter(*src) for src in moved]

    def below(y: tuple[int, ...], x: tuple[int, ...]) -> bool:
        # whether a switching of y is lex-smaller than x; live holds the
        # switchings that keep y least and equal to x so far: a pivot's
        # digit fixes its flip, or doubles them when it ties
        live = [0]
        for (u, v, c, flip), d, want in zip(steps, y, x):
            keep = []
            for s in live:
                e = c - d if (s >> u ^ s >> v) & 1 else d
                if flip and 2 * e > c:
                    e, s = c - e, s ^ flip
                if e < want:
                    return True
                if e == want:
                    keep += (s, s ^ flip) if flip and 2 * e == c else (s,)
            if not keep:
                return False
            live = keep
        return False

    for x in itertools.product(*(range(c // 2 + 1 if flip else c + 1)
                                 for _, _, c, flip in steps)):
        if ties and any(x[j] == h for j, h in ties) and below(x, x):
            continue
        for image in images:
            if below(image(x), x):
                break
        else:
            yield x


def enumerate_signed_graphs(
    max_v: int = MAX_ENUM_VERTICES, max_e: int = MAX_ENUM_EDGES
) -> Iterator[SignedGraph]:
    """All connected signed multigraphs within bounds, one per class.

    Classes are taken under vertex relabeling and switching together.
    Underlying multigraphs stream in (vertex count, edge count, edge
    list) order; signatures per graph stream lex-first.  Loops and
    parallel edges are included; the edgeless one-vertex graph is not.

    Only edge lists with nondecreasing vertex degrees (a loop counting
    2) are generated (``_degree_sorted_multisets``), since a canonical
    form has them; one is kept if it is its own canonical form.  Its
    signatures are the lex-first of each class: at every pivot, a pair
    joining two components of the pairs before it, at most half the
    parallel edges are positive.  One with a pivot at exactly half is
    kept only if no switching of its tied pivots gives a lex-smaller
    signature, and, where the edge list has automorphisms, only if no
    automorphism image switches to one (``_signature_classes``).
    """
    bounds = (("max_v", max_v, MAX_ENUM_VERTICES), ("max_e", max_e, MAX_ENUM_EDGES))
    for name, bound, top in bounds:
        if isinstance(bound, bool) or not isinstance(bound, int) or not 1 <= bound <= top:
            raise PreconditionError(f"{name} must be an integer in 1..{top}, got {bound!r}")
    # Edge is frozen, so every graph shares one object per (u, v, sign)
    edge = {(u, v, s): Edge(u, v, s)
            for u in range(max_v) for v in range(u, max_v) for s in (-1, 1)}
    for n in range(1, max_v + 1):
        for m in range(max(1, n - 1), max_e + 1):
            for pairs in _degree_sorted_multisets(n, m):
                if not _connected_spanning(n, pairs):
                    continue
                deg = [0] * n
                for u, v in pairs:
                    deg[u] += 1
                    deg[v] += 1
                auts = _canonical_automorphisms(n, pairs, deg)
                if auts is None:
                    continue
                # per group and digit d, its edges: c - d negative, then d positive
                runs = [[(edge[u, v, -1],) * (c - d) + (edge[u, v, 1],) * d
                         for d in range(c + 1)] for (u, v), c in Counter(pairs).items()]
                for digits in _signature_classes(n, pairs, auts):
                    yield SignedGraph(n, sum(map(getitem, runs, digits), ()))


def random_signed_graph(
    seed: int,
    num_vertices: int,
    num_edges: int,
    neg_prob: float = 0.5,
) -> SignedGraph:
    """Seed-deterministic connected signed multigraph.

    A random spanning tree guarantees connectivity; remaining edges are
    uniform over all vertex pairs (loops included) with independent
    negative signs at probability neg_prob.
    """
    if num_vertices < 1:
        raise PreconditionError("num_vertices must be >= 1")
    if num_edges < num_vertices - 1:
        raise PreconditionError("num_edges must be >= num_vertices - 1")
    if not (0.0 <= neg_prob <= 1.0):
        raise PreconditionError("neg_prob must be in [0, 1]")
    rng = random.Random(seed)
    edges: list[Edge] = []
    verts = list(range(num_vertices))
    rng.shuffle(verts)
    for i in range(1, num_vertices):
        u = verts[rng.randrange(i)]
        v = verts[i]
        sign = -1 if rng.random() < neg_prob else 1
        edges.append(Edge(min(u, v), max(u, v), sign))
    while len(edges) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        sign = -1 if rng.random() < neg_prob else 1
        edges.append(Edge(min(u, v), max(u, v), sign))
    return SignedGraph(num_vertices, tuple(edges))


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic description of a generated corpus.

    family: petersen-fig1 | g-family | w5-all-signatures | enumerate | random
    params: family-specific integers/floats, sorted by key; a key the
    family does not take, or one parameter given twice, is refused.
    """

    family: str
    params: tuple[tuple[str, float], ...] = field(default=())

    # the parameters each family takes, each as its accepted spellings
    _KEYS = {
        "petersen-fig1": (),
        "g-family": (("t",),),
        "w5-all-signatures": (),
        "enumerate": (("max_v",), ("max_e",)),
        "random": (
            ("seed",),
            ("v", "num_vertices"),
            ("e", "num_edges"),
            ("neg_prob",),
            ("count",),
        ),
    }
    # sizes, counts and seeds: int() would silently truncate a float
    _INT_PARAMS = frozenset(
        {"max_v", "max_e", "t", "seed", "v", "num_vertices", "e", "num_edges", "count"}
    )

    def __post_init__(self) -> None:
        if self.family not in self._KEYS:
            raise PreconditionError(f"unknown corpus family {self.family!r}")
        spellings = {key: names for names in self._KEYS[self.family] for key in names}
        given: set[tuple[str, ...]] = set()
        for key, val in self.params:
            names = spellings.get(key)
            if names is None:
                raise PreconditionError(
                    f"corpus family {self.family!r} takes no parameter {key!r}")
            if names in given:
                raise PreconditionError(
                    f"corpus parameter {'/'.join(names)!r} given more than once")
            given.add(names)
            if key in self._INT_PARAMS and not isinstance(val, int):
                raise PreconditionError(
                    f"corpus parameter {key!r} must be an integer, got {val!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def parse(cls, text: str) -> "CorpusSpec":
        """Parse "family" or "family:key=value,key=value"."""
        family, _, rest = text.partition(":")
        params = []
        if rest:
            for item in rest.split(","):
                key, eq, val = item.partition("=")
                if not eq:
                    raise PreconditionError(f"bad corpus parameter {item!r}")
                try:
                    num = int(val)
                except ValueError:
                    try:
                        num = float(val)
                    except ValueError:
                        raise PreconditionError(
                            f"corpus parameter {item!r} is not a number") from None
                params.append((key.strip(), num))
        return cls(family.strip(), tuple(params))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.params)
        return f"{self.family}:{inner}"

    def _get(self, *keys: str, default=None):
        # several spellings may name the same parameter (v / num_vertices)
        for k, v in self.params:
            if k in keys:
                return v
        if default is None:
            raise PreconditionError(
                f"corpus spec {self} missing parameter {keys[0]!r}")
        return default

    def build(self) -> list[SignedGraph]:
        if self.family == "petersen-fig1":
            return [signed_petersen()]
        if self.family == "g-family":
            return [g_family(self._get("t"))]
        if self.family == "w5-all-signatures":
            return w5_all_signatures()
        if self.family == "enumerate":
            max_v = self._get("max_v", default=MAX_ENUM_VERTICES)
            max_e = self._get("max_e", default=MAX_ENUM_EDGES)
            return list(enumerate_signed_graphs(max_v, max_e))
        if self.family == "random":
            seed = self._get("seed")
            nv = self._get("v", "num_vertices")
            ne = self._get("e", "num_edges")
            prob = float(self._get("neg_prob", default=0.5))
            count = self._get("count", default=1)
            if count < 1:
                raise PreconditionError("count must be >= 1")
            return [
                random_signed_graph(seed + i, nv, ne, prob)
                for i in range(count)
            ]
        raise PreconditionError(f"unknown corpus family {self.family!r}")
