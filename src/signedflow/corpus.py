"""Instance generators: named graphs, signature sweeps, bounded enumeration.

The exhaustive enumerator emits one representative per equivalence class
under relabeling x switching.  Everything the suites measure is invariant
under both, so collapsing classes loses no coverage and keeps desk-scale
runs fast; class soundness is tested pairwise on small runs.  Edge lists
are walked once per vertex count, connected and with sorted vertex
degrees only, and the canonical test reads one relabel table per degree
sequence: every degree-sorting vertex order as a permutation of pair
indices.  Signatures come in a pivot normal
form: at each pivot (a pair joining two components of the pairs before
it) at most half the parallel edges are positive, and only a tie at a
pivot or an automorphism costs a comparison (``_signature_rule``).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator

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


def _degree_sorting_orders(
    n: int, deg: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The relabel table of a sorted degree sequence.

    One row per vertex order but the identity that lists ``deg``
    nondecreasingly (every rearrangement of tied degrees): the order as
    a vertex -> position map, and the permutation it induces on the
    indices of the lex-ordered pairs.
    """
    index = {p: i for i, p in enumerate((u, v) for u in range(n) for v in range(u, n))}
    blocks = [[v for v in range(n) if deg[v] == d] for d in sorted(set(deg))]
    rows = []
    for choice in itertools.product(*map(itertools.permutations, blocks)):
        pos = [0] * n
        for i, v in enumerate(itertools.chain.from_iterable(choice)):
            pos[v] = i
        perm = tuple(index[min(pos[u], pos[v]), max(pos[u], pos[v])] for u, v in index)
        rows.append((tuple(pos), perm))
    return rows[1:]  # the first order is the identity


def _canonical_automorphisms(
    x: tuple[int, ...], table: list[tuple[tuple[int, ...], tuple[int, ...]]]
) -> list[tuple[int, ...]] | None:
    """The automorphisms of a pair multiset but the identity, or None
    when it is not its own canonical form.

    ``x`` is the multiset as sorted pair indices and ``table`` the
    relabel table of its sorted degree sequence.  The canonical form is
    the lex-least relabeling among degree-sorted orders, and the
    identity is one of them, so ``x`` is canonical unless some row
    relabels it lex-smaller; the scan stops at the first that does.
    Otherwise the rows that relabel it to itself are returned as
    vertex->position maps.
    """
    xs = list(x)
    maps = []
    for pos, perm in table:
        cand = sorted(map(perm.__getitem__, x))
        if cand < xs:
            return None
        if cand == xs:
            maps.append(pos)
    return maps


def _connected_multisets(n: int, max_e: int) -> list[list[tuple[tuple, ...]]]:
    """The connected multisets of at most max_e pairs on n vertices with
    sorted degrees, per size.

    Entry m lists, in the order of ``combinations_with_replacement``
    over the lex-ordered pairs (loops included), the multisets of m
    pairs that span all n vertices and list vertex degrees, a loop
    counting 2, in nondecreasing order: each as its pairs, its pair
    indices and its degrees.  One depth-first walk grows them for every
    m and never builds the others.  Pairs come in lex order, so no later
    pair touches a vertex below the current pair's first endpoint u:
    those degrees are final and must already be sorted, and a component
    lying wholly below u can never join the rest.  The remaining r pairs
    bring 2r degree units, so the shortfall of the other vertices below
    the running maximum of the degrees before them must be at most 2r.
    """
    all_pairs = [(u, v) for u in range(n) for v in range(u, n)]
    full = (1 << n) - 1
    found: list[list[tuple[tuple, ...]]] = [[] for _ in range(max_e + 1)]
    deg = [0] * n
    comp = tuple(1 << v for v in range(n))  # vertex mask of each vertex's component
    at: list[int] = []  # the index in all_pairs of each chosen pair
    saved: list[tuple[int, ...]] = []  # comp before each chosen pair
    i = 0
    while True:
        while i < len(all_pairs):
            u, v = all_pairs[i]
            if u == v and u and not comp[u - 1] >> u:
                # u - 1 is newly final and its component lies below u
                break
            deg[u] += 1
            deg[v] += 1
            top = short = 0
            for w, d in enumerate(deg):
                if d >= top:
                    top = d
                elif w < u:
                    # a final degree is out of order, and a later pair
                    # has a first endpoint >= u, so none can repair it
                    i = len(all_pairs)
                    break
                else:
                    short += top - d
            else:
                if short <= 2 * (max_e - 1 - len(at)):
                    joined = comp[u] | comp[v]
                    new = comp if joined == comp[u] else tuple(
                        joined if c & joined else c for c in comp)
                    if not short and new[0] == full:
                        idx = (*at, i)
                        found[len(idx)].append(
                            (tuple(map(all_pairs.__getitem__, idx)), idx, tuple(deg)))
                    if len(at) + 1 < max_e:
                        at.append(i)  # one level deeper, from this same pair
                        saved.append(comp)
                        comp = new
                        continue
            deg[u] -= 1
            deg[v] -= 1
            i += 1
        if not at:
            return found
        # no pair is left at this depth: step back
        i = at.pop()
        comp = saved.pop()
        u, v = all_pairs[i]
        deg[u] -= 1
        deg[v] -= 1
        i += 1


def _signature_rule(
    n: int, pairs: tuple[tuple[int, int], ...], auts: list[tuple[int, ...]]
) -> tuple[list[tuple[int, int, int, int]], Callable[[tuple[int, ...]], bool]]:
    """The groups of ``pairs`` and the filter of their candidate digits.

    Returns (steps, kept): per group (u, v, c, flip), the pair, its
    multiplicity and, at a pivot, the side of u to switch, else 0; and
    the predicate a candidate must pass to be the lex-first of its
    class.  See ``_signature_classes``.
    """
    comp = [1 << v for v in range(n)]  # vertex mask of each vertex's component
    steps = []
    ties = []  # (j, c / 2, flip) at each pivot j with an even c
    for (u, v), c in Counter(pairs).items():
        flip = comp[u]
        if flip >> v & 1:
            flip = 0
        else:
            joined = flip | comp[v]
            for w in range(n):
                if joined >> w & 1:
                    comp[w] = joined
            if c % 2 == 0:
                ties.append((len(steps), c // 2, flip))
        steps.append((u, v, c, flip))
    images = []
    if auts:
        # x[a(j)] at each group j is x's image under a's inverse, also in auts
        index = {(u, v): j for j, (u, v, _, _) in enumerate(steps)}
        moved = {tuple(index[min(a[u], a[v]), max(a[u], a[v])] for u, v, _, _ in steps)
                 for a in auts}
        moved.discard(tuple(range(len(steps))))
        images = [itemgetter(*src) for src in moved]
    last = len(steps)

    def below(y: tuple[int, ...], x: tuple[int, ...], j: int, s: int) -> bool:
        # whether a switching of y that agrees with s before group j and
        # keeps y least is lex-smaller than x, where it equals x before
        # j: a pivot's digit fixes its flip, or tries both on a tie with x
        for j in range(j, last):
            u, v, c, flip = steps[j]
            e = c - y[j] if (s >> u ^ s >> v) & 1 else y[j]
            if flip and 2 * e >= c:
                if 2 * e > c:
                    e = c - e
                    s ^= flip
                elif e == x[j]:
                    return below(y, x, j + 1, s) or below(y, x, j + 1, s ^ flip)
            if e != x[j]:
                return e < x[j]
        return False

    def kept(x: tuple[int, ...]) -> bool:
        # a switching of x itself can be smaller only by flipping a
        # tied pivot, before which it equals x; an image equal to x has
        # no other switchings than x's own
        for j, h, flip in ties:
            if x[j] == h and below(x, x, j + 1, flip):
                return False
        for image in images:
            y = image(x)
            if y != x and below(y, x, 0, 0):
                return False
        return True

    return steps, kept


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
    flips, and each automorphism image of it other than itself with the
    least of that image's switching class.  ``auts`` holds
    automorphisms, as vertex -> position maps; the identity may be among
    them.
    """
    steps, kept = _signature_rule(n, pairs, auts)
    candidates = itertools.product(*(range(c // 2 + 1 if flip else c + 1)
                                     for _, _, c, flip in steps))
    return filter(kept, candidates)


def enumerate_signed_graphs(
    max_v: int = MAX_ENUM_VERTICES, max_e: int = MAX_ENUM_EDGES
) -> Iterator[SignedGraph]:
    """All connected signed multigraphs within bounds, one per class.

    Classes are taken under vertex relabeling and switching together.
    Underlying multigraphs stream in (vertex count, edge count, edge
    list) order; signatures per graph stream lex-first.  Loops and
    parallel edges are included; the edgeless one-vertex graph is not.

    Only connected edge lists with nondecreasing vertex degrees (a loop
    counting 2) are generated, by one walk per vertex count that hands
    each over with its pair indices and degrees (``_connected_multisets``),
    since a canonical form has sorted degrees.  One is kept if it is its
    own canonical form: each degree sequence gets a relabel table once
    per call, one pair-index permutation per degree-sorting vertex order,
    and an edge list passes if no row relabels it lex-smaller
    (``_canonical_automorphisms``).  Its signatures are the lex-first of
    each class: at every pivot, a pair joining two components of the
    pairs before it, at most half the parallel edges are positive.  One
    with a pivot at exactly half is kept only if no switching of its
    tied pivots gives a lex-smaller signature, and, where the edge list
    has automorphisms, only if no automorphism image switches to one
    (``_signature_classes``).  Edge tuples are built group by group,
    each candidate's from its prefix over the groups before the last.
    """
    bounds = (("max_v", max_v, MAX_ENUM_VERTICES), ("max_e", max_e, MAX_ENUM_EDGES))
    for name, bound, top in bounds:
        if isinstance(bound, bool) or not isinstance(bound, int) or not 1 <= bound <= top:
            raise PreconditionError(f"{name} must be an integer in 1..{top}, got {bound!r}")
    # Edge is frozen, so every graph shares one object per (u, v, sign)
    edge = {(u, v, s): Edge(u, v, s)
            for u in range(max_v) for v in range(u, max_v) for s in (-1, 1)}
    run_of: dict[tuple[int, int, int, int], list[tuple[Edge, ...]]] = {}
    for n in range(1, max_v + 1):
        tables: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for found in _connected_multisets(n, max_e):
            for pairs, at, key in found:
                table = tables.get(key)
                if table is None:
                    table = tables[key] = _degree_sorting_orders(n, key)
                auts = _canonical_automorphisms(at, table)
                if auts is None:
                    continue
                steps, kept = _signature_rule(n, pairs, auts)
                runs = []
                for u, v, c, flip in steps:
                    shape = u, v, c, c // 2 + 1 if flip else c + 1
                    run = run_of.get(shape)
                    if run is None:
                        # per digit d, the group's edges: c - d negative, then d positive
                        run = run_of[shape] = [(edge[u, v, -1],) * (c - d) + (edge[u, v, 1],) * d
                                               for d in range(shape[3])]
                    runs.append(run)
                heads = [()]
                for run in runs[:-1]:
                    heads = [h + r for h in heads for r in run]
                candidates = (h + r for h in heads for r in runs[-1])
                flags = map(kept, itertools.product(*(range(len(run)) for run in runs)))
                for edges in itertools.compress(candidates, flags):
                    yield SignedGraph(n, edges)


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
