"""Constructive flow transformations on signed multigraphs.

Four algorithms live here, each one an explicit, step-checked version of
an existence argument:

* modulo-to-integer conversion: a scheduler of vertex switchings and
  "minusings" (reverse an edge and replace f by k-f) that drives the
  total boundary deficiency eta to zero, then unwinds its journal;
* decomposition of a positive integer k-flow into k-1 non-negative
  2-flows;
* decomposition of a flow-admissible eulerian signed graph into balanced
  circuits and short barbells;
* normalization of a circular flow onto the 1/q value grid by pushing
  along signed circuits of the off-grid subgraph.

Every step re-checks the quantity it is supposed to improve; a violated
guarantee raises InvariantViolation instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    _boundary,
    boundary,
    check_flow,
    connected_components,
    edge_subgraph,
    is_eulerian,
    lift_flow,
)
from .errors import (
    InvariantViolation,
    NotFlowAdmissibleError,
    PreconditionError,
    ResourceCapExceeded,
)
from .solve import _resolve_cap, find_2_flow_on_even_graph, signed_circuit_flow
from .structure import (
    SignedCircuitWitness,
    _circuit_walk,
    _component_negative_parities,
    _peel_circuits,
    circuit_vertices,
    classify_signed_circuit,
    find_long_barbell,
    find_signed_circuit,
    is_flow_admissible,
    is_unbalanced_circuit,
)

__all__ = [
    "TRANSFORM_SEARCH_CAP",
    "ConversionState",
    "EulerianDecomposition",
    "NormalizationState",
    "find_negative_ditrail",
    "run_modflow_conversion",
    "decompose_into_2_flows",
    "eulerian_decompose",
    "normalize_circular_flow",
]

# Ditrail/tadpole searches track used-edge sets, so they are exponential
# in the worst case; the cap keeps failure honest rather than silent.
TRANSFORM_SEARCH_CAP = 10**7


class _Budget:
    """Shared search-step counter with a hard cap."""

    __slots__ = ("cap", "spent", "label")

    def __init__(self, cap: Optional[int], label: str):
        self.cap = _resolve_cap(cap, TRANSFORM_SEARCH_CAP)
        self.spent = 0
        self.label = label

    def tick(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.cap:
            raise ResourceCapExceeded(
                f"{self.label}: search cap exhausted", cap=self.cap, spent=self.spent
            )


# ---------------------------------------------------------------------------
# conversion state


class ConversionState:
    """Mutable working state of the modulo-to-integer conversion.

    Tracks explicit half-edge directions (``dirs[e] = [tau at end 0,
    tau at end 1]``) and integer values in the open interval (0, k).
    Switching flips all half-edges at a vertex set; minusing reverses
    whole edges and replaces f by k - f.  Both are journalled so a
    finished run can be replayed or unwound.

    Invariants kept by every operation: 0 < f(e) < k, and every vertex
    boundary is a multiple of k.
    """

    def __init__(self, g: SignedGraph, k: int, dirs: list[list[int]], values: list[int]):
        self.graph = g
        self.k = k
        self.dirs = dirs
        self.values = values
        self.journal: list[tuple[str, tuple[int, ...]]] = []
        self.bnd: list[int] = []
        self.eta = 0
        self.sources: tuple[int, ...] = ()
        self.moves: list[tuple[list[tuple[int, int, int]], ...]] = []
        self.refresh()

    @classmethod
    def lift(cls, g: SignedGraph, fa: FlowAssignment, k: int) -> "ConversionState":
        """Interpret reduced modulo-k values as integers in (0, k)."""
        dirs = [list(d) for d in fa.orientation.directions(g)]
        values = [int(v) for v in fa.values]
        if any(not (0 < v < k) for v in values):
            raise PreconditionError("modulo values must be reduced to 1..k-1")
        return cls(g, k, dirs, values)

    # -- journalled operations ------------------------------------------

    def switch_at(self, vertices: Iterable[int]) -> None:
        vs = tuple(sorted(set(vertices)))
        if not vs:
            return
        for v in vs:
            if not (0 <= v < self.graph.num_vertices):
                raise PreconditionError(f"vertex id {v} out of range")
        for v in vs:
            for eid, end in self.graph.incidence[v]:
                self.dirs[eid][end] = -self.dirs[eid][end]
        self.journal.append(("switch", vs))
        self.refresh()

    def minus(self, edge_ids: Iterable[int]) -> None:
        ids = tuple(sorted(set(edge_ids)))
        if not ids:
            return
        for eid in ids:
            if not (0 <= eid < self.graph.num_edges):
                raise PreconditionError(f"edge id {eid} out of range")
            d = self.dirs[eid]
            d[0], d[1] = -d[0], -d[1]
            self.values[eid] = self.k - self.values[eid]
        self.journal.append(("minus", ids))
        self.refresh()

    # -- derived views ---------------------------------------------------

    def refresh(self) -> None:
        g, dirs = self.graph, self.dirs
        bnd = self.bnd = _boundary(g, dirs, self.values)
        self.eta = sum(abs(b) for b in bnd)
        self.sources = tuple(v for v, b in enumerate(bnd) if b > 0)
        # moves[v][need > 0]: (edge, far end, tau there) for each
        # half-edge at v whose tau is need, in incidence order
        moves = self.moves = [([], []) for _ in range(g.num_vertices)]
        for eid, (e, (t0, t1)) in enumerate(zip(g.edges, dirs)):
            moves[e.u][t0 > 0].append((eid, e.v, t1))
            moves[e.v][t1 > 0].append((eid, e.u, t0))

    def assert_invariants(self) -> None:
        k = self.k
        for eid, v in enumerate(self.values):
            if not (0 < v < k):
                raise InvariantViolation(f"value {v} outside (0,{k}) on edge {eid}")
        for v, b in enumerate(self.bnd):
            if b % k != 0:
                raise InvariantViolation(f"boundary {b} not a multiple of {k} at {v}")

    @property
    def switch_log(self) -> tuple[tuple[int, ...], ...]:
        return tuple(pay for op, pay in self.journal if op == "switch")

    @property
    def minus_log(self) -> tuple[tuple[int, ...], ...]:
        return tuple(pay for op, pay in self.journal if op == "minus")

    def net_minused(self) -> frozenset[int]:
        out: set[int] = set()
        for ids in self.minus_log:
            out.symmetric_difference_update(ids)
        return frozenset(out)


# ---------------------------------------------------------------------------
# directed-walk searches over a conversion state
#
# A walk departs a vertex through a half-edge with tau = +1 and at every
# intermediate vertex the arriving and departing half-edges must have
# opposite tau.  The walk is "negative" when its final half-edge also
# points out (tau = +1) and "positive" when it points in.  The searches
# read their steps off the state's move table: a walk that must leave v
# through tau = need takes a move (edge, w, arr) of moves[v][need > 0]
# and must leave w through -arr.  The validators below read dirs.


def _walk_chain(
    state: ConversionState, start: int, edges: Sequence[int]
) -> Optional[tuple[list[int], int]]:
    """Resolve a walk's vertex sequence and final arrival polarity.

    Returns (vertex sequence, tau of last arrival half-edge) or None if
    the edges do not chain.  Half-edge choices at loops are forced by
    the chaining rule, ties broken toward end 0.
    """
    g = state.graph
    v = start
    need = 1  # a diwalk must leave its start through tau = +1
    seq = [v]
    arr = 0
    for eid in edges:
        e = g.edges[eid]
        if e.u == e.v:
            if v != e.u:
                return None
            end = 0 if state.dirs[eid][0] == need else 1
        elif v == e.u:
            end = 0
        elif v == e.v:
            end = 1
        else:
            return None
        if state.dirs[eid][end] != need:
            return None
        arr = state.dirs[eid][1 - end]
        v = e.endpoint(1 - end)
        seq.append(v)
        need = -arr
    if not edges:
        return None
    return seq, arr


def _is_positive_dipath(
    state: ConversionState, start: int, end: int, edges: Sequence[int]
) -> bool:
    if not edges:
        return start == end
    res = _walk_chain(state, start, edges)
    if res is None:
        return False
    seq, arr = res
    return (
        seq[-1] == end
        and arr == -1
        and len(set(seq)) == len(seq)
        and len(set(edges)) == len(edges)
    )


def _ditrail_reachable(state: ConversionState, x: int, y: int) -> bool:
    """Whether a directed walk, edges reusable, leaves x through an
    outward half-edge and ends at y through an outward half-edge.

    A plain search over states (vertex, tau the next half-edge must
    have), each expanded once: O(n + m)."""
    moves = state.moves
    seen = {(x, 1)}
    todo = [(x, 1)]
    while todo:
        v, need = todo.pop()
        for _, w, arr in moves[v][need > 0]:
            if w == y and arr == 1:
                return True
            if (w, -arr) not in seen:
                seen.add((w, -arr))
                todo.append((w, -arr))
    return False


def find_negative_ditrail(
    state: ConversionState,
    x: int,
    y: int,
    cap: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """Edge-simple directed walk from x ending at y through an outward
    half-edge, or None when provably none exists.

    x == y asks for a closed negative ditrail (at least one edge).
    First a reachability check over states (vertex, tau the next
    half-edge must have) with edges reusable: a ditrail is such a walk
    that repeats no edge, so when y cannot be reached that way none
    exists, and None is exact, in O(n + m) and with no search step
    spent.  Otherwise a depth-first search, edges tried in ascending id
    order, returns its first hit, or None once it has tried every trail.
    """
    budget = _Budget(cap, "negative ditrail search")
    if not _ditrail_reachable(state, x, y):
        return None
    return _negative_ditrail_search(state, x, y, budget)


def _negative_ditrail_search(
    state: ConversionState, x: int, y: int, budget: _Budget
) -> Optional[tuple[int, ...]]:
    """``find_negative_ditrail``'s depth-first search, one step per edge tried."""
    used = [False] * state.graph.num_edges
    path: list[int] = []
    moves = state.moves

    def rec(v: int, need: int) -> bool:
        for eid, w, arr in moves[v][need > 0]:
            if used[eid]:
                continue
            budget.tick()
            used[eid] = True
            path.append(eid)
            if w == y and arr == 1:
                return True
            if rec(w, -arr):
                return True
            used[eid] = False
            path.pop()
        return False

    if rec(x, 1):
        return tuple(path)
    return None


def _positive_dipath_search(
    state: ConversionState,
    x: int,
    y: int,
    budget: _Budget,
    forbid_edge: Optional[int] = None,
) -> Optional[tuple[tuple[int, int], ...]]:
    """Vertex-simple directed walk from x arriving at y through an inward
    half-edge, as its (edge, vertex reached) steps.  Entering y any other
    way is a dead branch: the path could never end there afterwards."""
    if x == y:
        return ()
    moves = state.moves
    visited = {x}
    path: list[tuple[int, int]] = []

    def rec(v: int, need: int) -> bool:
        for eid, w, arr in moves[v][need > 0]:
            if eid == forbid_edge or w in visited:
                continue
            budget.tick()
            if w == y:
                if arr == -1:
                    path.append((eid, w))
                    return True
                continue
            visited.add(w)
            path.append((eid, w))
            if rec(w, -arr):
                return True
            visited.discard(w)
            path.pop()
        return False

    if rec(x, 1):
        return tuple(path)
    return None


def _dipath_reach(
    state: ConversionState, x: int, budget: _Budget
) -> tuple[frozenset[int], frozenset[int]]:
    """(Y+, Y-): vertices reachable from x by a positive / only by a
    negative vertex-simple directed walk."""
    moves = state.moves
    pos = {x}
    neg: set[int] = set()
    visited = {x}

    def rec(v: int, need: int) -> None:
        for _, w, arr in moves[v][need > 0]:
            if w in visited:
                continue
            budget.tick()
            (pos if arr == -1 else neg).add(w)
            visited.add(w)
            rec(w, -arr)
            visited.discard(w)

    rec(x, 1)
    return frozenset(pos), frozenset(neg - pos)


@dataclass(frozen=True)
class Tadpole:
    """A positive dipath (tail) from ``tail_end`` to ``meet`` plus a
    closed negative ditrail (head) at ``meet`` touching the tail only
    there.  An empty tail means tail_end == meet."""

    tail: tuple[int, ...]
    head: tuple[int, ...]
    tail_end: int
    meet: int


def _validate_tadpole(state: ConversionState, tp: Tadpole) -> bool:
    if tp.tail:
        if not _is_positive_dipath(state, tp.tail_end, tp.meet, tp.tail):
            return False
        tail_res = _walk_chain(state, tp.tail_end, tp.tail)
        tail_verts = set(tail_res[0]) if tail_res else set()
    else:
        if tp.tail_end != tp.meet:
            return False
        tail_verts = {tp.tail_end}
    if not tp.head or len(set(tp.head)) != len(tp.head):
        return False
    head_res = _walk_chain(state, tp.meet, tp.head)
    if head_res is None:
        return False
    head_seq, head_arr = head_res
    if head_seq[-1] != tp.meet or head_arr != 1:
        return False
    if tail_verts & set(head_seq) != {tp.meet}:
        return False
    if set(tp.tail) & set(tp.head):
        return False
    return True


def find_tadpole(
    state: ConversionState, x: int, cap: Optional[int] = None
) -> Optional[Tadpole]:
    """Tadpole with an all-positive tail from x under the current
    directions, or None when none exists.

    Precondition: Y-(x) is empty, i.e. every vertex a directed walk from
    x reaches negatively is also reached positively.  The conversion
    switches Y-(x) away before calling this.

    Construction: walk all-positively to the nearest endpoint u' of a
    sink edge t (a both-outward edge), find a positive dipath from x to
    the other endpoint u'', and splice the two paths at the last edge
    they share.  A spliced tadpole that fails validation raises
    InvariantViolation.

    None is exact under the precondition.  A tadpole's tail followed by
    its head is a negative ditrail from x.  The first negative edge of
    any negative ditrail from x is left outward at both ends, and
    everything before that edge is an all-positive walk from x, so a
    tadpole needs a sink edge at an all-positively reached vertex u'.
    Then x reaches u'' negatively (through t), so with Y-(x) empty also
    along a positive dipath, and the splice succeeds; finding no such
    dipath raises InvariantViolation.
    """
    tp = _tadpole_by_splicing(state, x, _Budget(cap, "tadpole search"))
    if tp is not None and not _validate_tadpole(state, tp):
        raise InvariantViolation(f"spliced tadpole at {x} fails validation: {tp}")
    return tp


def _tadpole_by_splicing(
    state: ConversionState, x: int, budget: _Budget
) -> Optional[Tadpole]:
    # BFS over the positive moves (arrival tau -1); parents give shortest
    # tails.  The sink edge is the first move arriving through tau +1,
    # vertices in BFS order.
    parent: dict[int, tuple[int, int]] = {}
    order = [x]
    seen = {x}
    for u1 in order:
        out = state.moves[u1][True]
        sink = next(((eid, w) for eid, w, arr in out if arr == 1), None)
        if sink is not None:
            break
        for eid, w, arr in out:
            if arr == -1 and w not in seen:
                seen.add(w)
                parent[w] = (u1, eid)
                order.append(w)
    else:
        return None
    t_edge, u2 = sink
    p_prime: list[int] = []
    vseq = [u1]
    v = u1
    while v != x:
        v, eid = parent[v]
        p_prime.append(eid)
        vseq.append(v)
    p_prime.reverse()
    vseq.reverse()  # x .. u1 along the tail candidate
    steps = _positive_dipath_search(state, x, u2, budget, forbid_edge=t_edge)
    if steps is None:
        raise InvariantViolation(
            f"no positive dipath from {x} to {u2}, yet {x} reaches {u2} negatively "
            f"through sink edge {t_edge}, so with Y-({x}) empty, find_tadpole's "
            "precondition, it reaches it along a positive dipath too"
        )
    p_second = [eid for eid, _ in steps]
    shared = set(p_prime) & set(p_second)
    if not shared:
        head = tuple(p_prime) + (t_edge,) + tuple(reversed(p_second))
        return Tadpole((), head, x, x)
    s = max(i for i, eid in enumerate(p_second) if eid in shared)
    x_s = steps[s][1]
    if x_s not in vseq:
        raise InvariantViolation(
            "splice vertex is off the tail candidate, yet it is an end of "
            "an edge the tail candidate shares"
        )
    cut = vseq.index(x_s)
    tail = tuple(p_prime[:cut])
    head = (
        tuple(p_prime[cut:]) + (t_edge,) + tuple(reversed(p_second[s + 1 :]))
    )
    return Tadpole(tail, head, x, x_s)


# ---------------------------------------------------------------------------
# modulo -> integer conversion scheduler


def run_modflow_conversion(
    g: SignedGraph,
    fa: FlowAssignment,
    k: int,
    *,
    allow_even_k: bool = False,
    cap: Optional[int] = None,
) -> tuple[FlowAssignment, ConversionState]:
    """Drive a reduced modulo-k assignment to an integer k-flow.

    Returns the integer flow (under the input orientation, congruent
    edgewise mod k) together with the finished state, whose journal can
    replay the whole run.

    The loop: switch every sink into a source; stop when no sources
    remain; otherwise minus a negative ditrail between two sources
    (eta drops by exactly 2k), or work at a single source x: switch the
    negatively-reached vertex set, find a tadpole at x, and either minus
    its head / the whole tail+head (eta drops 2k) or minus just the tail,
    which relocates the source or grows the source set without changing
    eta.  Termination: eta/(2k) bounds the productive steps and the
    relocation chains between them are bounded by the vertex count.
    """
    if not isinstance(k, int) or k < 2:
        raise PreconditionError("k must be an integer >= 2")
    cap = _resolve_cap(cap, TRANSFORM_SEARCH_CAP)
    if k % 2 == 0 and not allow_even_k:
        raise PreconditionError(
            f"k = {k} is even: conversion is only guaranteed for odd k "
            "(a wheel-with-five-spokes signature defeats k = 4); "
            "pass allow_even_k to experiment anyway"
        )
    res = check_flow(g, fa, FlowKind.modulo(k))
    if not res.ok:
        raise PreconditionError(f"input is not a reduced modulo-{k} flow: {res.violation}")
    if find_long_barbell(g) is not None:
        raise PreconditionError(
            "graph contains a long barbell; conversion is not guaranteed"
        )
    return _convert(g, fa, k, cap)


def _convert(
    g: SignedGraph, fa: FlowAssignment, k: int, cap: int
) -> tuple[FlowAssignment, ConversionState]:
    """The conversion itself, on an input that meets every precondition
    of run_modflow_conversion; each step still checks its invariants."""
    state = ConversionState.lift(g, fa, k)
    n = g.num_vertices
    max_steps = (state.eta // (2 * k) + 2) * (4 * n + 12) + 16
    stats = {"productive": 0, "relocations": 0, "switches": 0}
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise InvariantViolation(
                f"conversion exceeded its step bound ({max_steps}); "
                f"eta={state.eta}, stats={stats}"
            )
        state.assert_invariants()
        sinks = [v for v, b in enumerate(state.bnd) if b < 0]
        if sinks:
            before = state.eta
            state.switch_at(sinks)
            stats["switches"] += 1
            if state.eta != before:
                raise InvariantViolation("sink switching changed eta")
            continue
        sources = state.sources
        if not sources:
            break
        if _step_pair_ditrail(state, sources, cap, stats):
            continue
        if _step_at_source(state, sources, cap, stats):
            continue
        raise InvariantViolation(
            "no applicable conversion step: every source has boundary k and "
            "only tailless tadpoles, which the parity argument rules out "
            f"for valid inputs (sources={sources}, eta={state.eta})"
        )
    out = _unwind(state, fa)
    ok = check_flow(g, out, FlowKind.integer(k))
    if not ok.ok:
        raise InvariantViolation(f"unwound flow fails validation: {ok.violation}")
    for eid, (a, b) in enumerate(zip(out.values, fa.values)):
        if (int(a) - int(b)) % k != 0:
            raise InvariantViolation(f"congruence mod {k} broken on edge {eid}")
    return out, state


def _step_pair_ditrail(
    state: ConversionState,
    sources: tuple[int, ...],
    cap: Optional[int],
    stats: dict,
) -> bool:
    for i, x1 in enumerate(sources):
        for x2 in sources[i + 1 :]:
            trail = find_negative_ditrail(state, x1, x2, cap=cap)
            if trail is not None:
                _productive_minus(state, trail, stats)
                return True
    return False


def _step_at_source(
    state: ConversionState,
    sources: tuple[int, ...],
    cap: Optional[int],
    stats: dict,
) -> bool:
    k = state.k
    for x in sources:
        _, y_minus = _dipath_reach(state, x, _Budget(cap, "reachability scan"))
        bad = [y for y in y_minus if state.bnd[y] != 0]
        if bad:
            # a source here would admit a negative ditrail from x,
            # which the pair step just ruled out
            raise InvariantViolation(
                f"negatively-reached vertices {bad} carry boundary"
            )
        # Switching Y (x not in Y) keeps every walk from x a walk and flips
        # the final polarity of those ending in Y, so after switching
        # Y = Y-(x) once, x reaches the same vertices, all positively.
        state.switch_at(y_minus)
        tp = find_tadpole(state, x, cap=cap)
        if tp is None:
            continue
        y = tp.meet
        if y != x and state.bnd[y] != 0:
            # No sinks remain and only zero-boundary vertices were switched,
            # so y is a source, and tail + head is an edge-simple negative
            # ditrail from x to y.  Reversed, a negative ditrail is one from
            # y to x, and switching vertices of zero boundary keeps it one,
            # so the pair step has just ruled it out.
            raise InvariantViolation(
                f"tadpole at source {x} meets source {y}, a negative ditrail "
                "between two sources that the pair step ruled out"
            )
        if y != x:
            _relocation_minus(state, tp.tail, x, y, stats)
        elif state.bnd[x] >= 2 * k:
            _productive_minus(state, tp.head, stats)
        else:
            continue  # minusing the head would create a sink; try elsewhere
        return True
    return False


def _productive_minus(
    state: ConversionState, edges: Sequence[int], stats: dict
) -> None:
    before = state.eta
    state.minus(edges)
    stats["productive"] += 1
    if state.eta != before - 2 * state.k:
        raise InvariantViolation(
            f"minusing was expected to drop eta by {2 * state.k} "
            f"but went {before} -> {state.eta}"
        )


def _relocation_minus(
    state: ConversionState, edges: Sequence[int], x: int, y: int, stats: dict
) -> None:
    before = state.eta
    bx, by = state.bnd[x], state.bnd[y]
    state.minus(edges)
    stats["relocations"] += 1
    if state.eta != before:
        raise InvariantViolation("tail minusing changed eta")
    if state.bnd[x] != bx - state.k or state.bnd[y] != by + state.k:
        raise InvariantViolation("tail minusing moved boundary incorrectly")


def _unwind(state: ConversionState, fa_in: FlowAssignment) -> FlowAssignment:
    # Edges minused an odd number of times sit reversed relative to the
    # input orientation, so the same physical flow reads as -f there.
    odd = state.net_minused()
    out = [
        -state.values[e] if e in odd else state.values[e]
        for e in range(state.graph.num_edges)
    ]
    return FlowAssignment(fa_in.orientation, tuple(out))


# ---------------------------------------------------------------------------
# sum of non-negative 2-flows


def decompose_into_2_flows(
    g: SignedGraph,
    fa: FlowAssignment,
    k: Optional[int] = None,
) -> list[FlowAssignment]:
    """Write a positive k-flow as exactly k-1 non-negative 2-flows.

    All parts share fa's orientation, take values in {0, 1} and sum
    edgewise to fa.  k defaults to max(f)+1.  The inner conversions
    share the cap of run_modflow_conversion: SG_RESOURCE_CAP, else
    TRANSFORM_SEARCH_CAP steps each.
    """
    cap = _resolve_cap(None, TRANSFORM_SEARCH_CAP)
    vals = [int(v) for v in fa.values]
    if any(Fraction(v) != v for v in fa.values):
        raise PreconditionError("decomposition needs integer values")
    if k is None:
        k = max(vals, default=1) + 1
        k = max(k, 2)
    if any(v < 1 for v in vals):
        raise PreconditionError("decomposition needs positive values; fold signs into the orientation first")
    res = check_flow(g, fa, FlowKind.integer(k))
    if not res.ok:
        raise PreconditionError(f"input is not an integer {k}-flow: {res.violation}")
    if find_long_barbell(g) is not None:
        raise PreconditionError("graph contains a long barbell")
    parts = _decompose_rec(g, vals, k, fa.orientation, cap)
    if len(parts) != k - 1:
        raise InvariantViolation(f"expected {k - 1} parts, got {len(parts)}")
    for part in parts:
        if any(v not in (0, 1) for v in part):
            raise InvariantViolation("part values must be 0 or 1")
        pb = boundary(g, FlowAssignment(fa.orientation, tuple(part)))
        if any(b != 0 for b in pb):
            raise InvariantViolation("part is not a flow")
    for eid in range(g.num_edges):
        if sum(part[eid] for part in parts) != vals[eid]:
            raise InvariantViolation(f"parts do not sum to f on edge {eid}")
    return [FlowAssignment(fa.orientation, tuple(p)) for p in parts]


def _decompose_rec(
    g: SignedGraph, f: list[int], k: int, orient: Orientation, cap: int
) -> list[list[int]]:
    """Recursive split of a non-negative k-flow (values under orient);
    each conversion at an even level stops after cap steps."""
    m = g.num_edges
    if k == 2:
        if any(v not in (0, 1) for v in f):
            raise InvariantViolation("2-flow level holds a value outside {0,1}")
        return [list(f)]
    if k % 2 == 1:
        odd_ids = sorted(i for i in range(m) if f[i] % 2 == 1)
        g0 = [0] * m
        if odd_ids:
            sub, _vb, eback = edge_subgraph(g, odd_ids)
            two = find_2_flow_on_even_graph(sub)
            if two is None:
                raise InvariantViolation("odd-value subgraph admits no 2-flow")
            g0 = lift_flow(g, eback, two, orient).values
        half1, half2 = [], []
        for i in range(m):
            a, b = f[i] + g0[i], f[i] - g0[i]
            if a % 2 or b % 2 or a < 0 or b < 0:
                raise InvariantViolation("odd split produced a bad value")
            half1.append(a // 2)
            half2.append(b // 2)
        k2 = (k + 1) // 2
        return _decompose_rec(g, half1, k2, orient, cap) + _decompose_rec(g, half2, k2, orient, cap)
    # k even: pull out one 2-flow through a modulo-(k-1) conversion
    km1 = k - 1
    core = sorted(i for i in range(m) if 0 < f[i] < km1)
    g0 = [0] * m
    if core:
        sub, _vb, eback = edge_subgraph(g, core)
        # every value on the core is positive, so folding its signed
        # values gives each edge the orientation it has in orient
        signed = FlowAssignment(orient, tuple(f)).signed_values()
        sub_fa = FlowAssignment.from_signed(signed[old] for old in eback)
        ok = check_flow(sub, sub_fa, FlowKind.modulo(km1))
        if not ok.ok:
            raise InvariantViolation(
                f"support subgraph is not a modulo-{km1} flow: {ok.violation}"
            )
        # k - 1 is odd, the input was just checked, and a subgraph of a
        # barbell-free graph is barbell-free
        conv, _ = _convert(sub, sub_fa, km1, cap)
        g0 = lift_flow(g, eback, conv, orient).values
    f1 = []
    rest = []
    for i in range(m):
        d = f[i] - g0[i]
        if d % km1 != 0 or d // km1 not in (0, 1):
            raise InvariantViolation("even split produced a bad quotient")
        f1.append(d // km1)
        rest.append(f[i] - d // km1)
    return [f1] + _decompose_rec(g, rest, km1, orient, cap)


# ---------------------------------------------------------------------------
# eulerian decomposition into balanced circuits and short barbells


@dataclass(frozen=True)
class EulerianDecomposition:
    """Edge partition into balanced circuits and short barbells."""

    members: tuple[SignedCircuitWitness, ...]


def eulerian_decompose(g: SignedGraph) -> EulerianDecomposition:
    """Partition an eulerian, flow-admissible, barbell-free signed graph
    into balanced circuits and short barbells.

    Start from a greedy circuit decomposition.  While two unbalanced
    circuits remain they must intersect; a pair sharing >= 2 vertices is
    recombined through parity-matched subpaths into a balanced circuit
    plus a smaller leftover, and a pair sharing exactly one vertex is
    finalized as a short barbell.
    """
    if not is_flow_admissible(g):
        raise NotFlowAdmissibleError("graph is not flow-admissible")
    if not is_eulerian(g):
        raise PreconditionError("graph is not eulerian (some degree is odd)")
    if any(_component_negative_parities(g)):
        raise PreconditionError(
            "a connected component has an odd number of negative edges"
        )
    if find_long_barbell(g) is not None:
        raise PreconditionError("graph contains a long barbell")

    members: list[tuple[str, tuple[int, ...]]] = []
    work: list[tuple[int, ...]] = []  # unbalanced circuits still open

    def classify_new(circs: Iterable[tuple[int, ...]]) -> None:
        for c in circs:
            if not is_unbalanced_circuit(g, c):
                members.append(("balanced-circuit", c))
            else:
                work.append(c)

    classify_new(_peel_circuits(g, range(g.num_edges)))
    cap = g.num_edges * g.num_edges + 8
    steps = 0
    while work:
        steps += 1
        if steps > cap:
            raise InvariantViolation("eulerian decomposition exceeded its step bound")
        if len(work) % 2 != 0:
            raise InvariantViolation(
                "odd number of open unbalanced circuits (parity invariant broken)"
            )
        pair = None
        single = None
        for i in range(len(work)):
            vi = circuit_vertices(g, work[i])
            for j in range(i + 1, len(work)):
                common = vi & circuit_vertices(g, work[j])
                if len(common) >= 2 and pair is None:
                    pair = (i, j)
                elif len(common) == 1 and single is None:
                    single = (i, j)
            if pair:
                break
        if pair is not None:
            i, j = pair
            ci, cj = work[i], work[j]
            del work[j], work[i]
            balanced, leftover = _recombine_pair(g, ci, cj)
            members.append(("balanced-circuit", balanced))
            classify_new(_peel_circuits(g, leftover))
        elif single is not None:
            i, j = single
            union = tuple(sorted(work[i] + work[j]))
            del work[j], work[i]
            members.append(("short-barbell", union))
        else:
            raise InvariantViolation(
                "two open unbalanced circuits share no vertex: the graph "
                "contains a long barbell after all"
            )

    witnesses = []
    covered: set[int] = set()
    for kind, edges in members:
        w = classify_signed_circuit(g, edges)
        if w is None or w.kind != kind:
            raise InvariantViolation(
                f"finalized member {sorted(edges)} fails to re-verify as {kind}"
            )
        witnesses.append(w)
        covered.update(edges)
    if covered != set(range(g.num_edges)) or sum(
        len(w.edge_ids) for w in witnesses
    ) != g.num_edges:
        raise InvariantViolation("members do not partition the edge set")
    return EulerianDecomposition(tuple(witnesses))


def _recombine_pair(
    g: SignedGraph, ci: tuple[int, ...], cj: tuple[int, ...]
) -> tuple[tuple[int, ...], list[int]]:
    """Balanced circuit assembled from two unbalanced circuits with >= 2
    common vertices, plus the leftover edge list."""
    vi = _circuit_walk(g, ci)[:-1]
    cj_verts = circuit_vertices(g, cj)
    L = len(vi)
    marks = [t for t in range(L) if vi[t] in cj_verts]
    arc = None
    for a_idx in range(len(marks)):
        t0 = marks[a_idx]
        t1 = marks[(a_idx + 1) % len(marks)]
        if vi[t0] != vi[t1 % L]:
            arc = (t0, t1)
            break
    if arc is None:
        raise InvariantViolation("no arc between two distinct common vertices")
    t0, t1 = arc
    if t1 <= t0:
        t1 += L
    p1 = [ci[t % L] for t in range(t0, t1)]
    x1, x2 = vi[t0], vi[t1 % L]
    # split the second circuit at x1, x2
    vj = _circuit_walk(g, cj)[:-1]
    r = vj.index(x1)
    vj = vj[r:] + vj[:r]
    cjr = cj[r:] + cj[:r]
    s = vj.index(x2)
    p2a = list(cjr[:s])
    p2b = list(cjr[s:])
    n1 = is_unbalanced_circuit(g, p1)
    if is_unbalanced_circuit(g, p2a) == n1:
        p2, rest_j = p2a, p2b
    elif is_unbalanced_circuit(g, p2b) == n1:
        p2, rest_j = p2b, p2a
    else:
        raise InvariantViolation("no parity-matching subpath in the second circuit")
    balanced = tuple(p1 + p2)
    if is_unbalanced_circuit(g, balanced):
        raise InvariantViolation("recombined circuit is not balanced")
    leftover = [e for e in ci if e not in set(p1)] + rest_j
    return balanced, leftover


# ---------------------------------------------------------------------------
# circular flow normalization


@dataclass(frozen=True)
class NormalizationState:
    """Terminal state of the grid normalization.

    values are positive exact rationals under ``orientation``; off_grid
    is the set of edges whose value times q is not an integer; pushes
    records (circuit edge ids, direction, epsilon) per step.
    """

    values: tuple[Fraction, ...]
    p: int
    q: int
    off_grid: frozenset[int]
    orientation: Orientation
    pushes: tuple[tuple[tuple[int, ...], int, Fraction], ...] = field(default=())

    @property
    def flow(self) -> FlowAssignment:
        return FlowAssignment(self.orientation, self.values)


def _grid_distance(value: Fraction, q: int, direction: int) -> Fraction:
    """Distance from value to the nearest 1/q multiple strictly in the
    given direction (0 when value sits on the grid)."""
    scaled = value * q
    if scaled.denominator == 1:
        return Fraction(0)
    below = scaled.numerator // scaled.denominator
    if direction > 0:
        return Fraction(below + 1, q) - value
    return value - Fraction(below, q)


def normalize_circular_flow(
    g: SignedGraph, fa: FlowAssignment, p: int, q: int
) -> NormalizationState:
    """Push a circular (p/q + 1)-flow onto the 1/q value grid.

    While the subgraph induced by off-grid edges contains a signed
    circuit, add or subtract an epsilon multiple of that circuit's flow;
    epsilon is the least scaled distance to the next grid point over the
    support, so at least one edge lands on the grid per push and none
    leaves [1, p/q].  Terminal state: no off-grid edges, or an induced
    off-grid subgraph that is a disjoint union of unbalanced circuits
    with 2*q*value an odd integer everywhere on it — anything else is an
    invariant violation, as is a non-empty terminal off-grid set on a
    connected graph with no long barbell.
    """
    if not (isinstance(p, int) and isinstance(q, int) and p >= 1 and q >= 1):
        raise PreconditionError("p and q must be positive integers")
    r = Fraction(p, q) + 1
    res = check_flow(g, fa, FlowKind.circular(r))
    if not res.ok:
        raise PreconditionError(f"input is not a circular {r}-flow: {res.violation}")
    m = g.num_edges
    # fold everything positive; the push never drives a value below 1,
    # so the orientation is fixed from here on
    folded = FlowAssignment.from_signed(fa.signed_values())
    orient = folded.orientation
    phi = [Fraction(v) for v in folded.values]
    upper = Fraction(p, q)
    pushes: list[tuple[tuple[int, ...], int, Fraction]] = []

    def off_grid() -> list[int]:
        return [e for e in range(m) if (phi[e] * q).denominator != 1]

    current = off_grid()
    for _ in range(m + 1):
        if not current:
            break
        sub, _vb, eback = edge_subgraph(g, sorted(current))
        witness = find_signed_circuit(sub)
        if witness is None:
            break
        phi1 = lift_flow(g, eback, signed_circuit_flow(witness), orient).values
        support = [e for e in range(m) if phi1[e] != 0]
        if not support:
            raise InvariantViolation("signed circuit flow has empty support")
        best = None
        for direction in (1, -1):
            eps = min(
                _grid_distance(phi[e], q, 1 if direction * phi1[e] > 0 else -1)
                / abs(phi1[e])
                for e in support
            )
            if eps <= 0:
                raise InvariantViolation("push distance must be positive off the grid")
            if best is None or eps < best[1]:
                best = (direction, eps)
        direction, eps = best
        for e in support:
            phi[e] += direction * eps * phi1[e]
            if not (1 <= phi[e] <= upper):
                raise InvariantViolation(
                    f"push left the value interval on edge {e}: {phi[e]}"
                )
        nxt = off_grid()
        if not set(nxt) < set(current):
            raise InvariantViolation("push did not shrink the off-grid set")
        mid = check_flow(g, FlowAssignment(orient, tuple(phi)), FlowKind.circular(r))
        if not mid.ok:
            raise InvariantViolation(f"intermediate state broke the flow: {mid.violation}")
        pushes.append((tuple(support), direction, eps))
        current = nxt
    else:
        raise InvariantViolation("normalization failed to terminate")

    final = frozenset(current)
    if final:
        _check_terminal_off_grid(g, phi, q, final)
    state = NormalizationState(
        values=tuple(phi),
        p=p,
        q=q,
        off_grid=final,
        orientation=orient,
        pushes=tuple(pushes),
    )
    return state


def _check_terminal_off_grid(
    g: SignedGraph, phi: list[Fraction], q: int, final: frozenset[int]
) -> None:
    for e in sorted(final):
        twice = 2 * q * phi[e]
        if twice.denominator != 1 or int(twice) % 2 == 0:
            raise InvariantViolation(
                f"terminal off-grid edge {e} has 2*q*value = {twice}, expected odd"
            )
    sub, _vb, _eb = edge_subgraph(g, sorted(final))
    if any(sub.degree(v) != 2 for v in range(sub.num_vertices)):
        raise InvariantViolation("terminal off-grid subgraph is not 2-regular")
    # each component of a 2-regular graph is one circuit
    if not all(_component_negative_parities(sub)):
        raise InvariantViolation(
            "terminal off-grid component has an even number of negative "
            "edges, so it cannot be an unbalanced circuit"
        )
    if len(connected_components(g)) == 1 and find_long_barbell(g) is None:
        raise InvariantViolation(
            "connected barbell-free graph ended with a non-empty off-grid "
            "set; the grid theorem forbids this"
        )

