"""Conversion machinery, decompositions, grid normalization."""

import copy
import hashlib
from fractions import Fraction

import pytest

from signedflow import transform
from signedflow.core import (
    Edge,
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    boundary,
    check_flow,
    parse_graph,
)
from signedflow.corpus import (
    g_family,
    g_family_circular_witness,
    random_signed_graph,
    signed_petersen,
    w5_all_signatures,
)
from signedflow.errors import (
    InvariantViolation,
    PreconditionError,
    ResourceCapExceeded,
)
from signedflow.solve import find_nz_k_flow, find_nz_zk_flow
from signedflow.structure import find_long_barbell, is_flow_admissible
from signedflow.transform import (
    ConversionState,
    EulerianDecomposition,
    decompose_into_2_flows,
    eulerian_decompose,
    find_negative_ditrail,
    find_tadpole,
    normalize_circular_flow,
    run_modflow_conversion,
)

REF = Orientation.reference()


def k33():
    return SignedGraph(6, tuple(Edge(u, v, 1) for u in range(3) for v in range(3, 6)))


def long_barbell_graph():
    return SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1)))


# ---------------------------------------------------------------------------
# conversion state: lift, switching, minusing


def test_lift_requires_reduced_values():
    g = SignedGraph(1, (Edge(0, 0, 1),))
    with pytest.raises(PreconditionError):
        ConversionState.lift(g, FlowAssignment(REF, (5,)), 5)
    with pytest.raises(PreconditionError):
        ConversionState.lift(g, FlowAssignment(REF, (0,)), 5)


def test_minusing_definition():
    g = SignedGraph(2, (Edge(0, 1, 1),))
    st = ConversionState.lift(g, FlowAssignment(REF, (1,)), 5)
    before = [list(d) for d in st.dirs]
    st.minus([0])
    assert st.values == [4]
    assert st.dirs[0] == [-before[0][0], -before[0][1]]


def test_minusing_empty_is_noop():
    g = SignedGraph(2, (Edge(0, 1, 1),))
    st = ConversionState.lift(g, FlowAssignment(REF, (2,)), 5)
    j = len(st.journal)
    st.minus([])
    assert st.values == [2] and len(st.journal) == j


def test_minusing_involution():
    g = k33()
    fa = find_nz_zk_flow(g, 3)
    st = ConversionState.lift(g, fa, 3)
    vals0 = list(st.values)
    dirs0 = [list(d) for d in st.dirs]
    st.minus([0, 4, 7])
    st.minus([0, 4, 7])
    assert st.values == vals0
    assert st.dirs == dirs0


def test_operations_preserve_state_invariants():
    # (S1): values stay strictly inside (0, k); (S2): every boundary
    # stays a multiple of k
    g = k33()
    st = ConversionState.lift(g, find_nz_zk_flow(g, 3), 3)
    for op in (
        lambda: st.switch_at([1, 4]),
        lambda: st.minus([2, 3]),
        lambda: st.switch_at([0]),
        lambda: st.minus([2]),
    ):
        op()
        assert all(0 < v < st.k for v in st.values)
        assert all(b % st.k == 0 for b in st.bnd)
        st.assert_invariants()


# ---------------------------------------------------------------------------
# walk searches


def test_negative_edge_is_negative_ditrail():
    g = SignedGraph(2, (Edge(0, 1, -1),))
    st = ConversionState.lift(g, FlowAssignment(REF, (1,)), 3)
    assert find_negative_ditrail(st, 0, 1) == (0,)


def test_positive_path_is_not_negative():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1)))
    st = ConversionState.lift(g, FlowAssignment(REF, (1, 1)), 3)
    assert find_negative_ditrail(st, 0, 2) is None


def test_tadpole_tail_into_negative_loop():
    g = SignedGraph(2, (Edge(0, 1, 1), Edge(1, 1, -1)))
    st = ConversionState.lift(g, FlowAssignment(REF, (1, 1)), 3)
    tp = find_tadpole(st, 0)
    assert tp is not None
    assert tp.tail == (0,) and tp.head == (1,)
    assert tp.tail_end == 0 and tp.meet == 1


def test_no_tadpole_in_balanced_positive_graph():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    st = ConversionState.lift(g, FlowAssignment(REF, (1, 1, 1)), 3)
    for x in range(3):
        assert find_tadpole(st, x) is None


# ---------------------------------------------------------------------------
# modulo -> integer conversion


def check_conversion(g, fa, k, out):
    res = check_flow(g, out, FlowKind.integer(k))
    assert res.ok, res.violation
    assert out.orientation == fa.orientation
    for a, b in zip(out.signed_values(), fa.values):
        assert (int(a) - int(b)) % k == 0


def test_tadpole_meeting_a_second_source_is_an_invariant_violation():
    # sources 0 and 1; the tadpole from 0 is the edge 0 -> 1 and a negative
    # loop at 1, a negative ditrail between the two sources, which the pair
    # step finds first, so the scheduler never reaches this state here
    g = SignedGraph(2, (Edge(0, 1, 1), Edge(0, 1, 1), Edge(1, 1, -1), Edge(1, 1, -1)))
    state = ConversionState(g, 5, [[1, -1], [1, -1], [1, 1], [1, 1]], [2, 3, 2, 3])
    assert state.bnd == [5, 5]
    assert find_negative_ditrail(state, 0, 1) == (0, 2)
    assert find_tadpole(state, 0).meet == 1
    stats = {"productive": 0, "relocations": 0, "switches": 0}
    with pytest.raises(InvariantViolation, match="meets source 1"):
        transform._step_at_source(state, (0, 1), None, stats)
    assert state.journal == []


def test_tadpole_without_a_second_dipath_is_an_invariant_violation():
    # the positive edge 0 -> 1 reaches the sink edge 1 - 2 (outward at
    # both ends), but 2 is reached from 0 only through it, negatively:
    # Y-(0) = {2} breaks find_tadpole's precondition, which the conversion
    # switches away first, so the splice has no second dipath to 2
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, -1)))
    state = ConversionState(g, 3, [[1, -1], [1, 1]], [1, 1])
    assert transform._dipath_reach(state, 0, transform._Budget(None, "test")) == ({0, 1}, {2})
    with pytest.raises(InvariantViolation, match="no positive dipath from 0 to 2.*precondition"):
        find_tadpole(state, 0)
    assert state.journal == []


def test_k33_z3_conversion():
    g = k33()
    fa = find_nz_zk_flow(g, 3)
    out, _ = run_modflow_conversion(g, fa, 3)
    check_conversion(g, fa, 3, out)


def test_petersen_z7_conversion(petersen):
    fa = find_nz_zk_flow(petersen, 7)
    out, _ = run_modflow_conversion(petersen, fa, 7)
    check_conversion(petersen, fa, 7, out)


def test_already_integer_flow_is_fixed_point():
    # a positive integer flow re-read as residues conserves exactly, so
    # the scheduler has no sources and must not touch anything
    g = k33()
    base = find_nz_k_flow(g, 3)
    assert all(v > 0 for v in base.values)  # solver outputs positive values
    out, state = run_modflow_conversion(g, base, 3)
    assert out == base
    assert state.journal == []


def test_even_k_needs_flag():
    g = k33()
    fa = find_nz_zk_flow(g, 4)
    with pytest.raises(PreconditionError, match="odd"):
        run_modflow_conversion(g, fa, 4)


def test_barbell_guard():
    g = long_barbell_graph()
    fa = find_nz_zk_flow(g, 5)
    assert fa is not None
    with pytest.raises(PreconditionError, match="barbell"):
        run_modflow_conversion(g, fa, 5)


def test_w5_counterexample_defeats_even_k():
    # the wheel signature with a Z_4-flow but no 4-flow cannot convert:
    # the run must end in an abort, never a bogus success
    bad = None
    for g in w5_all_signatures():
        if find_nz_zk_flow(g, 4) is not None and find_nz_k_flow(g, 4) is None:
            bad = g
            break
    assert bad is not None
    fa = find_nz_zk_flow(bad, 4)
    with pytest.raises((InvariantViolation, ResourceCapExceeded)):
        run_modflow_conversion(bad, fa, 4, allow_even_k=True, cap=50_000)


def test_relocation_minus_then_stuck(monkeypatch):
    # The smallest input that reaches the relocation step.  Non-admissible
    # (one negative edge after switching), so no integer 4-flow exists;
    # the run minuses edge 0 productively, relocates the source from
    # vertex 2 to vertex 1 by minusing edge 2, and then has no step left.
    # Over 5/8 the relocation never runs at odd k, and every run at
    # k = 4, 6, 8 that reaches it ends stuck the same way.
    g = parse_graph("p 3 5\ne 1 2 -\ne 1 2 +\ne 2 3 -\ne 2 3 -\ne 3 3 +\n")
    fa = FlowAssignment(REF, (2, 2, 1, 3, 1))
    assert check_flow(g, fa, FlowKind.modulo(4)).ok
    seen = []
    relocate = transform._relocation_minus

    def spy(state, edges, x, y, stats):
        before = state.eta
        relocate(state, edges, x, y, stats)
        seen.append((list(state.journal), (x, y), before, state.eta, state.bnd))

    monkeypatch.setattr(transform, "_relocation_minus", spy)
    with pytest.raises(InvariantViolation, match="no applicable conversion step"):
        run_modflow_conversion(g, fa, 4, allow_even_k=True)
    journal = [("minus", (0,)), ("switch", (1,)), ("minus", (2,))]
    assert seen == [(journal, (2, 1), 4, 4, [0, 4, 0])]


@pytest.mark.parametrize("cap", [0, -1])
def test_conversion_cap_below_one_rejected(cap):
    g = k33()
    # the integer 3-flow is already converted: no search would spend the cap
    for fa in (find_nz_zk_flow(g, 3), find_nz_k_flow(g, 3)):
        with pytest.raises(PreconditionError, match="at least 1"):
            run_modflow_conversion(g, fa, 3, cap=cap)


def test_journal_replay_reproduces_final_state(petersen):
    fa = find_nz_zk_flow(petersen, 5)
    if fa is None:
        fa = find_nz_zk_flow(petersen, 7)
        k = 7
    else:
        k = 5
    out, state = run_modflow_conversion(petersen, fa, k)
    replay = ConversionState.lift(petersen, fa, k)
    for op, arg in state.journal:
        if op == "switch":
            replay.switch_at(arg)
        else:
            replay.minus(arg)
    assert replay.values == state.values
    assert replay.dirs == state.dirs


def test_conversion_is_deterministic(petersen):
    fa = find_nz_zk_flow(petersen, 7)
    a, _ = run_modflow_conversion(petersen, fa, 7)
    b, _ = run_modflow_conversion(petersen, fa, 7)
    assert a == b


# Dense barbell-free graphs past the corpus whose conversion asks for
# negative ditrails between sources that no walk joins: a depth-first
# search spent its whole default cap proving each "none".  Each journal
# digest is the one the search finds with its cap raised far enough.
DENSE_CONVERSION_JOURNALS = [
    ((1, 12, 40), "e788f7e9039d215487dcec5976cd5febe5459553bddd9544f57f774ac24a21da"),
    ((6, 12, 40), "072d31b7b75230653be102894ea176c052cd1bf168e1303104ca04bec709fd71"),
    ((4, 14, 50), "f52873975059905dba08153c5dc46fb05e2bdcb1d5d510ba5b60d4716b7b7d59"),
]


@pytest.mark.parametrize("params,journal_digest", DENSE_CONVERSION_JOURNALS)
def test_dense_conversion_answers_none_without_searching(params, journal_digest):
    g = random_signed_graph(*params, 0.05)
    assert is_flow_admissible(g) and find_long_barbell(g) is None
    fa = find_nz_zk_flow(g, 3)
    out, state = run_modflow_conversion(g, fa, 3)
    assert check_flow(g, out, FlowKind.integer(3)).ok
    assert out.orientation == fa.orientation
    assert all((a - b) % 3 == 0 for a, b in zip(out.values, fa.values))
    assert hashlib.sha256(repr(state.journal).encode()).hexdigest() == journal_digest


# ---------------------------------------------------------------------------
# sum of 2-flows


def test_petersen_six_flow_decomposes(petersen):
    fa = find_nz_k_flow(petersen, 6)
    parts = decompose_into_2_flows(petersen, fa, 6)
    assert len(parts) == 5
    for part in parts:
        assert set(part.values) <= {0, 1}
        assert all(b == 0 for b in boundary(petersen, part))
    for eid in range(petersen.num_edges):
        assert sum(p.values[eid] for p in parts) == fa.values[eid]


def test_k_defaults_to_max_plus_one():
    g = k33()
    fa = find_nz_k_flow(g, 3)
    parts = decompose_into_2_flows(g, fa)
    assert len(parts) == 2


def test_decompose_rejects_signed_values(petersen):
    fa = find_nz_k_flow(petersen, 6)
    if all(v > 0 for v in fa.values):
        fa = FlowAssignment(fa.orientation, (-fa.values[0],) + fa.values[1:])
    with pytest.raises(PreconditionError):
        decompose_into_2_flows(petersen, fa, 6)


def test_decompose_rejects_non_flow():
    g = k33()
    with pytest.raises(PreconditionError):
        decompose_into_2_flows(g, FlowAssignment(REF, (1,) * 9), 3)


def test_decompose_barbell_guard_and_failure():
    # the sum-of-2-flows theorem genuinely fails on a long barbell: the
    # doubled path value cannot split into two conserving {0,1} layers
    g = long_barbell_graph()
    fa = FlowAssignment(Orientation(frozenset({0})), (1, 1, 2, 2))
    assert check_flow(g, fa, FlowKind.integer(3)).ok
    with pytest.raises(PreconditionError):
        decompose_into_2_flows(g, fa, 3)
    with pytest.raises(InvariantViolation):
        transform._decompose_rec(
            g, [int(v) for v in fa.values], 3, fa.orientation, transform.TRANSFORM_SEARCH_CAP
        )


@pytest.mark.parametrize(
    "env,error", [("1", ResourceCapExceeded), ("0", PreconditionError)], ids=("cap-1", "cap-0")
)
def test_decompose_obeys_resource_cap(petersen, monkeypatch, env, error):
    # the Z_5 conversions inside a 6-flow's split run under the same cap
    # as run_modflow_conversion, and a bad cap is refused before any work
    fa = FlowAssignment.from_signed(find_nz_k_flow(petersen, 6).signed_values())
    monkeypatch.setenv("SG_RESOURCE_CAP", env)
    with pytest.raises(error):
        decompose_into_2_flows(petersen, fa, 6)


# ---------------------------------------------------------------------------
# eulerian decomposition


def test_parallel_unbalanced_pairs_rebalance():
    # two unbalanced circuits through the same vertex pair recombine
    # into balanced circuits
    g = SignedGraph(
        2, (Edge(0, 1, 1), Edge(0, 1, -1), Edge(0, 1, 1), Edge(0, 1, -1))
    )
    dec = eulerian_decompose(g)
    kinds = sorted(w.kind for w in dec.members)
    assert kinds == ["balanced-circuit", "balanced-circuit"]
    covered = sorted(e for w in dec.members for e in w.edge_ids)
    assert covered == [0, 1, 2, 3]


def test_short_barbell_member():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    dec = eulerian_decompose(g)
    assert len(dec.members) == 1
    assert dec.members[0].kind == "short-barbell"


def test_balanced_cycle_single_member():
    g = SignedGraph(4, tuple(Edge(i, (i + 1) % 4, 1) for i in range(4)))
    dec = eulerian_decompose(g)
    assert [w.kind for w in dec.members] == ["balanced-circuit"]


def test_eulerian_preconditions():
    with pytest.raises(PreconditionError):
        eulerian_decompose(SignedGraph(2, (Edge(0, 1, 1),)))  # odd degrees
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(0, 1, 1)))
    with pytest.raises(PreconditionError):
        eulerian_decompose(g)  # lone negative edge in a component


def test_members_reclassify(corpus_3_4):
    from signedflow.structure import classify_signed_circuit
    from signedflow.core import is_eulerian

    for g in corpus_3_4:
        if not (
            is_flow_admissible(g).admissible
            and is_eulerian(g)
            and len(g.negative_edges) % 2 == 0
            and find_long_barbell(g) is None
        ):
            continue
        dec = eulerian_decompose(g)
        for w in dec.members:
            again = classify_signed_circuit(g, w.edge_ids)
            assert again is not None and again.kind == w.kind


# ---------------------------------------------------------------------------
# normalization


def test_g1_witness_normalizes_to_loop_residue():
    g = g_family(1)
    fa = g_family_circular_witness(1)
    state = normalize_circular_flow(g, fa, 2, 1)
    assert state.off_grid == frozenset({5, 6})
    for eid in state.off_grid:
        doubled = state.values[eid] * 2 * state.q
        assert doubled.denominator == 1 and doubled.numerator % 2 == 1


def test_perturbed_triangle_lands_on_grid():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    fa = FlowAssignment(REF, (Fraction(4, 3),) * 3)
    state = normalize_circular_flow(g, fa, 2, 1)
    assert state.off_grid == frozenset()
    assert state.values == (1, 1, 1)
    assert state.pushes == (((0, 1, 2), -1, Fraction(1, 3)),)


def test_tie_pushes_up():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    fa = FlowAssignment(REF, (Fraction(3, 2),) * 3)
    state = normalize_circular_flow(g, fa, 2, 1)
    assert state.values == (2, 2, 2)
    assert state.pushes[0][1] == 1


# An off-grid subgraph of each signed-circuit kind.  Each input is a
# multiple of its circuit's flow, so the push direction follows the sign
# rule of signed_circuit_flow (lowest edge positive under the reference
# orientation) and a flipped rule would land elsewhere.


def test_push_through_balanced_circuit():
    # the triangle 3-4-5 has two negative edges; the triangle 0-1-2 is on the grid
    g = SignedGraph(
        5,
        (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1), Edge(0, 3, -1), Edge(3, 4, -1), Edge(4, 0, 1)),
    )
    fa = FlowAssignment(Orientation(frozenset({3, 5})), (1, 1, 1) + (Fraction(4, 3),) * 3)
    state = normalize_circular_flow(g, fa, 2, 1)
    assert state.pushes == (((3, 4, 5), 1, Fraction(1, 3)),)
    assert state.values == (1,) * 6 and state.off_grid == frozenset()


def test_push_through_short_barbell():
    # an unbalanced triangle and a negative loop at its vertex 0; the
    # witness lists the loop first, yet the sign is fixed by edge 0
    g = SignedGraph(3, (Edge(0, 1, -1), Edge(1, 2, 1), Edge(2, 0, 1), Edge(0, 0, -1)))
    fa = FlowAssignment(Orientation(frozenset({1, 2, 3})), (Fraction(3, 2),) * 4)
    state = normalize_circular_flow(g, fa, 2, 1)
    assert state.pushes == (((0, 1, 2, 3), 1, Fraction(1, 2)),)  # a tie pushes up
    assert state.values == (2,) * 4 and state.off_grid == frozenset()


def test_push_through_long_barbell():
    # the path at 5/2 reaches 3 with the loops at 3/2, which stay off the grid
    fa = FlowAssignment(
        Orientation(frozenset({1, 2, 3})), (Fraction(5, 4),) * 2 + (Fraction(5, 2),) * 2
    )
    state = normalize_circular_flow(long_barbell_graph(), fa, 3, 1)
    assert state.pushes == (((0, 1, 2, 3), 1, Fraction(1, 4)),)
    assert state.values == (Fraction(3, 2), Fraction(3, 2), 3, 3)
    assert state.off_grid == frozenset({0, 1})


def test_on_grid_input_untouched():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    fa = FlowAssignment(REF, (1, 1, 1))
    state = normalize_circular_flow(g, fa, 2, 1)
    assert state.pushes == ()
    assert state.values == (1, 1, 1)


def test_normalize_validates_input_range():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    with pytest.raises(PreconditionError):
        normalize_circular_flow(g, FlowAssignment(REF, (Fraction(5, 2),) * 3), 2, 1)


def test_values_stay_inside_band():
    g = g_family(2)
    fa = g_family_circular_witness(2)
    state = normalize_circular_flow(g, fa, 2, 1)
    top = Fraction(2, 1)
    assert all(1 <= v <= top for v in state.values)
    # off-grid recomputed from scratch matches the stored set
    assert state.off_grid == frozenset(
        i for i, v in enumerate(state.values) if (v * state.q).denominator != 1
    )
