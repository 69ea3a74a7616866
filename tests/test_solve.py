"""Existence solvers and exact flow numbers."""

from fractions import Fraction

import pytest

import bruteforce
from signedflow import simplex, solve
from signedflow.core import (
    Edge,
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    check_flow,
    switch,
)
from signedflow.corpus import enumerate_signed_graphs, g_family, signed_petersen
from signedflow.errors import InvariantViolation, PreconditionError, ResourceCapExceeded
from signedflow.solve import (
    circular_flow_number,
    find_2_flow_on_even_graph,
    find_nz_k_flow,
    find_nz_zk_flow,
    flow_numbers,
    integer_flow_number,
    signed_circuit_flow,
)
from signedflow.structure import classify_signed_circuit, is_flow_admissible


def cycle(n, signs=None):
    signs = signs or [1] * n
    return SignedGraph(n, tuple(Edge(i, (i + 1) % n, signs[i]) for i in range(n)))


def k4():
    return SignedGraph(4, tuple(Edge(u, v, 1) for u in range(4) for v in range(u + 1, 4)))


# ---------------------------------------------------------------------------
# integer / modulo search


def test_petersen_six_flow(petersen):
    fa = find_nz_k_flow(petersen, 6)
    assert fa is not None
    assert check_flow(petersen, fa, FlowKind.integer(6)).ok


def test_petersen_no_five_flow(petersen):
    stats = {}
    assert find_nz_k_flow(petersen, 5, stats=stats) is None
    assert stats["nodes"] > 0


def test_g1_no_three_flow():
    g = g_family(1)
    assert find_nz_k_flow(g, 3) is None
    assert find_nz_zk_flow(g, 3) is None


def test_k4_no_three_flow_either_way():
    # non-bipartite cubic: no 3-flow, and the modular solver must agree
    assert find_nz_zk_flow(k4(), 3) is None
    assert find_nz_k_flow(k4(), 3) is None


def test_k33_three_flow_both_ways():
    g = SignedGraph(
        6, tuple(Edge(u, v, 1) for u in range(3) for v in range(3, 6))
    )
    za = find_nz_zk_flow(g, 3)
    assert za is not None
    assert check_flow(g, za, FlowKind.modulo(3)).ok
    assert find_nz_k_flow(g, 3) is not None


def test_positive_loop_two_flow():
    g = SignedGraph(1, (Edge(0, 0, 1),))
    fa = find_nz_k_flow(g, 2)
    assert fa is not None and fa.values == (1,)


def test_single_negative_loop_no_integer_flow():
    g = SignedGraph(1, (Edge(0, 0, -1),))
    for k in (2, 3, 4, 5, 6):
        assert find_nz_k_flow(g, k) is None
    # ... but residue k/2 closes the modular boundary when k is even
    assert find_nz_zk_flow(g, 6) is not None
    assert find_nz_zk_flow(g, 5) is None


def test_bad_k_rejected():
    with pytest.raises(PreconditionError):
        find_nz_k_flow(cycle(3), 1)
    with pytest.raises(PreconditionError):
        find_nz_zk_flow(cycle(3), 0)


def test_cap_raises_never_lies(petersen):
    # both searches run past 1000 nodes on Petersen at k = 5; the count
    # stops one node past the cap, also where a jump would cross it
    for fn in (find_nz_k_flow, find_nz_zk_flow):
        for cap in (1, 10, 100, 1000):
            with pytest.raises(ResourceCapExceeded) as exc:
                fn(petersen, 5, cap=cap)
            assert exc.value.cap == cap
            assert exc.value.spent == cap + 1


@pytest.mark.parametrize("cap,env", [(0, None), (-1, None), (None, "0")])
def test_cap_below_one_rejected(petersen, monkeypatch, cap, env):
    # the kernels read a cap of 0 as unlimited and a negative one as spent
    if env is not None:
        monkeypatch.setenv("SG_RESOURCE_CAP", env)
    with pytest.raises(PreconditionError, match="at least 1"):
        find_nz_k_flow(petersen, 5, cap=cap)
    with pytest.raises(PreconditionError, match="at least 1"):
        find_nz_zk_flow(petersen, 5, cap=cap)


def test_monotone_in_k(corpus_3_4):
    for g in corpus_3_4[::6]:
        for k in (2, 3, 4):
            if find_nz_k_flow(g, k) is not None:
                assert find_nz_k_flow(g, k + 1) is not None


def test_solver_backend_name_names_the_one_kernel():
    # the benchmark records this name and probes it for other kernels
    assert solve.solver_backend_name() == solve.solver_backend_name("python") == "python"
    with pytest.raises(PreconditionError):
        solve.solver_backend_name("compiled")


def test_deterministic_witnesses(petersen):
    assert find_nz_k_flow(petersen, 6) == find_nz_k_flow(petersen, 6)
    assert find_nz_zk_flow(petersen, 6) == find_nz_zk_flow(petersen, 6)


# ---------------------------------------------------------------------------
# 2-flows on even graphs


def test_even_cycle_two_flow():
    g = cycle(4)
    fa = find_2_flow_on_even_graph(g)
    assert fa is not None
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_short_barbell_two_flow():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    fa = find_2_flow_on_even_graph(g)
    assert fa is not None
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_odd_negative_component_refused():
    # eulerian but one negative edge in the component
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(0, 1, 1)))
    assert find_2_flow_on_even_graph(g) is None


def test_even_negative_unbalanced_component():
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    fa = find_2_flow_on_even_graph(g)
    assert fa is not None
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_non_eulerian_refused():
    assert find_2_flow_on_even_graph(SignedGraph(2, (Edge(0, 1, 1),))) is None


def test_two_flow_after_switching(corpus_3_4):
    # the construction switches balanced components positive internally;
    # the result must still be a 2-flow of the *input* signature
    for g in corpus_3_4:
        fa = find_2_flow_on_even_graph(g)
        if fa is not None:
            assert check_flow(g, fa, FlowKind.integer(2)).ok


# ---------------------------------------------------------------------------
# signed circuit flows


def test_balanced_circuit_flow():
    g = cycle(4, [1, 1, -1, -1])
    w = classify_signed_circuit(g, range(4))
    fa = signed_circuit_flow(w)
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_short_barbell_flow():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    w = classify_signed_circuit(g, [0, 1])
    fa = signed_circuit_flow(w)
    assert set(map(abs, fa.values)) == {1}
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_long_barbell_flow_doubles_path():
    g = SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1)))
    w = classify_signed_circuit(g, range(4))
    fa = signed_circuit_flow(w)
    assert check_flow(g, fa, FlowKind.integer(3)).ok
    assert abs(fa.values[2]) == 2 and abs(fa.values[3]) == 2
    assert abs(fa.values[0]) == 1 and abs(fa.values[1]) == 1


def test_circuit_flow_support_only_witness_edges():
    # embed a balanced digon in a larger host; support must stay inside
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    w = classify_signed_circuit(g, [0, 1])
    fa = signed_circuit_flow(w)
    assert fa.values[2] == 0 and fa.values[3] == 0
    assert abs(fa.values[0]) == 1 and abs(fa.values[1]) == 1


# ---------------------------------------------------------------------------
# flow numbers


# (graph, phi_i, phi_c); values hand-derived or classical
FROZEN_NUMBERS = [
    (cycle(4), 2, Fraction(2)),                 # even balanced circuit
    (cycle(3), 2, Fraction(2)),                 # a cycle carries f=1 regardless of length
    (k4(), 4, Fraction(4)),                     # self-dual planar: phi_c = chi_c(K4) = 4
    (
        SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1))),
        3,
        Fraction(3),                            # long barbell: path carries 2, loops 1
    ),
]


@pytest.mark.parametrize("g,phi_i,phi_c", FROZEN_NUMBERS)
def test_frozen_flow_numbers(g, phi_i, phi_c):
    fn = flow_numbers(g)
    assert fn.phi_i == phi_i
    assert fn.phi_c == phi_c
    assert check_flow(g, fn.witnesses["phi_i"], FlowKind.integer(phi_i)).ok
    assert check_flow(g, fn.witnesses["phi_c"], FlowKind.circular(phi_c)).ok


def test_petersen_integer_number(petersen):
    fn = integer_flow_number(petersen)
    assert fn.phi_i == 6


def test_g1_numbers():
    fn = flow_numbers(g_family(1))
    assert fn.phi_i == 4       # paper asserts >= 4; exact value from the solver
    assert fn.phi_c == 3
    assert check_flow(g_family(1), fn.witnesses["phi_c"], FlowKind.circular(3)).ok


def test_phi_c_at_most_phi_i(corpus_3_4):
    from signedflow.structure import is_flow_admissible

    for g in corpus_3_4[::9]:
        if not is_flow_admissible(g).admissible or g.num_edges > 6:
            continue
        fn = flow_numbers(g)
        if fn.phi_i is not None and fn.phi_c is not None:
            assert fn.phi_c <= fn.phi_i


def test_circular_rejects_inadmissible():
    with pytest.raises(PreconditionError):
        circular_flow_number(SignedGraph(1, (Edge(0, 0, -1),)))


def test_circular_edge_cap():
    g = cycle(4)
    with pytest.raises(ResourceCapExceeded):
        circular_flow_number(g, edge_cap=3)


def test_circular_witness_zero_slack():
    fn = circular_flow_number(k4())
    r = fn.phi_c
    fa = fn.witnesses["phi_c"]
    from signedflow.core import boundary

    assert all(b == 0 for b in boundary(k4(), fa))
    assert all(1 <= abs(Fraction(v)) <= r - 1 for v in fa.values)
    # optimum is attained: some edge sits exactly at the upper bound
    assert any(abs(Fraction(v)) == r - 1 for v in fa.values)


@pytest.fixture(scope="module")
def circular_oracle():
    """Per graph: (name, sweep answer, sweep LP calls, pruned answer,
    pruned LP calls, seeded answer, seeded LP calls) over Petersen,
    g_family(1..2) and every admissible class with at most 4 vertices and
    7 edges.  Pruned is circular_flow_number, seeded is flow_numbers,
    which starts the same search from phi_i - 1."""
    graphs = [("petersen", signed_petersen()), ("g1", g_family(1)), ("g2", g_family(2))]
    graphs += [
        (f"c47:{i}", g)
        for i, g in enumerate(enumerate_signed_graphs(4, 7))
        if is_flow_admissible(g)
    ]
    calls = [0]
    solve_lp = simplex.solve_lp

    def counted(*args):
        calls[0] += 1
        return solve_lp(*args)

    def answer(fn):
        return fn.phi_c, fn.witnesses["phi_c"]

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bruteforce.simplex, "solve_lp", counted)
        mp.setattr(solve, "solve_lp", counted)
        for name, g in graphs:
            calls[0] = 0
            swept = bruteforce.circular_sweep(g)
            swept_calls = calls[0]
            calls[0] = 0
            pruned = answer(circular_flow_number(g))
            pruned_calls = calls[0]
            calls[0] = 0
            seeded = answer(flow_numbers(g))
            runs.append((name, swept, swept_calls, pruned, pruned_calls, seeded, calls[0]))
    return runs


@pytest.fixture(scope="module")
def circular_runs(circular_oracle):
    """The sweep and circular_flow_number columns of circular_oracle."""
    return [run[:5] for run in circular_oracle]


def test_circular_matches_orientation_sweep(circular_runs):
    assert len(circular_runs) == 2080
    for name, swept, _, pruned, _ in circular_runs:
        assert repr(pruned) == repr(swept), name


def test_circular_pruning_skips_lps(circular_runs):
    by_name = {name: (sc, pc) for name, _, sc, _, pc in circular_runs}
    assert by_name["g2"][1] < by_name["g2"][0]
    corpus = [v for name, v in by_name.items() if name.startswith("c47:")]
    assert sum(pc for _, pc in corpus) < sum(sc for sc, _ in corpus)
    assert all(pc <= sc for sc, pc in by_name.values())


def test_seeded_search_matches_orientation_sweep(circular_oracle):
    assert len(circular_oracle) == 2080
    for name, swept, _, _, _, seeded, _ in circular_oracle:
        assert repr(seeded) == repr(swept), name


# LP calls of flow_numbers before the subset cut, the tie-key skip and
# the phi_i - 1 seed; every one of them may only fall
PARENT_LP_CALLS = {"petersen": 838, "g1": 3, "g2": 146, "g3": 2802, "c47": 12671}


def test_lp_calls_below_parent_ceilings(circular_oracle):
    calls = {name: lps for name, *_, lps in circular_oracle if not name.startswith("c47:")}
    calls["c47"] = sum(lps for name, *_, lps in circular_oracle if name.startswith("c47:"))
    stats = {}
    flow_numbers(g_family(3), stats=stats)
    calls["g3"] = stats["lp_calls"]
    for name, ceiling in PARENT_LP_CALLS.items():
        assert calls[name] <= ceiling, name
    for name in ("petersen", "g2", "g3", "c47"):
        assert calls[name] < PARENT_LP_CALLS[name], name


@pytest.mark.parametrize("entry", [circular_flow_number, flow_numbers])
@pytest.mark.parametrize("g", [k4(), g_family(2), signed_petersen()], ids=["k4", "g2", "petersen"])
def test_stats_count_lp_calls(monkeypatch, entry, g):
    calls = [0]
    solve_lp = simplex.solve_lp

    def counted(*args):
        calls[0] += 1
        return solve_lp(*args)

    monkeypatch.setattr(solve, "solve_lp", counted)
    stats = {}
    entry(g, stats=stats)
    assert stats["lp_calls"] == calls[0]


def test_stats_on_two_flow_shortcut():
    stats = {}
    circular_flow_number(cycle(4), stats=stats)
    assert stats == {"lp_calls": 0, "tie_skips": 0}


def test_seed_contradiction_raises():
    # phi_c(K4) = 4: a claimed phi_i of 3 sets a bound no orientation meets
    with pytest.raises(InvariantViolation, match="phi_i=3"):
        solve._circular_flow_number(k4(), solve.DEFAULT_EDGE_CAP_CIRCULAR, None, 3)


def test_switching_invariance_of_numbers():
    g = g_family(1)
    s = switch(g, [0, 2])
    fn = flow_numbers(s)
    assert fn.phi_i == 4 and fn.phi_c == 3
