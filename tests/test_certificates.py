"""Certificates must round-trip through JSON and survive only untampered."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from signedflow import _solver_py
from signedflow.certificates import (
    Certificate,
    SCHEMA_VERSION,
    VerifyOutcome,
    flow_from_text,
    flow_to_text,
    fraction_to_str,
    graph_sha256,
    make_conversion_certificate,
    make_decomposition_certificate,
    make_eulerian_certificate,
    make_flow_certificate,
    make_flow_number_certificate,
    make_normalization_certificate,
    str_to_fraction,
    verify_certificate,
)
from signedflow.certificates import _payload_flow, _value_for_kind
from signedflow.core import (
    Edge,
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    check_flow,
    parse_graph,
    serialize_graph,
)
from signedflow.corpus import enumerate_signed_graphs, g_family, signed_petersen
from signedflow.errors import PreconditionError, ResourceCapExceeded
from signedflow.solve import find_nz_k_flow, find_nz_zk_flow, flow_numbers
from signedflow.structure import (
    SignedCircuitWitness,
    classify_signed_circuit,
    find_long_barbell,
    is_flow_admissible,
)
from signedflow.transform import (
    ConversionState,
    EulerianDecomposition,
    decompose_into_2_flows,
    eulerian_decompose,
    normalize_circular_flow,
    run_modflow_conversion,
)
from signedflow.verify_suites import CONVERSION_KS


def cycle(n, sign=1):
    return SignedGraph(n, tuple(Edge(i, (i + 1) % n, 1) for i in range(n - 1)) + (Edge(n - 1, 0, sign),))


def neg_loop():
    return SignedGraph(1, (Edge(0, 0, -1),))


def k4():
    return SignedGraph(4, tuple(Edge(u, v, 1) for u in range(4) for v in range(u + 1, 4)))


def k33():
    return SignedGraph(6, tuple(Edge(u, v, 1) for u in range(3) for v in range(3, 6)))


def retamper(cert, mutate):
    """Round-trip the certificate through JSON with one field changed."""
    raw = json.loads(cert.to_json())
    mutate(raw)
    return Certificate.from_json(json.dumps(raw))


# ---------------------------------------------------------------------------
# fraction and flow-file serialization


@pytest.mark.parametrize(
    "value,text",
    [(Fraction(3, 2), "3/2"), (4, "4"), (Fraction(-7, 3), "-7/3"), (Fraction(6, 3), "2")],
)
def test_fraction_to_str(value, text):
    assert fraction_to_str(value) == text
    assert str_to_fraction(text) == Fraction(value)


@pytest.mark.parametrize("bad", ["x", "1/0", "", "1.5.2"])
def test_bad_fraction_rejected(bad):
    with pytest.raises(PreconditionError, match="bad fraction"):
        str_to_fraction(bad)


def test_flow_text_round_trip():
    fa = FlowAssignment(
        Orientation(frozenset({1, 3})),
        (Fraction(3, 2), Fraction(1), Fraction(5, 4), Fraction(2)),
    )
    text = flow_to_text(fa)
    assert text.splitlines()[0] == "flip 1 3"
    assert flow_from_text(text, 4) == fa


def test_flow_text_skips_comments_and_blanks():
    text = "# header\n\nflip\n0 1\n# trailing\n1 2\n"
    fa = flow_from_text(text, 2)
    assert fa.orientation.reversed_edges == frozenset()
    assert fa.values == (1, 2)


def test_flow_text_kind_coercion():
    # integer kinds produce ints; an off-type fraction is passed through
    # unchanged so the flow checker can name the violation
    fa = flow_from_text("flip\n0 2\n", 1, FlowKind.integer(3))
    assert isinstance(fa.values[0], int)
    fa = flow_from_text("flip\n0 3/2\n", 1, FlowKind.integer(3))
    assert fa.values[0] == Fraction(3, 2)


@pytest.mark.parametrize(
    "text,match",
    [
        ("flip\nflip\n0 1\n", "duplicate flip"),
        ("flip x\n0 1\n", "bad flip line"),
        ("0 1\n0 2\n", "duplicate edge"),
        ("0 1 2\n", "expected"),
        ("a 1\n", "bad edge index"),
        ("7 1\n", "out of range"),
        ("0 1\n", "missing edges"),
        ("flip 9\n0 1\n1 1\n", "unknown edges"),
    ],
)
def test_flow_text_rejects(text, match):
    n = 2 if "missing" in match or "unknown" in match else 1
    with pytest.raises(PreconditionError, match=match):
        flow_from_text(text, n)


# ---------------------------------------------------------------------------
# certificate JSON round trip


def test_certificate_round_trip():
    g = cycle(4)
    fa = find_nz_k_flow(g, 2)
    cert = make_flow_certificate(g, FlowKind.integer(2), fa, nodes=17)
    back = Certificate.from_json(cert.to_json())
    assert back == cert
    assert back.resources == {"nodes": 17}
    assert back.schema_version == SCHEMA_VERSION


@pytest.mark.parametrize("text", ["not json at all", "[1, 2]"])
def test_from_json_rejects_non_object(text):
    with pytest.raises(PreconditionError):
        Certificate.from_json(text)


def test_from_json_rejects_missing_field():
    raw = json.loads(make_flow_certificate(cycle(4), FlowKind.integer(2), None).to_json())
    del raw["verdict"]
    with pytest.raises(PreconditionError, match="missing field"):
        Certificate.from_json(json.dumps(raw))


def test_verify_outcome_truthiness():
    assert VerifyOutcome(True)
    assert not VerifyOutcome(False, "because")


# ---------------------------------------------------------------------------
# one good certificate per claim kind


def test_flow_exists_certificate_verifies():
    g = cycle(4)
    fa = find_nz_k_flow(g, 2)
    cert = make_flow_certificate(g, FlowKind.integer(2), fa)
    out = verify_certificate(Certificate.from_json(cert.to_json()))
    assert out.ok, out.reason


def test_flow_none_certificate_verifies():
    g = neg_loop()
    assert find_nz_k_flow(g, 3) is None
    cert = make_flow_certificate(g, FlowKind.integer(3), None, nodes=2)
    out = verify_certificate(cert)
    assert out.ok, out.reason


@pytest.mark.parametrize("env", ["0", "-5", "lots"])
def test_bad_env_cap_raises_not_rejects(monkeypatch, env):
    cert = make_flow_certificate(neg_loop(), FlowKind.integer(3), None, nodes=2)
    monkeypatch.setenv("SG_RESOURCE_CAP", env)
    with pytest.raises(PreconditionError):
        verify_certificate(cert)


def test_flow_none_circular_kind_refused():
    cert = make_flow_certificate(neg_loop(), FlowKind.circular(Fraction(3)), None)
    out = verify_certificate(cert)
    assert not out.ok and "circular" in out.reason


def test_flow_number_certificate_verifies():
    g = cycle(3)
    cert = make_flow_number_certificate(g, flow_numbers(g))
    assert cert.verdict == "phi_i=2;phi_c=2"
    out = verify_certificate(Certificate.from_json(cert.to_json()))
    assert out.ok, out.reason


def test_flow_numbers_past_k_max_certify_phi_c_alone(petersen):
    # signed Petersen has no 5-flow, so below k_max = 6 the integer flow
    # number is None; the circular one is still found and certified
    numbers = flow_numbers(petersen, k_max=5)
    assert (numbers.phi_i, numbers.phi_c) == (None, 6)
    assert set(numbers.witnesses) == {"phi_c"}
    assert check_flow(petersen, numbers.witnesses["phi_c"], FlowKind.circular(Fraction(6))).ok
    cert = make_flow_number_certificate(petersen, numbers)
    assert cert.verdict == "phi_c=6"
    out = verify_certificate(Certificate.from_json(cert.to_json()))
    assert out.ok, out.reason


@pytest.fixture(scope="module")
def conversion_cert():
    g = k33()
    fa = find_nz_zk_flow(g, 3)
    out, state = run_modflow_conversion(g, fa, 3)
    return make_conversion_certificate(g, 3, fa, out, state.journal)


def test_conversion_certificate_verifies(conversion_cert):
    out = verify_certificate(Certificate.from_json(conversion_cert.to_json()))
    assert out.ok, out.reason


def test_decomposition_certificate_verifies():
    g = k4()
    fa = find_nz_k_flow(g, 4)
    parts = decompose_into_2_flows(g, fa, 4)
    cert = make_decomposition_certificate(g, 4, fa, parts)
    assert cert.verdict == "parts=3"
    out = verify_certificate(Certificate.from_json(cert.to_json()))
    assert out.ok, out.reason


def test_eulerian_certificate_verifies():
    g = SignedGraph(2, (Edge(0, 1, 1), Edge(0, 1, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    cert = make_eulerian_certificate(g, eulerian_decompose(g))
    assert cert.verdict == "members=2"
    out = verify_certificate(Certificate.from_json(cert.to_json()))
    assert out.ok, out.reason


@pytest.fixture(scope="module")
def normalization_cert():
    g = cycle(3)
    fa = FlowAssignment(Orientation.reference(), (Fraction(4, 3),) * 3)
    state = normalize_circular_flow(g, fa, 2, 1)
    return make_normalization_certificate(g, fa, state)


def test_normalization_certificate_verifies(normalization_cert):
    assert normalization_cert.verdict == "empty"
    out = verify_certificate(Certificate.from_json(normalization_cert.to_json()))
    assert out.ok, out.reason


# ---------------------------------------------------------------------------
# tampering: every independently checkable field must actually be checked


def flow_exists_cert():
    g = cycle(4)
    return make_flow_certificate(g, FlowKind.integer(2), find_nz_k_flow(g, 2))


def test_tampered_graph_detected():
    cert = retamper(
        flow_exists_cert(),
        lambda raw: raw.update(graph=serialize_graph(neg_loop())),
    )
    out = verify_certificate(cert)
    assert not out.ok and "hash mismatch" in out.reason


def test_tampered_witness_value_detected():
    def mutate(raw):
        raw["payload"]["values"][0] = "0"

    out = verify_certificate(retamper(flow_exists_cert(), mutate))
    assert not out.ok and "witness fails" in out.reason


def test_tampered_verdict_detected():
    out = verify_certificate(
        retamper(flow_exists_cert(), lambda raw: raw.update(verdict="none"))
    )
    assert not out.ok and "exhaustive" in out.reason


def test_malformed_flow_payload_detected():
    def mutate(raw):
        del raw["payload"]["orientation"]

    out = verify_certificate(retamper(flow_exists_cert(), mutate))
    assert not out.ok and "malformed" in out.reason


@pytest.mark.parametrize(
    "mutate",
    [
        lambda payload: payload.pop("flow_kind"),
        lambda payload: payload.update(flow_kind="integer:abc"),
        lambda payload: payload.update(values=5),
        lambda payload: payload.update(orientation=[4]),  # cycle(4) has edges 0..3
    ],
    ids=["missing-flow-kind", "bad-flow-kind-param", "values-not-a-list", "orientation-id-out-of-range"],
)
def test_malformed_certificate_rejected_not_raised(mutate):
    out = verify_certificate(retamper(flow_exists_cert(), lambda raw: mutate(raw["payload"])))
    assert isinstance(out, VerifyOutcome)
    assert not out.ok and "malformed" in out.reason


@pytest.mark.parametrize(
    "mutate,reason",
    [
        (lambda p: p["values"].__setitem__(0, float("-inf")),
         "OverflowError: cannot convert Infinity to integer ratio"),
        (lambda p: p["orientation"].append(float("inf")),
         "orientation must be an integer, not inf"),
        (lambda p: p.update(flow_kind="circular:1/0"), "ZeroDivisionError: Fraction(1, 0)"),
    ],
    ids=["infinite-value", "infinite-edge-id", "zero-denominator-kind"],
)
def test_unconvertible_number_rejected_not_raised(mutate, reason):
    # JSON admits Infinity, which Fraction and int refuse with
    # OverflowError, and a kind's fraction may have a zero denominator
    raw = json.loads(flow_exists_cert().to_json())
    mutate(raw["payload"])
    out = verify_certificate(Certificate.from_json(json.dumps(raw)))
    assert out == VerifyOutcome(False, f"malformed certificate: {reason}")


def test_wrong_schema_version_refused():
    out = verify_certificate(
        retamper(flow_exists_cert(), lambda raw: raw.update(schema_version=99))
    )
    assert not out.ok and "schema" in out.reason


def test_unknown_claim_refused():
    out = verify_certificate(
        retamper(flow_exists_cert(), lambda raw: raw.update(claim="mystery"))
    )
    assert not out.ok and "unknown claim" in out.reason


def test_inflated_flow_number_detected():
    # claiming phi_i=3 with a valid 2-flow witness must fail the minimality
    # re-search, not sneak through on witness validity alone
    g = cycle(3)
    cert = make_flow_number_certificate(g, flow_numbers(g))

    def mutate(raw):
        raw["payload"]["phi_i"] = 3
        raw["payload"]["witness_phi_i"] = raw["payload"]["witness_phi_i"]

    out = verify_certificate(retamper(cert, mutate))
    assert not out.ok and "exists below" in out.reason


def test_flow_number_inflated_by_three_names_the_flow_just_below():
    # a 2-flow is also a 5-flow, so the witness holds; only "no 4-flow" is
    # re-checked, which covers every smaller k as well
    g = cycle(3)
    cert = make_flow_number_certificate(g, flow_numbers(g))

    def mutate(raw):
        raw["payload"]["phi_i"] = 5

    out = verify_certificate(retamper(cert, mutate))
    assert out == VerifyOutcome(False, "a 4-flow exists below phi_i=5")


def five_negative_loops():
    return SignedGraph(1, (Edge(0, 0, -1),) * 5)  # phi_c = 5/2


@pytest.mark.parametrize(
    "make", [cycle, k4, lambda: g_family(1), five_negative_loops],
    ids=["cycle3", "k4", "g1", "five-negative-loops"],
)
@pytest.mark.parametrize("step", [Fraction(-1), Fraction(1), Fraction(-1, 2), Fraction(1, 2)])
def test_moved_phi_c_rejected(make, step):
    # the verifier's circular search starts from the phi_i it has just
    # verified; a phi_c one step off either way must still be recomputed
    g = make(3) if make is cycle else make()
    numbers = flow_numbers(g)
    cert = make_flow_number_certificate(g, numbers)
    assert verify_certificate(cert).ok
    moved = numbers.phi_c + step

    def mutate(raw):
        raw["payload"]["phi_c"] = fraction_to_str(moved)
        raw["verdict"] = f"phi_i={numbers.phi_i};phi_c={fraction_to_str(moved)}"

    out = verify_certificate(retamper(cert, mutate))
    assert not out.ok
    assert out.reason == f"recomputed phi_c={numbers.phi_c}, certified {moved}"


# ---------------------------------------------------------------------------
# "no integer k-flow": the Z_k search first, the integer search as fallback


def test_integer_certificates_match_plain_re_search(corpus_4_6):
    # an exhausted Z_k search proves "no integer k-flow"; a forged "none"
    # on a graph with a k-flow has a Z_k-flow, so it still reaches the
    # integer re-search and is rejected exactly as before
    admissible = [g for g in corpus_4_6 if is_flow_admissible(g)]
    assert len(admissible) == 515
    for g in admissible:
        for k in range(2, 7):
            kind = FlowKind.integer(k)
            fa = find_nz_k_flow(g, k)
            plain = bruteforce.integer_none_outcome_reference(g, k)
            honest = VerifyOutcome(True) if fa is not None else plain
            assert verify_certificate(make_flow_certificate(g, kind, fa)) == honest
            assert verify_certificate(make_flow_certificate(g, kind, None)) == plain


@pytest.mark.parametrize(
    "make,k", [(signed_petersen, 4), (lambda: g_family(1), 4), (neg_loop, 2)],
    ids=["petersen-none", "g1-forged", "negative-loop-zk-only"],
)
def test_capped_zk_search_falls_back_to_integer_search(monkeypatch, make, k):
    # the re-search is find_nz_k_flow, which runs the modulo kernel first;
    # when that kernel hits the cap, the integer search decides alone
    g = make()
    calls = []

    def capped(*args):
        k_, cap = args[-2:]
        calls.append(k_)
        return _solver_py.CAPPED, None, cap + 1

    monkeypatch.setattr(_solver_py, "search_modulo", capped)
    out = verify_certificate(make_flow_certificate(g, FlowKind.integer(k), None))
    assert calls == [k]
    assert out == bruteforce.integer_none_outcome_reference(g, k)


@pytest.mark.parametrize(
    "make,k,cap", [(signed_petersen, 4, 100), (five_negative_loops, 2, 8)],
    ids=["both-searches-capped", "zk-flow-then-integer-capped"],
)
def test_integer_re_search_over_the_cap_raises(monkeypatch, make, k, cap):
    # five negative loops have a Z_2-flow within 8 nodes and no integer
    # 2-flow, whose search needs more
    cert = make_flow_certificate(make(), FlowKind.integer(k), None)
    monkeypatch.setenv("SG_RESOURCE_CAP", str(cap))
    with pytest.raises(ResourceCapExceeded, match="^k-flow search$"):
        verify_certificate(cert)


def test_each_re_search_has_the_cap_to_itself(monkeypatch):
    # "no 4-flow" on Petersen: the Z_4 search exhausts within 1,000 nodes,
    # so the integer search, which needs more, never runs
    g = signed_petersen()
    stats = {}
    assert find_nz_k_flow(g, 4, cap=1000, stats=stats) is None
    assert stats == {"nodes": 0, "zk_nodes": 798}
    with pytest.raises(ResourceCapExceeded, match="^k-flow search$") as exc:
        bruteforce.find_nz_k_flow_reference(g, 4, cap=1000)
    assert exc.value.spent == 1001
    monkeypatch.setenv("SG_RESOURCE_CAP", "1000")
    assert verify_certificate(make_flow_certificate(g, FlowKind.integer(4), None)).ok


def test_k2_none_verified_by_the_verifiers_own_degree_count(monkeypatch, corpus_4_6):
    # at k = 2 an odd degree proves "none" without the solvers: their
    # finders are never called on such a graph, and every "none"
    # certificate verifies exactly when the brute force finds no flow
    from signedflow import solve

    searched = []

    def counting(finder):
        def wrapper(g, k, *args, **kwargs):
            searched.append(k)
            return finder(g, k, *args, **kwargs)
        return wrapper

    for name in ("find_nz_k_flow", "find_nz_zk_flow"):
        monkeypatch.setattr(solve, name, counting(getattr(solve, name)))
    decided = 0
    for g in corpus_4_6:
        degree = [0] * g.num_vertices
        for e in g.edges:
            degree[e.u] += 1
            degree[e.v] += 1
        odd = any(d % 2 for d in degree)
        decided += odd
        searched.clear()
        for kind, has_flow in ((FlowKind.integer(2), bruteforce.has_integer_k_flow),
                               (FlowKind.modulo(2), bruteforce.has_zk_flow)):
            out = verify_certificate(make_flow_certificate(g, kind, None))
            assert out.ok == (not has_flow(g, 2)), g.edges
            if not out.ok:
                assert out.reason == "re-search found a flow the certificate denies"
        assert (searched == []) == odd, g.edges
    assert decided == 1277


def test_flow_number_verifier_counts_degrees_below_phi_i_3(monkeypatch):
    # phi_i = 3 rests on "no 2-flow", which an odd degree proves: the
    # certificate of K_3,3 verifies with the solvers' k = 2 search removed
    from signedflow import solve

    g = k33()
    cert = make_flow_number_certificate(g, flow_numbers(g))
    assert cert.payload["phi_i"] == 3
    real = solve.find_nz_k_flow

    def no_k2(g_, k, *args, **kwargs):
        assert k != 2, "the verifier asked the solver for k = 2"
        return real(g_, k, *args, **kwargs)

    monkeypatch.setattr(solve, "find_nz_k_flow", no_k2)
    assert verify_certificate(cert).ok


def test_verifier_searches_again_after_the_caller_recorded(monkeypatch, petersen, fresh):
    # the verifier parses its own graph from the certificate, so the
    # answers recorded on the caller's object never stand in for its search
    g = fresh(petersen)
    assert find_nz_zk_flow(g, 5) is None and find_nz_k_flow(g, 5) is None
    kernel, calls = _solver_py.search_modulo, []

    def counting(*args):
        calls.append(args[-2])
        return kernel(*args)

    monkeypatch.setattr(_solver_py, "search_modulo", counting)
    assert find_nz_zk_flow(g, 5) is None and find_nz_k_flow(g, 5) is None
    assert calls == []
    for kind in (FlowKind.modulo(5), FlowKind.integer(5)):
        assert verify_certificate(make_flow_certificate(g, kind, None)).ok
    assert calls == [5, 5]


def _flow_number_cert():
    g = cycle(3)
    return make_flow_number_certificate(g, flow_numbers(g))


def _decomposition_cert():
    g = k4()
    fa = find_nz_k_flow(g, 4)
    return make_decomposition_certificate(g, 4, fa, decompose_into_2_flows(g, fa, 4))


def _eulerian_cert():
    g = SignedGraph(2, (Edge(0, 1, 1), Edge(0, 1, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    return make_eulerian_certificate(g, eulerian_decompose(g))


@pytest.mark.parametrize(
    "make,mutate",
    [
        (_flow_number_cert, lambda raw: raw.update(verdict="phi_i=5;phi_c=5")),
        (_flow_number_cert, lambda raw: raw.update(payload={}, verdict="phi_i=7")),
        (_flow_number_cert, lambda raw: raw.update(payload={}, verdict="none")),
        ("conversion_cert", lambda raw: raw.update(verdict="failed")),
        (_decomposition_cert, lambda raw: raw.update(verdict="parts=1")),
        (_eulerian_cert, lambda raw: raw.update(verdict="members=9")),
        ("normalization_cert", lambda raw: raw.update(verdict="residual")),
    ],
    ids=[
        "flow-number-inflated", "flow-number-empty-payload", "flow-number-claims-nothing",
        "conversion", "decomposition", "eulerian", "normalization",
    ],
)
def test_verdict_must_match_payload(request, make, mutate):
    cert = request.getfixturevalue(make) if isinstance(make, str) else make()
    assert verify_certificate(cert).ok
    out = verify_certificate(retamper(cert, mutate))
    assert not out.ok


def test_tampered_journal_detected(conversion_cert):
    def mutate(raw):
        raw["payload"]["journal"].append(["teleport", []])

    out = verify_certificate(retamper(conversion_cert, mutate))
    assert not out.ok and "journal" in out.reason


@pytest.fixture(scope="module")
def petersen_conversion_cert(petersen):
    fa = find_nz_zk_flow(petersen, 7)
    out, state = run_modflow_conversion(petersen, fa, 7)
    return make_conversion_certificate(petersen, 7, fa, out, state.journal)


@pytest.mark.parametrize("vertex", [-1, 10])
def test_journal_switch_at_unknown_vertex_detected(petersen_conversion_cert, vertex):
    # -1 would index the last vertex; 10 is one past it
    assert verify_certificate(petersen_conversion_cert).ok

    def mutate(raw):
        raw["payload"]["journal"].append(["switch", [vertex]])

    out = verify_certificate(retamper(petersen_conversion_cert, mutate))
    assert out == VerifyOutcome(False, f"vertex id {vertex} out of range")


@pytest.mark.parametrize("vertices", [[3], list(range(10))], ids=["one-vertex", "every-vertex"])
def test_journal_ending_on_a_switch_detected(petersen_conversion_cert, vertices):
    # the unwinding reads only minus steps, but a run always ends on one
    def mutate(raw):
        raw["payload"]["journal"].append(["switch", vertices])

    out = verify_certificate(retamper(petersen_conversion_cert, mutate))
    assert out == VerifyOutcome(False, "journal ends on a switch step")


def test_journal_switch_at_a_source_detected(petersen, petersen_conversion_cert):
    # the converter switches only sinks and zero-boundary vertices
    source = ConversionState.lift(petersen, find_nz_zk_flow(petersen, 7), 7).sources[0]

    def mutate(raw):
        raw["payload"]["journal"].insert(0, ["switch", [source]])

    out = verify_certificate(retamper(petersen_conversion_cert, mutate))
    assert out == VerifyOutcome(False, f"journal switches sources [{source}]")


def test_honest_conversion_certificates_verify():
    # every barbell-free 4/7 class with a Z_k-flow, k = 3, 5, 7
    certified = switched = 0
    for g in enumerate_signed_graphs(4, 7):
        if find_long_barbell(g) is not None:
            continue
        for k in CONVERSION_KS:
            zk = find_nz_zk_flow(g, k)
            if zk is None:
                continue
            out, state = run_modflow_conversion(g, zk, k)
            cert = make_conversion_certificate(g, k, zk, out, state.journal)
            assert verify_certificate(cert).ok, (g, k)
            certified += 1
            switched += bool(state.switch_log)
    assert (certified, switched) == (2890, 509)


def test_tampered_part_detected():
    g = k4()
    fa = find_nz_k_flow(g, 4)
    cert = make_decomposition_certificate(g, 4, fa, decompose_into_2_flows(g, fa, 4))

    def mutate(raw):
        vals = raw["payload"]["parts"][0]["values"]
        i = vals.index("1")
        vals[i] = "0"

    assert not verify_certificate(retamper(cert, mutate)).ok


def test_tampered_off_grid_detected(normalization_cert):
    def mutate(raw):
        raw["payload"]["off_grid"] = [0]

    out = verify_certificate(retamper(normalization_cert, mutate))
    assert not out.ok and "off-grid" in out.reason


def _complement_orientation(flow):
    # every edge reversed relative to the flow: the same values then
    # read as the negated flow, which is still a valid flow
    m = len(flow["values"])
    flow["orientation"] = sorted(set(range(m)) - set(flow["orientation"]))


def _long_barbell_member_cert():
    # two negative loops joined by a path edge, stated as one long barbell
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(1, 1, -1)))
    witness = classify_signed_circuit(g, (0, 1, 2))
    assert witness.kind == "long-barbell"
    return make_eulerian_certificate(g, EulerianDecomposition((witness,)))


def _negate_values(flow):
    flow["values"] = [str(-int(v)) for v in flow["values"]]


def _first_value(flow, value):
    def mutate(raw):
        raw["payload"][flow]["values"][0] = value
    return mutate


def _reverse_first_push(raw):
    push = raw["payload"]["pushes"][0]
    push[1] = -push[1]


@pytest.mark.parametrize(
    "make,mutate,reason",
    [
        ("conversion_cert", _first_value("input", "3"),
         "input fails modulo check: support != E (edge 0)"),
        ("conversion_cert", _first_value("output", "0"),
         "output fails integer check: support != E (edge 0)"),
        ("conversion_cert", lambda raw: _complement_orientation(raw["payload"]["output"]),
         "output orientation differs from input"),
        ("conversion_cert", lambda raw: _negate_values(raw["payload"]["output"]),
         "journal replay does not reach certified output"),
        (_decomposition_cert, lambda raw: raw["payload"]["parts"].pop(),
         "2 parts for k=4"),
        (_decomposition_cert, lambda raw: _complement_orientation(raw["payload"]["input"]),
         "edge 0 sums to 1, input -1"),
        (_long_barbell_member_cert, lambda raw: None, "member 0 is a long barbell"),
        (_eulerian_cert, lambda raw: raw["payload"]["members"].pop(),
         "members do not partition the edge set"),
        ("normalization_cert", _reverse_first_push, "push journal mismatch"),
    ],
    ids=[
        "conversion-input", "conversion-output", "conversion-orientation",
        "conversion-replay", "decomposition-part-count", "decomposition-sum",
        "eulerian-long-barbell", "eulerian-partition", "normalization-pushes",
    ],
)
def test_each_verifier_rejection_fires(request, make, mutate, reason):
    # one tampering per rejection, each reaching its own check
    cert = request.getfixturevalue(make) if isinstance(make, str) else make()
    out = verify_certificate(retamper(cert, mutate))
    assert out == VerifyOutcome(False, reason)


def _loop_pair_flow_cert():
    # two negative loops at one vertex: the 3-flow reverses edge 1
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    cert = make_flow_certificate(g, FlowKind.integer(3), find_nz_k_flow(g, 3))
    assert cert.payload["orientation"] == [1]
    return cert


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(raw):
        node = raw
        for step in path:
            node = node[step]
        node[key] = value
    return mutate


@pytest.mark.parametrize(
    "make,mutate,reason",
    [
        (_loop_pair_flow_cert, _set("payload", "orientation", "1"),
         "orientation must be a list, not '1'"),
        (_loop_pair_flow_cert, _set("payload", "orientation", [True]),
         "orientation must be an integer, not True"),
        (_loop_pair_flow_cert, _set("payload", "orientation", [1.0]),
         "orientation must be an integer, not 1.0"),
        ("conversion_cert", _set("payload", "journal", 1, 1, "0"),
         "journal items must be a list, not '0'"),
        ("conversion_cert", _set("payload", "journal", 0, 1, "345"),
         "journal items must be a list, not '345'"),
        ("conversion_cert", _set("payload", "k", 3.0), "k must be an integer, not 3.0"),
        (_decomposition_cert, _set("payload", "k", "4"), "k must be an integer, not '4'"),
        (_flow_number_cert, _set("payload", "phi_i", 3.0), "phi_i must be an integer, not 3.0"),
        (_eulerian_cert, _set("payload", "members", 0, "circuits", 0, ["0", "2"]),
         "circuit must be an integer, not '0'"),
        (_eulerian_cert, _set("payload", "members", 0, "path", ""), "path must be a list, not ''"),
        ("normalization_cert", _set("payload", "off_grid", ""), "off_grid must be a list, not ''"),
        ("normalization_cert", _set("payload", "pushes", 0, 0, "012"),
         "push support must be a list, not '012'"),
        ("normalization_cert", _set("payload", "pushes", 0, 1, -1.0),
         "push direction must be an integer, not -1.0"),
        ("normalization_cert", _set("payload", "p", True), "p must be an integer, not True"),
        ("normalization_cert", _set("payload", "q", 1.0), "q must be an integer, not 1.0"),
    ],
    ids=[
        "orientation-string", "orientation-bool", "orientation-float", "journal-minus-string",
        "journal-switch-string", "conversion-k-float", "decomposition-k-string",
        "phi-i-float", "circuit-strings", "path-string", "off-grid-string",
        "push-support-string", "push-direction-float", "p-bool", "q-float",
    ],
)
def test_ids_and_integers_must_have_json_integer_type(request, make, mutate, reason):
    # every id list must be a JSON list of integers, and k, p, q, phi_i
    # and push directions integers, bools refused; int(...) read most of
    # these forms as the honest value
    cert = request.getfixturevalue(make) if isinstance(make, str) else make()
    assert verify_certificate(cert).ok
    out = verify_certificate(retamper(cert, mutate))
    assert out == VerifyOutcome(False, f"malformed certificate: {reason}")


@pytest.mark.parametrize(
    "kind",
    ["integer: 3", "integer:+3", "integer:0_3", "integer:03", "integer:\uff13", "circular:6.0"],
    ids=["space", "plus", "underscore", "leading-zero", "fullwidth-digit", "decimal-point"],
)
def test_non_canonical_flow_kind_refused(kind):
    # int() and Fraction() read each of these as an honest kind, so the
    # tampered certificate used to verify; only str(kind) itself parses
    cert = _loop_pair_flow_cert()
    assert verify_certificate(cert).ok
    out = verify_certificate(retamper(cert, _set("payload", "flow_kind", kind)))
    assert out == VerifyOutcome(False, f"malformed certificate: ValueError: bad flow kind {kind!r}")


def test_bool_schema_version_refused():
    cert = _loop_pair_flow_cert()
    out = verify_certificate(retamper(cert, lambda raw: raw.update(schema_version=True)))
    assert out == VerifyOutcome(False, "unsupported schema True")


def test_tampered_eulerian_kind_detected():
    g = SignedGraph(2, (Edge(0, 1, 1), Edge(0, 1, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    cert = make_eulerian_certificate(g, eulerian_decompose(g))

    def mutate(raw):
        raw["payload"]["members"][0]["kind"] = "short-barbell"

    assert not verify_certificate(retamper(cert, mutate)).ok


@pytest.mark.parametrize(
    "circuits,path",
    [([[0, 1], []], []), ([[0]], [1])],
    ids=["circuits-merged", "circuit-moved-to-path"],
)
def test_tampered_eulerian_split_detected(circuits, path):
    # two negative loops at one vertex, a short barbell certified as
    # circuits [[0], [1]]: the same edges under another split are refused
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    cert = make_eulerian_certificate(g, eulerian_decompose(g))
    assert cert.payload["members"][0]["circuits"] == [[0], [1]]
    assert verify_certificate(cert).ok

    def mutate(raw):
        raw["payload"]["members"][0].update(circuits=circuits, path=path)

    out = verify_certificate(retamper(cert, mutate))
    assert out == VerifyOutcome(False, "member 0 states a split that is not its short-barbell's")


def _positive(n, pairs):
    return SignedGraph(n, tuple(Edge(u, v, 1) for u, v in pairs))


HOSTILE_MEMBERS = {
    "theta": _positive(4, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]),
    "single-edge": _positive(2, [(0, 1)]),
    "star-four-odd": _positive(4, [(0, 1), (0, 2), (0, 3)]),
    "two-disjoint-balanced": _positive(4, [(0, 1), (0, 1), (2, 3), (2, 3)]),
    "balanced-figure-eight": _positive(3, [(0, 1), (0, 1), (0, 2), (0, 2)]),
}


@pytest.mark.parametrize("kind", ["balanced-circuit", "short-barbell", "long-barbell"])
@pytest.mark.parametrize("shape", sorted(HOSTILE_MEMBERS))
def test_eulerian_member_that_is_no_signed_circuit_rejected(shape, kind):
    # one member holding every edge, so only the member check can object;
    # none of these is a signed circuit, and none may raise
    g = HOSTILE_MEMBERS[shape]
    member = SignedCircuitWitness(kind, (tuple(range(g.num_edges)),), graph=g)
    cert = make_eulerian_certificate(g, EulerianDecomposition((member,)))
    out = verify_certificate(retamper(cert, lambda raw: None))
    assert out == VerifyOutcome(False, f"member 0 is not a {kind}")


# JSON leaves for a flow value: digit-like text with signs, spaces,
# underscores, non-ASCII digits, decimal points and exponents; any short
# text; past int's digit limit; and the non-strings JSON can hold
_value_leaves = (
    st.text(alphabet="0123456789+-_ ./eE\u0663\u00b2x\t", max_size=8)
    | st.text(max_size=4)
    | st.sampled_from(["2.0", "1e2", "1/1", "\u0663", "1_0", " 3 ", "-0", "+7", "007",
                       "-4/2", "3/2", "+", "", "9" * 5000, "-" + "9" * 5000])
    | st.integers() | st.booleans() | st.floats() | st.none()
)


def _decoded(decode):
    """(type, value) of a decoded value, or (type, message) of its error."""
    try:
        value = decode()
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return type(value), value


@settings(max_examples=500, deadline=None)
@given(leaf=_value_leaves, kind=st.sampled_from(
    [FlowKind.integer(3), FlowKind.modulo(5), FlowKind.circular(Fraction(5, 2))]))
def test_value_decoder_matches_the_fraction_path(leaf, kind):
    # plain integer literals skip Fraction; every leaf still decodes to the
    # value and type, or fails with the error and message, of the Fraction
    # path, in a certificate payload and in a flow file alike
    want = _decoded(lambda: bruteforce.value_for_kind_reference(leaf, kind))
    assert _decoded(lambda: _value_for_kind(leaf, kind)) == want
    assert _decoded(lambda: _payload_flow({"orientation": [], "values": [leaf]}, 1, kind)
                    .values[0]) == want
    if isinstance(leaf, str) and leaf.split() == [leaf]:
        assert _decoded(lambda: flow_from_text(f"0 {leaf}\n", 1, kind).values[0]) == want


def test_graph_hash_is_canonical():
    g = cycle(4)
    assert graph_sha256(g) == graph_sha256(SignedGraph(g.num_vertices, g.edges))


# ---------------------------------------------------------------------------
# fuzzing: a hostile certificate gets an outcome, never a traceback


def _fuzz_bases():
    """One certificate of each claim kind, on graphs of at most 4 vertices."""
    square = SignedGraph(4, (Edge(0, 1, -1), Edge(0, 2, -1), Edge(1, 3, -1), Edge(2, 3, -1)))
    zk = find_nz_zk_flow(square, 3)
    converted, state = run_modflow_conversion(square, zk, 3)
    g = k4()
    fa4 = find_nz_k_flow(g, 4)
    tri = cycle(3)
    third = FlowAssignment(Orientation.reference(), (Fraction(4, 3),) * 3)
    digon = SignedGraph(2, (Edge(0, 1, 1), Edge(0, 1, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    return [
        make_flow_certificate(g, FlowKind.integer(4), fa4),
        make_flow_certificate(g, FlowKind.integer(3), None),
        make_flow_number_certificate(g, flow_numbers(g)),
        make_conversion_certificate(square, 3, zk, converted, state.journal),
        make_decomposition_certificate(g, 4, fa4, decompose_into_2_flows(g, fa4, 4)),
        make_eulerian_certificate(digon, eulerian_decompose(digon)),
        make_normalization_certificate(tri, third, normalize_circular_flow(tri, third, 2, 1)),
    ]


FUZZ_BASES = [json.loads(c.to_json()) for c in _fuzz_bases()]


def _json_paths(node, prefix=()):
    """Every key/index path below the root of a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_certificates(draw):
    raw = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    num_edges = parse_graph(raw["graph"]).num_edges
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(raw))
        kind = draw(st.sampled_from(["delete", "swap", "edge-id", "verdict"]))
        if kind == "verdict":
            raw["verdict"] = draw(st.sampled_from(
                ["exists", "none", "converted", "empty", "residual", "parts=3", "members=2",
                 "phi_i=4;phi_c=4", "phi_i=3", ""]
            ) | st.text(max_size=8))
            edits.append(kind)
            continue
        path = draw(st.sampled_from(paths))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "swap":
            parent[path[-1]] = draw(_any_json)
        else:
            parent[path[-1]] = draw(st.sampled_from(
                [num_edges, num_edges + 1, -1, -num_edges - 1, 10**12]
            ))
        edits.append(kind)
    return raw, edits


@settings(max_examples=300, deadline=None)
@given(mutated_certificates())
def test_fuzzed_certificate_gets_an_outcome(case):
    raw, edits = case
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SG_RESOURCE_CAP", raising=False)
        try:
            cert = Certificate.from_json(json.dumps(raw))
        except PreconditionError:
            return  # a required top-level field is gone; from_json names it
        out = verify_certificate(cert)
    assert isinstance(out, VerifyOutcome)
    assert isinstance(out.reason, str)
