"""Golden digests of the constructive witnesses.

Each digest is the sha256 of one output per graph, newline-terminated, over
a fixed slice of the corpus.  Together they pin the eulerian decomposition
and grid normalization byte for byte, so a change to the circuit walks
underneath them cannot move a witness unnoticed.  The integer digest pins
the k-flow search's answers the same way, so a pruning added to the kernel
cannot change a status or a first witness unnoticed.  The flow-certificate
digest pins the bytes of every k-flow and Z_k-flow certificate, node
counts included, so a change to how values are encoded cannot move them
unnoticed.  A second eulerian digest keeps only each member's kind and
edge sets, so it tells a change in which edges a member holds from a
change in the order they are traced in.  The conversion digest pins the
journal of every modulo-to-integer conversion on the barbell-free 4/6
classes at k = 3, 5, 7, and the two-flow digest the parts of every 2-flow
decomposition on the admissible ones at k = 2..6, so a change to how
signed values are folded or lifted through a subgraph cannot move them
unnoticed.
A mismatch prints the recomputed digest.
"""

import hashlib

import pytest

from signedflow.certificates import (
    make_conversion_certificate,
    make_decomposition_certificate,
    make_eulerian_certificate,
    make_flow_certificate,
    make_normalization_certificate,
    verify_certificate,
)
from signedflow.core import FlowKind, SignedGraph, is_eulerian
from signedflow.corpus import g_family
from signedflow.solve import find_nz_k_flow, find_nz_zk_flow, flow_numbers
from signedflow.structure import find_long_barbell, is_flow_admissible
from signedflow.transform import (
    decompose_into_2_flows,
    eulerian_decompose,
    normalize_circular_flow,
    run_modflow_conversion,
)

EULERIAN_DIGEST = "327bcd045f4602ffe88c880d5d4906d1fc4eb7a2a66a3efcba6d78418f3af349"
EULERIAN_MEMBERS_DIGEST = "495cf46229a98c21f518cb6a9ba467eaaee7e878c570159372147f1754feb7bf"
NORMALIZATION_DIGEST = "bb8b0813bdf9fe6757229a86c187e54e481cd3e9f5636738ed712de84b47d23d"
INTEGER_WITNESS_DIGEST = "28313aa1f8be7afc537bd739ed45ce0d01c55686f92d6a82cc2a726ab276a2f8"
# re-pinned when positive loops left the search layout: 1,895 of the 4,120
# certificates, each on a class with a positive loop, count fewer nodes
FLOW_CERTIFICATE_DIGEST = "0af222d3f478a2bae9529bb390e1f55bd9d512a8c5d81cab5ec1475d9fbe7124"
CONVERSION_DIGEST = "3e089b318317e7639a78125137d0dc45e5bcb5aeea80422d82cc971fb0cc9d30"
TWO_FLOW_DIGEST = "fb1f6f65432465cbf0cae2ceebd6067f244cdaa5b77f07a158293dc93be6ee00"


def _digest(lines) -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
        count += 1
    return h.hexdigest(), count


@pytest.fixture(scope="module")
def eulerian_decompositions(corpus_full):
    return [
        (g, eulerian_decompose(g))
        for g in corpus_full
        if is_eulerian(g)
        and len(g.negative_edges) % 2 == 0
        and is_flow_admissible(g)
        and find_long_barbell(g) is None
    ]


def test_eulerian_certificates_digest(eulerian_decompositions):
    certs = [make_eulerian_certificate(g, dec) for g, dec in eulerian_decompositions]
    # every honest certificate verifies, the split each member states included
    assert all(verify_certificate(cert).ok for cert in certs)
    digest, count = _digest(cert.to_json() for cert in certs)
    assert count == 1239
    assert digest == EULERIAN_DIGEST, f"recomputed eulerian digest {digest}"


def test_eulerian_members_digest(eulerian_decompositions):
    # which edges each member holds, free of the order the circuits are
    # traced in: this one must not move when only a circuit's start or
    # the order of a barbell's two circuits changes
    def members(dec):
        return repr([
            (w.kind, sorted(sorted(c) for c in w.circuits), sorted(w.path or ()))
            for w in dec.members
        ])

    digest, count = _digest(members(dec) for _, dec in eulerian_decompositions)
    assert count == 1239
    assert digest == EULERIAN_MEMBERS_DIGEST, f"recomputed members digest {digest}"


def test_normalization_certificates_digest(corpus_4_6):
    def certificates():
        for g in corpus_4_6:
            if not is_flow_admissible(g):
                continue
            numbers = flow_numbers(g)
            band = numbers.phi_c - 1
            fa = numbers.witnesses["phi_c"]
            state = normalize_circular_flow(g, fa, band.numerator, band.denominator)
            yield make_normalization_certificate(g, fa, state).to_json()

    digest, count = _digest(certificates())
    assert count == 515
    assert digest == NORMALIZATION_DIGEST, f"recomputed normalization digest {digest}"


def test_integer_witness_digest(corpus_4_6, petersen):
    def answers():
        for g in list(corpus_4_6) + [petersen] + [g_family(t) for t in (1, 2, 3)]:
            for k in range(2, 7):
                fa = find_nz_k_flow(g, k)
                if fa is None:
                    yield "None"
                else:
                    yield f"{sorted(fa.orientation.reversed_edges)} {list(fa.values)}"

    digest, count = _digest(answers())
    assert count == 5 * (len(corpus_4_6) + 4)
    assert digest == INTEGER_WITNESS_DIGEST, f"recomputed integer witness digest {digest}"


def test_flow_certificate_digest(corpus_4_6):
    # k = 2 is left out: its odd-degree "none" answers are decided without
    # a search, so their resources.nodes is 0.  Fresh objects, so every
    # node count is that of a search that walks its tree
    def certificates():
        for g in corpus_4_6:
            if not is_flow_admissible(g):
                continue
            for k in range(3, 7):
                for finder, kind in ((find_nz_k_flow, FlowKind.integer(k)),
                                     (find_nz_zk_flow, FlowKind.modulo(k))):
                    stats = {}
                    fa = finder(SignedGraph(g.num_vertices, g.edges), k, stats=stats)
                    yield make_flow_certificate(g, kind, fa, nodes=stats["nodes"]).to_json()

    digest, count = _digest(certificates())
    assert count == 515 * 4 * 2
    assert digest == FLOW_CERTIFICATE_DIGEST, f"recomputed flow certificate digest {digest}"


@pytest.fixture(scope="module")
def barbell_free_4_6(corpus_4_6):
    return [g for g in corpus_4_6 if find_long_barbell(g) is None]


def test_conversion_certificates_digest(barbell_free_4_6):
    # fresh objects, so no answer recorded by an earlier test is reused
    def certificates():
        for g in barbell_free_4_6:
            for k in (3, 5, 7):
                h = SignedGraph(g.num_vertices, g.edges)
                fa = find_nz_zk_flow(h, k)
                if fa is None:
                    continue
                out, state = run_modflow_conversion(h, fa, k)
                cert = make_conversion_certificate(h, k, fa, out, state.journal)
                assert verify_certificate(cert).ok
                yield cert.to_json()

    digest, count = _digest(certificates())
    assert count == 870
    assert digest == CONVERSION_DIGEST, f"recomputed conversion digest {digest}"


def test_two_flow_certificates_digest(barbell_free_4_6):
    def certificates():
        for g in barbell_free_4_6:
            if not is_flow_admissible(g):
                continue
            for k in range(2, 7):
                fa = find_nz_k_flow(g, k)
                if fa is None:
                    continue
                cert = make_decomposition_certificate(g, k, fa, decompose_into_2_flows(g, fa, k))
                assert verify_certificate(cert).ok
                yield cert.to_json()

    digest, count = _digest(certificates())
    assert count == 1309
    assert digest == TWO_FLOW_DIGEST, f"recomputed two-flow digest {digest}"
