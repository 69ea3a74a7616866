"""Self-verifying JSON certificates and exact flow serialization.

A certificate pins the input graph (canonical text + SHA-256), a claim,
and enough witness material to recompute the verdict from scratch;
`verify_certificate` trusts nothing else.  All numbers serialize as
exact fraction strings, never floats; the values of integer and modulo
flows are plain integer literals, which encode and decode without
Fraction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import solve
from .core import (
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    boundary,
    check_flow,
    parse_graph,
    serialize_graph,
)
from .errors import PreconditionError
from .structure import classify_signed_circuit
from .transform import ConversionState, _unwind, normalize_circular_flow

SCHEMA_VERSION = 1

__all__ = [
    "Certificate",
    "SCHEMA_VERSION",
    "VerifyOutcome",
    "flow_from_text",
    "flow_to_text",
    "fraction_to_str",
    "graph_sha256",
    "make_conversion_certificate",
    "make_decomposition_certificate",
    "make_eulerian_certificate",
    "make_flow_certificate",
    "make_flow_number_certificate",
    "make_normalization_certificate",
    "str_to_fraction",
    "verify_certificate",
]


def fraction_to_str(v) -> str:
    if type(v) is int:
        return str(v)
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def str_to_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad fraction {s!r}") from exc


def _integer_value(s):
    """An integer or modulo flow value: a plain integer literal
    (``[+-]?[0-9]+``) by ``int``; anything else through Fraction, as an
    int when whole and else the Fraction, so check_flow names the type
    violation.  Both give the same value and type, or the same error."""
    if type(s) is str:
        digits = s[1:] if s[:1] in ("+", "-") else s
        if digits.isascii() and digits.isdigit():
            try:
                return int(s)
            except ValueError:
                pass  # past int's digit limit: Fraction names it
    f = str_to_fraction(s)
    return int(f) if f.denominator == 1 else f


def _value_for_kind(s, kind: FlowKind):
    if kind.kind in ("integer", "modulo"):
        return _integer_value(s)
    return str_to_fraction(s)


def _int(raw, what: str) -> int:
    """A JSON integer; bools and floats are refused."""
    if type(raw) is not int:
        raise PreconditionError(f"malformed certificate: {what} must be an integer, not {raw!r}")
    return raw


def _ids(raw, what: str) -> list[int]:
    """A JSON list of integers: every id list a certificate holds."""
    if not isinstance(raw, list):
        raise PreconditionError(f"malformed certificate: {what} must be a list, not {raw!r}")
    return [_int(i, what) for i in raw]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def graph_sha256(g: SignedGraph) -> str:
    return _sha256(serialize_graph(g))


# ---------------------------------------------------------------------------
# flow files


def flow_to_text(fa: FlowAssignment) -> str:
    """Flip-set line, then one `<edge-index> <fraction>` line per edge."""
    lines = ["flip " + " ".join(str(i) for i in sorted(fa.orientation.reversed_edges))]
    for i, v in enumerate(fa.values):
        lines.append(f"{i} {fraction_to_str(v)}")
    return "\n".join(lines).rstrip() + "\n"


def flow_from_text(text: str, num_edges: int, kind: Optional[FlowKind] = None) -> FlowAssignment:
    flips: Optional[frozenset[int]] = None
    values: dict[int, object] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "flip":
            if flips is not None:
                raise PreconditionError(f"line {ln}: duplicate flip line")
            try:
                flips = frozenset(int(x) for x in parts[1:])
            except ValueError:
                raise PreconditionError(f"line {ln}: bad flip line") from None
            continue
        if len(parts) != 2:
            raise PreconditionError(f"line {ln}: expected `<edge-index> <fraction>`")
        try:
            eid = int(parts[0])
        except ValueError:
            raise PreconditionError(f"line {ln}: bad edge index {parts[0]!r}") from None
        if not (0 <= eid < num_edges):
            raise PreconditionError(f"line {ln}: edge index {eid} out of range")
        if eid in values:
            raise PreconditionError(f"line {ln}: duplicate edge {eid}")
        if kind is None:
            values[eid] = str_to_fraction(parts[1])
        else:
            values[eid] = _value_for_kind(parts[1], kind)
    if flips is None:
        flips = frozenset()
    if len(values) != num_edges:
        missing = sorted(set(range(num_edges)) - set(values))
        raise PreconditionError(f"flow file missing edges {missing[:5]}")
    if bad := [i for i in flips if not 0 <= i < num_edges]:
        raise PreconditionError(f"flip set references unknown edges {sorted(bad)[:5]}")
    return FlowAssignment(
        Orientation(flips), tuple(values[i] for i in range(num_edges))
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """A claim about one graph plus the material to re-derive it."""

    claim: str
    graph_text: str
    graph_hash: str
    verdict: str
    payload: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "claim": self.claim,
                "graph": self.graph_text,
                "graph_sha256": self.graph_hash,
                "verdict": self.verdict,
                "payload": self.payload,
                "resources": self.resources,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"certificate is not JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise PreconditionError("certificate must be a JSON object")
        try:
            return cls(
                claim=raw["claim"],
                graph_text=raw["graph"],
                graph_hash=raw["graph_sha256"],
                verdict=raw["verdict"],
                payload=raw["payload"],
                resources=raw.get("resources", {}),
                schema_version=raw["schema_version"],
            )
        except KeyError as exc:
            raise PreconditionError(f"certificate missing field {exc}") from exc


@dataclass
class VerifyOutcome:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _flow_payload(fa: FlowAssignment) -> dict:
    return {
        "orientation": sorted(fa.orientation.reversed_edges),
        "values": list(map(fraction_to_str, fa.values)),
    }


def _payload_flow(
    payload: dict, num_edges: int, kind: Optional[FlowKind] = None
) -> FlowAssignment:
    try:
        rev = frozenset(_ids(payload["orientation"], "orientation"))
        raw = payload["values"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed flow payload: {exc}") from exc
    if not isinstance(raw, list):
        raise PreconditionError("malformed flow payload: values must be a list")
    outside = sorted(i for i in rev if not 0 <= i < num_edges)
    if outside:
        raise PreconditionError(f"malformed flow payload: orientation ids {outside} out of range")
    if kind is not None and kind.kind in ("integer", "modulo"):
        vals = tuple(map(_integer_value, raw))
    else:
        vals = tuple(map(str_to_fraction, raw))
    return FlowAssignment(Orientation(rev), vals)


def _stated_verdict(claim: str, payload: dict) -> str:
    """The verdict string a certificate's payload states."""
    if claim == "flow":
        return "none" if payload.get("search") == "exhaustive" else "exists"
    if claim == "flow-number":
        return ";".join(
            f"{k}={payload[k]}" for k in ("phi_i", "phi_c") if k in payload
        ) or "none"
    if claim == "conversion":
        return "converted"
    if claim == "two-flow-decomposition":
        return f"parts={len(payload['parts'])}"
    if claim == "eulerian-decomposition":
        return f"members={len(payload['members'])}"
    assert claim == "normalization", claim
    return "residual" if payload["off_grid"] else "empty"


def _certificate(g: SignedGraph, claim: str, payload: dict) -> Certificate:
    text = serialize_graph(g)
    return Certificate(
        claim=claim,
        graph_text=text,
        graph_hash=_sha256(text),
        verdict=_stated_verdict(claim, payload),
        payload=payload,
    )


def make_flow_certificate(
    g: SignedGraph,
    kind: FlowKind,
    fa: Optional[FlowAssignment],
    nodes: Optional[int] = None,
) -> Certificate:
    """Existence witness or exhaustive-search nonexistence attestation."""
    payload: dict = {"flow_kind": str(kind)}
    if fa is None:
        payload["search"] = "exhaustive"
    else:
        payload.update(_flow_payload(fa))
    cert = _certificate(g, "flow", payload)
    if nodes is not None:
        cert.resources["nodes"] = nodes
    return cert


def make_flow_number_certificate(g: SignedGraph, numbers) -> Certificate:
    payload: dict = {}
    if numbers.phi_i is not None:
        payload["phi_i"] = numbers.phi_i
    if numbers.phi_c is not None:
        payload["phi_c"] = fraction_to_str(numbers.phi_c)
    for key, fa in numbers.witnesses.items():
        payload[f"witness_{key}"] = _flow_payload(fa)
    return _certificate(g, "flow-number", payload)


def make_conversion_certificate(
    g: SignedGraph, k: int, modular: FlowAssignment, integer: FlowAssignment, journal
) -> Certificate:
    return _certificate(g, "conversion", {
        "k": k,
        "input": _flow_payload(modular),
        "output": _flow_payload(integer),
        "journal": [[op, sorted(items)] for op, items in journal],
    })


def make_decomposition_certificate(
    g: SignedGraph, k: int, fa: FlowAssignment, parts
) -> Certificate:
    return _certificate(g, "two-flow-decomposition", {
        "k": k,
        "input": _flow_payload(fa),
        "parts": [_flow_payload(p) for p in parts],
    })


def make_eulerian_certificate(g: SignedGraph, decomposition) -> Certificate:
    members = [
        {"kind": w.kind, "circuits": [list(c) for c in w.circuits],
         "path": list(w.path) if w.path else []}
        for w in decomposition.members
    ]
    return _certificate(g, "eulerian-decomposition", {"members": members})


def make_normalization_certificate(
    g: SignedGraph, fa_in: FlowAssignment, state
) -> Certificate:
    return _certificate(g, "normalization", {
        "p": state.p,
        "q": state.q,
        "input": _flow_payload(fa_in),
        "final": _flow_payload(state.flow),
        "off_grid": sorted(state.off_grid),
        "pushes": [
            [list(sup), d, fraction_to_str(eps)] for sup, d, eps in state.pushes
        ],
    })


# ---------------------------------------------------------------------------
# verification


def _verify_graph(cert: Certificate) -> SignedGraph:
    g = parse_graph(cert.graph_text)
    h = graph_sha256(g)
    if h != cert.graph_hash:
        raise PreconditionError("graph hash mismatch (tampered certificate)")
    return g


def _has_odd_degree(g: SignedGraph) -> bool:
    """Some vertex has odd degree, a loop counting 2; counted here from
    the edge list, apart from the rule the solvers decide k = 2 by."""
    degree = [0] * g.num_vertices
    for e in g.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    return any(d % 2 for d in degree)


def _no_flow(g: SignedGraph, kind: str, k: int) -> bool:
    """Whether g has no nowhere-zero flow of ``kind`` ("integer" or
    "modulo") at k.  At k = 2 a vertex of odd degree proves it: every
    value is odd, so each boundary is congruent to the degree mod 2.
    Otherwise `solve.find_nz_k_flow` or `solve.find_nz_zk_flow` searches
    again."""
    if k == 2 and _has_odd_degree(g):
        return True
    finder = solve.find_nz_k_flow if kind == "integer" else solve.find_nz_zk_flow
    return finder(g, k) is None


def _verify_flow(cert: Certificate, g: SignedGraph) -> VerifyOutcome:
    """Check an existence witness, or a nonexistence claim by `_no_flow`:
    a flow found rejects the claim."""
    kind = FlowKind.parse(cert.payload["flow_kind"])
    if cert.verdict == "exists":
        fa = _payload_flow(cert.payload, g.num_edges, kind)
        res = check_flow(g, fa, kind)
        if not res.ok:
            return VerifyOutcome(False, f"witness fails: {res.violation}")
        return VerifyOutcome(True)
    if cert.verdict == "none":
        if cert.payload.get("search") != "exhaustive":
            return VerifyOutcome(False, "nonexistence without exhaustive attestation")
        if kind.kind == "circular":
            return VerifyOutcome(False, "nonexistence certificate for circular kind")
        if not _no_flow(g, kind.kind, int(kind.param)):
            return VerifyOutcome(False, "re-search found a flow the certificate denies")
        return VerifyOutcome(True)
    return VerifyOutcome(False, f"unknown verdict {cert.verdict!r}")


def _verify_flow_number(cert: Certificate, g: SignedGraph) -> VerifyOutcome:
    """Check each stated flow number: its witness, and that nothing smaller works.

    For phi_i = k it suffices that no (k - 1)-flow exists (re-checked by
    `_no_flow`; nothing to check when k = 2): integer flows are
    monotone in k, since a k'-flow with k' < k - 1 is also a
    (k - 1)-flow.  phi_c is recomputed by the circular search started
    from the verified phi_i.
    """
    payload = cert.payload
    if "phi_i" not in payload and "phi_c" not in payload:
        return VerifyOutcome(False, "flow-number certificate claims no flow number")
    phi_i = None
    if "phi_i" in payload:
        k = _int(payload["phi_i"], "phi_i")
        fa = _payload_flow(payload["witness_phi_i"], g.num_edges, FlowKind.integer(k))
        res = check_flow(g, fa, FlowKind.integer(k))
        if not res.ok:
            return VerifyOutcome(False, f"phi_i witness fails: {res.violation}")
        if k > 2 and not _no_flow(g, "integer", k - 1):
            return VerifyOutcome(False, f"a {k - 1}-flow exists below phi_i={k}")
        phi_i = k  # verified: a k-flow and no smaller one
    if "phi_c" in payload:
        r = str_to_fraction(payload["phi_c"])
        # the number first, so a wrong number is named as such whatever its witness
        redo = solve._circular_flow_number(
            g, solve.DEFAULT_EDGE_CAP_CIRCULAR, None, phi_i
        )
        if redo.phi_c != r:
            return VerifyOutcome(False, f"recomputed phi_c={redo.phi_c}, certified {r}")
        fa = _payload_flow(payload["witness_phi_c"], g.num_edges, FlowKind.circular(r))
        res = check_flow(g, fa, FlowKind.circular(r))
        if not res.ok:
            return VerifyOutcome(False, f"phi_c witness fails: {res.violation}")
    return VerifyOutcome(True)


def _verify_conversion(cert: Certificate, g: SignedGraph) -> VerifyOutcome:
    """Check both flows and replay the journal to the output.  The
    converter switches only sinks and zero-boundary vertices and ends on a
    minus step, so a switch at a source or at the end is rejected; an
    inert switch inside a journal is still not detected."""
    k = _int(cert.payload["k"], "k")
    fa_in = _payload_flow(cert.payload["input"], g.num_edges, FlowKind.modulo(k))
    fa_out = _payload_flow(cert.payload["output"], g.num_edges, FlowKind.integer(k))
    res = check_flow(g, fa_in, FlowKind.modulo(k))
    if not res.ok:
        return VerifyOutcome(False, f"input fails modulo check: {res.violation}")
    res = check_flow(g, fa_out, FlowKind.integer(k))
    if not res.ok:
        return VerifyOutcome(False, f"output fails integer check: {res.violation}")
    if fa_out.orientation != fa_in.orientation:
        return VerifyOutcome(False, "output orientation differs from input")
    state = ConversionState.lift(g, fa_in, k)
    op = None
    for op, items in cert.payload["journal"]:
        if op == "switch":
            vs = _ids(items, "journal items")
            if sources := sorted(set(vs) & set(state.sources)):
                return VerifyOutcome(False, f"journal switches sources {sources}")
            state.switch_at(vs)
        elif op == "minus":
            state.minus(_ids(items, "journal items"))
        else:
            return VerifyOutcome(False, f"unknown journal op {op!r}")
    if op == "switch":
        return VerifyOutcome(False, "journal ends on a switch step")
    replayed = _unwind(state, fa_in)
    if replayed != fa_out:
        return VerifyOutcome(False, "journal replay does not reach certified output")
    for i in range(g.num_edges):
        # both flows share one orientation, so values compare directly
        if (int(fa_out.values[i]) - int(fa_in.values[i])) % k != 0:
            return VerifyOutcome(False, f"edge {i} not congruent mod {k}")
    return VerifyOutcome(True)


def _verify_decomposition(cert: Certificate, g: SignedGraph) -> VerifyOutcome:
    k = _int(cert.payload["k"], "k")
    fa = _payload_flow(cert.payload["input"], g.num_edges, FlowKind.integer(k))
    parts = [_payload_flow(p, g.num_edges, FlowKind.integer(2)) for p in cert.payload["parts"]]
    if len(parts) != k - 1:
        return VerifyOutcome(False, f"{len(parts)} parts for k={k}")
    res = check_flow(g, fa, FlowKind.integer(k))
    if not res.ok:
        return VerifyOutcome(False, f"input fails integer check: {res.violation}")
    for idx, part in enumerate(parts):
        if part.orientation != parts[0].orientation:
            return VerifyOutcome(False, "parts disagree on orientation")
        if any(v not in (0, 1) for v in part.values):
            return VerifyOutcome(False, f"part {idx} has a value outside {{0,1}}")
        if any(b != 0 for b in boundary(g, part)):
            return VerifyOutcome(False, f"part {idx} has nonzero boundary")
    want = fa.signed_values()
    for i, total in enumerate(map(sum, zip(*(p.signed_values() for p in parts)))):
        if total != want[i]:
            return VerifyOutcome(False, f"edge {i} sums to {total}, input {want[i]}")
    return VerifyOutcome(True)


def _verify_eulerian(cert: Certificate, g: SignedGraph) -> VerifyOutcome:
    def split(circuits, path):
        # each circuit's edge set, and the path's, free of walking order
        return sorted(map(sorted, circuits)), sorted(path)

    members = cert.payload["members"]
    used: list[int] = []
    for idx, mem in enumerate(members):
        circuits = [_ids(c, "circuit") for c in mem["circuits"]]
        path = _ids(mem["path"], "path")
        ids = [i for c in circuits for i in c] + path
        w = classify_signed_circuit(g, ids)
        if w is None or w.kind != mem["kind"]:
            return VerifyOutcome(False, f"member {idx} is not a {mem['kind']}")
        if mem["kind"] == "long-barbell":
            return VerifyOutcome(False, f"member {idx} is a long barbell")
        if split(circuits, path) != split(w.circuits, w.path or ()):
            return VerifyOutcome(False, f"member {idx} states a split that is not its {w.kind}'s")
        used.extend(ids)
    if sorted(used) != list(range(g.num_edges)):
        return VerifyOutcome(False, "members do not partition the edge set")
    return VerifyOutcome(True)


def _verify_normalization(cert: Certificate, g: SignedGraph) -> VerifyOutcome:
    p = _int(cert.payload["p"], "p")
    q = _int(cert.payload["q"], "q")
    fa_in = _payload_flow(cert.payload["input"], g.num_edges)
    state = normalize_circular_flow(g, fa_in, p, q)
    if state.flow != _payload_flow(cert.payload["final"], g.num_edges):
        return VerifyOutcome(False, "re-normalization reaches a different flow")
    if sorted(state.off_grid) != _ids(cert.payload["off_grid"], "off_grid"):
        return VerifyOutcome(False, "off-grid set mismatch")
    recorded = [
        (tuple(_ids(sup, "push support")), _int(d, "push direction"), str_to_fraction(eps))
        for sup, d, eps in cert.payload["pushes"]
    ]
    if list(state.pushes) != recorded:
        return VerifyOutcome(False, "push journal mismatch")
    return VerifyOutcome(True)


_VERIFIERS = {
    "flow": _verify_flow,
    "flow-number": _verify_flow_number,
    "conversion": _verify_conversion,
    "two-flow-decomposition": _verify_decomposition,
    "eulerian-decomposition": _verify_eulerian,
    "normalization": _verify_normalization,
}


_FIELD_TYPES = (
    ("claim", str), ("graph_text", str), ("graph_hash", str), ("verdict", str), ("payload", dict)
)


def verify_certificate(cert: Certificate) -> VerifyOutcome:
    """Recompute the certificate's verdict from graph + witness alone.

    The verdict string must be the one the payload states.  Missing
    fields, wrong types and unparsable values get a rejecting outcome,
    not an exception.  An invalid SG_RESOURCE_CAP is the caller's
    defect, not the certificate's: it raises PreconditionError.

    A nonexistence claim at k = 2 on a graph with a vertex of odd degree
    is accepted by this module's own degree count.  Any other is
    re-searched by the solver that made it, so "no integer k-flow" runs
    the Z_k search first, each search under the node cap on its own
    (`solve.find_nz_k_flow`); a search the verdict rests on raises
    ResourceCapExceeded when it hits the cap.
    """
    solve._resolve_cap(None)
    for name, want in _FIELD_TYPES:
        if not isinstance(getattr(cert, name), want):
            return VerifyOutcome(False, f"malformed certificate: {name} is not a {want.__name__}")
    if type(cert.schema_version) is not int or cert.schema_version != SCHEMA_VERSION:
        return VerifyOutcome(False, f"unsupported schema {cert.schema_version}")
    handler = _VERIFIERS.get(cert.claim)
    if handler is None:
        return VerifyOutcome(False, f"unknown claim {cert.claim!r}")
    try:
        g = _verify_graph(cert)
        outcome = handler(cert, g)
        if outcome.ok and cert.verdict != _stated_verdict(cert.claim, cert.payload):
            return VerifyOutcome(
                False, f"verdict {cert.verdict!r} does not match the payload"
            )
        return outcome
    except PreconditionError as exc:
        return VerifyOutcome(False, str(exc))
    except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
        # ArithmeticError: JSON's Infinity, or a zero denominator, where a
        # number is read
        return VerifyOutcome(False, f"malformed certificate: {type(exc).__name__}: {exc}")
