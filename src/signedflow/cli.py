"""Command-line front end.

Exit codes: 0 success (a mathematical "no" is a success with the verdict
in the payload), 2 precondition violation, 3 resource cap, 4 invariant
violation (a theorem breach or broken certificate), 5 I/O or parse
error.  `SG_RESOURCE_CAP` overrides the default search cap of every
command that takes `--cap`, and bounds each re-search of `check`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .core import (
    FlowAssignment,
    FlowKind,
    GraphFormatError,
    SignedGraph,
    find_bridges,
    is_balanced,
    is_eulerian,
    parse_graph,
    serialize_graph,
)
from .corpus import CorpusSpec, enumerate_signed_graphs, signed_petersen
from .errors import (
    InvariantViolation,
    PreconditionError,
    ResourceCapExceeded,
)
from .structure import find_long_barbell, has_star_cut, is_flow_admissible
from . import certificates as certs
from . import solve, transform, verify_suites

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4
EXIT_IO = 5

__all__ = ["main"]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _load_graph(path: str) -> SignedGraph:
    return parse_graph(_read_text(path))


def _load_flow(path: str, g: SignedGraph, kind: Optional[FlowKind]):
    return certs.flow_from_text(_read_text(path), g.num_edges, kind)


class _Artifacts:
    """Optional output directory with an index manifest."""

    def __init__(self, out: Optional[str]):
        self.dir = Path(out) if out else None
        self.entries: list[dict] = []
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, content: str, kind: str) -> None:
        if self.dir is None:
            print(content)
            return
        path = self.dir / name
        path.write_text(content)
        self.entries.append({"file": name, "kind": kind})

    def finish(self, command: str) -> None:
        if self.dir is None:
            return
        index = {
            "command": command,
            "artifacts": sorted(self.entries, key=lambda e: e["file"]),
        }
        (self.dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    balance = is_balanced(g)
    verdict = is_flow_admissible(g)
    barbell = find_long_barbell(g)
    star = has_star_cut(g)
    report = {
        "vertices": g.num_vertices,
        "edges": g.num_edges,
        "negative_edges": len(g.negative_edges),
        "negative_parity": "even" if len(g.negative_edges) % 2 == 0 else "odd",
        "balanced": balance.balanced,
        "flow_admissible": bool(verdict),
        "admissibility_defects": [
            {
                "kind": d.kind,
                "component": sorted(d.component),
                "edge": d.edge,
                "switch_set": None if d.switch_set is None else sorted(d.switch_set),
            }
            for d in verdict.defects
        ],
        "bridges": sorted(find_bridges(g)),
        "long_barbell": None
        if barbell is None
        else {
            "circuits": [sorted(c) for c in barbell.circuits],
            "path": sorted(barbell.path or ()),
        },
        "star_cut": None if star is None else {"center": star.center, "edges": sorted(star.edges)},
        "eulerian": is_eulerian(g),
    }
    out = _Artifacts(args.out)
    out.write("analysis.json", json.dumps(report, indent=2, sort_keys=True), "analysis")
    out.finish("analyze")
    return EXIT_OK


def cmd_flow(args) -> int:
    g = _load_graph(args.graph)
    out = _Artifacts(args.out)
    stats: dict = {}
    if args.circular:
        numbers = solve.flow_numbers(
            g, k_max=args.k_max, edge_cap=args.edge_cap, cap=args.cap, stats=stats
        )
        cert = certs.make_flow_number_certificate(g, numbers)
        cert.resources["lp_calls"] = stats["lp_calls"]
        out.write("flow-number.json", cert.to_json(), "certificate")
        out.finish("flow")
        print(f"verdict: {cert.verdict}", file=sys.stderr)
        return EXIT_OK
    if args.modulo is not None:
        kind = FlowKind.modulo(args.modulo)
        fa = solve.find_nz_zk_flow(g, args.modulo, cap=args.cap, stats=stats)
    else:
        if args.k is None:
            raise PreconditionError("choose one of -k, --modulo, --circular")
        kind = FlowKind.integer(args.k)
        fa = solve.find_nz_k_flow(g, args.k, cap=args.cap, stats=stats)
    cert = certs.make_flow_certificate(g, kind, fa)
    cert.resources.update(stats)  # nodes, zk_nodes for an integer search, decided at k = 2
    out.write("flow-cert.json", cert.to_json(), "certificate")
    if fa is not None and out.dir is not None:
        out.write("flow.txt", certs.flow_to_text(fa), "flow")
    out.finish("flow")
    print(f"verdict: {cert.verdict}", file=sys.stderr)
    return EXIT_OK


def cmd_convert(args) -> int:
    g = _load_graph(args.graph)
    k = args.k
    fa = _load_flow(args.flow, g, FlowKind.modulo(k))
    result, state = transform.run_modflow_conversion(
        g, fa, k, allow_even_k=args.experimental_even_k, cap=args.cap
    )
    cert = certs.make_conversion_certificate(g, k, fa, result, state.journal)
    out = _Artifacts(args.out)
    out.write("conversion.json", cert.to_json(), "certificate")
    if out.dir is not None:
        out.write("integer-flow.txt", certs.flow_to_text(result), "flow")
    out.finish("convert")
    print(
        f"converted: {len(state.switch_log)} switches, {len(state.minus_log)} minus steps",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    out = _Artifacts(args.out)
    if args.eulerian:
        dec = transform.eulerian_decompose(g)
        cert = certs.make_eulerian_certificate(g, dec)
        out.write("eulerian-decomposition.json", cert.to_json(), "certificate")
        out.finish("decompose")
        print(f"members: {len(dec.members)}", file=sys.stderr)
        return EXIT_OK
    if args.flow is None or args.k is None:
        raise PreconditionError("decompose needs --flow and -k, or --eulerian")
    fa = _load_flow(args.flow, g, FlowKind.integer(args.k))
    # fold signs into the orientation so the decomposition sees 1..k-1
    fa = FlowAssignment.from_signed(fa.signed_values())
    parts = transform.decompose_into_2_flows(g, fa, args.k)
    cert = certs.make_decomposition_certificate(g, args.k, fa, parts)
    out.write("two-flow-decomposition.json", cert.to_json(), "certificate")
    out.finish("decompose")
    print(f"parts: {len(parts)}", file=sys.stderr)
    return EXIT_OK


def cmd_normalize(args) -> int:
    g = _load_graph(args.graph)
    fa = _load_flow(args.flow, g, None)
    state = transform.normalize_circular_flow(g, fa, args.p, args.q)
    cert = certs.make_normalization_certificate(g, fa, state)
    out = _Artifacts(args.out)
    out.write("normalization.json", cert.to_json(), "certificate")
    out.finish("normalize")
    print(
        f"pushes: {len(state.pushes)}, off-grid edges: {sorted(state.off_grid)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = CorpusSpec.parse(args.spec)
    graphs = spec.build()
    out = _Artifacts(args.out)
    if out.dir is None:
        raise PreconditionError("generate requires --out")
    width = max(4, len(str(len(graphs))))
    for i, g in enumerate(graphs):
        out.write(f"g{i:0{width}d}.sg", serialize_graph(g), "graph")
    manifest = {"spec": str(spec), "count": len(graphs)}
    out.write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True), "manifest")
    out.finish("generate")
    print(f"wrote {len(graphs)} graphs", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    graphs = list(enumerate_signed_graphs(args.max_v, args.max_e))
    if args.suite == "cubic-z4":
        graphs.append(signed_petersen())
    report = verify_suites.run_suite(
        args.suite, graphs, workers=args.workers, cap=args.cap
    )
    out = _Artifacts(args.out)
    out.write(f"suite-{args.suite}.json", report.to_json(), "suite-report")
    if out.dir is not None:
        width = max(3, len(str(len(report.failures))))
        for i, failure in enumerate(report.failures):
            out.write(f"fail-{i:0{width}d}.sg", failure["graph"], "reproduction")
    out.finish("verify")
    print(
        f"{report.suite}: {report.checked} checks, {len(report.failures)} failures",
        file=sys.stderr,
    )
    return EXIT_OK if report.ok else EXIT_INVARIANT


def cmd_check(args) -> int:
    text = _read_text(args.certificate)
    try:
        cert = certs.Certificate.from_json(text)
    except PreconditionError as exc:
        raise _IOFailure(f"cannot parse {args.certificate}: {exc}") from exc
    outcome = certs.verify_certificate(cert)
    if not outcome.ok:
        print(f"rejected: {outcome.reason}")
        return EXIT_INVARIANT
    print(f"ok: {cert.claim}: {cert.verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgflow",
        description="Exact nowhere-zero flow computations on signed multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=None):
        p.add_argument("--out", help="directory for artifacts (index.json manifest)")
        if cap:
            p.add_argument(
                "--cap", type=int, default=None,
                help=f"{cap} (default from SG_RESOURCE_CAP or built-in)",
            )

    p = sub.add_parser("analyze", help="structural report for a graph file")
    p.add_argument("graph")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("flow", help="find a nowhere-zero flow or flow numbers")
    p.add_argument("graph")
    p.add_argument("-k", type=int, help="integer k-flow")
    p.add_argument("--modulo", type=int, metavar="K", help="modulo-K flow")
    p.add_argument("--circular", action="store_true", help="both flow numbers")
    p.add_argument("--k-max", type=int, default=8, help="integer sweep bound for --circular")
    p.add_argument("--edge-cap", type=int, default=solve.DEFAULT_EDGE_CAP_CIRCULAR)
    common(p, cap="cap on search nodes")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("convert", help="modulo-k flow to integer k-flow")
    p.add_argument("graph")
    p.add_argument("flow", help="flow file with reduced modulo-k values")
    p.add_argument("-k", type=int, required=True)
    p.add_argument(
        "--experimental-even-k", action="store_true",
        help="attempt even k (outside the theorem; may abort)",
    )
    common(p, cap="cap on negative-ditrail and tadpole search steps")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("decompose", help="sum-of-2-flows or eulerian decomposition")
    p.add_argument("graph")
    p.add_argument("--flow", help="positive integer k-flow file")
    p.add_argument("-k", type=int)
    p.add_argument("--eulerian", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("normalize", help="push a circular flow onto the 1/q grid")
    p.add_argument("graph")
    p.add_argument("flow")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("generate", help="write a corpus to --out")
    p.add_argument("spec", help="e.g. petersen-fig1, g-family:t=2, enumerate:max_v=3,max_e=4")
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run a theorem suite over the corpus")
    p.add_argument("suite", choices=sorted(verify_suites.SUITES))
    p.add_argument("--max-v", type=int, default=5)
    p.add_argument("--max-e", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    common(p, cap="cap on search nodes, and on conversion search steps")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
