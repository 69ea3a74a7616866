"""End-to-end command tests: exit codes, artifacts, manifests."""

import json

import pytest

from signedflow import solve, verify_suites
from signedflow.certificates import (
    Certificate,
    flow_from_text,
    flow_to_text,
    make_flow_certificate,
    verify_certificate,
)
from signedflow.cli import main
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
from signedflow.corpus import signed_petersen
from signedflow.errors import InvariantViolation
from signedflow.solve import find_nz_k_flow, find_nz_zk_flow
from signedflow.verify_suites import SuiteReport


def cycle(n, sign=1):
    return SignedGraph(n, tuple(Edge(i, (i + 1) % n, 1) for i in range(n - 1)) + (Edge(n - 1, 0, sign),))


def k4():
    return SignedGraph(4, tuple(Edge(u, v, 1) for u in range(4) for v in range(u + 1, 4)))


def k33():
    return SignedGraph(6, tuple(Edge(u, v, 1) for u in range(3) for v in range(3, 6)))


@pytest.fixture
def gfile(tmp_path):
    def write(g, name="g.sg"):
        p = tmp_path / name
        p.write_text(serialize_graph(g))
        return str(p)

    return write


@pytest.fixture
def ffile(tmp_path):
    def write(fa, name="f.flow"):
        p = tmp_path / name
        p.write_text(flow_to_text(fa))
        return str(p)

    return write


# ---------------------------------------------------------------------------
# analyze


def test_analyze_petersen_stdout(gfile, capsys):
    assert main(["analyze", gfile(signed_petersen())]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertices"] == 10
    assert report["edges"] == 15
    assert report["negative_edges"] == 5
    assert report["negative_parity"] == "odd"
    assert report["balanced"] is False
    assert report["flow_admissible"] is True
    assert report["bridges"] == []
    assert report["long_barbell"] is None
    assert report["star_cut"] is None
    assert report["eulerian"] is False


def test_analyze_writes_artifacts(gfile, tmp_path):
    out = tmp_path / "artifacts"
    assert main(["analyze", gfile(cycle(4)), "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["eulerian"] is True
    index = json.loads((out / "index.json").read_text())
    assert index["command"] == "analyze"
    assert index["artifacts"] == [{"file": "analysis.json", "kind": "analysis"}]


def test_analyze_reports_defects(gfile, capsys):
    g = SignedGraph(1, (Edge(0, 0, -1),))
    assert main(["analyze", gfile(g)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow_admissible"] is False
    assert report["admissibility_defects"][0]["kind"] == "one-negative-edge"


def test_analyze_reports_defect_witnesses(gfile, capsys):
    # a 4-cycle with three negative edges, which switching at {1, 3}
    # leaves negative on edge 0 alone; a balanced triangle hung by the
    # bridge 6-7 (edge 7) on two unbalanced digons in series; an
    # isolated vertex
    g = SignedGraph(
        11,
        (
            Edge(0, 1, 1), Edge(1, 2, -1), Edge(2, 3, -1), Edge(3, 0, -1),
            Edge(4, 5, 1), Edge(5, 6, 1), Edge(6, 4, 1), Edge(6, 7, 1),
            Edge(7, 8, 1), Edge(7, 8, -1), Edge(8, 9, 1), Edge(8, 9, -1),
        ),
    )
    assert main(["analyze", gfile(g)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["admissibility_defects"] == [
        {"kind": "one-negative-edge", "component": [0, 1, 2, 3], "edge": 0, "switch_set": [1, 3]},
        {"kind": "balanced-side-bridge", "component": [4, 5, 6, 7, 8, 9], "edge": 7,
         "switch_set": None},
    ]
    assert report["bridges"] == [7]


# ---------------------------------------------------------------------------
# flow


def test_flow_exists_writes_cert_and_flow(gfile, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["flow", gfile(cycle(4)), "-k", "2", "--out", str(out)]) == 0
    assert "verdict: exists" in capsys.readouterr().err
    cert = Certificate.from_json((out / "flow-cert.json").read_text())
    assert verify_certificate(cert).ok
    assert (out / "flow.txt").exists()
    index = json.loads((out / "index.json").read_text())
    assert {e["file"] for e in index["artifacts"]} == {"flow-cert.json", "flow.txt"}


def test_flow_nonexistence_is_success(gfile, capsys):
    g = SignedGraph(1, (Edge(0, 0, -1),))
    assert main(["flow", gfile(g), "-k", "3"]) == 0
    captured = capsys.readouterr()
    assert "verdict: none" in captured.err
    cert = Certificate.from_json(captured.out)
    assert cert.verdict == "none"
    assert verify_certificate(cert).ok


def test_flow_modulo(gfile, capsys):
    assert main(["flow", gfile(k33()), "--modulo", "3"]) == 0
    cert = Certificate.from_json(capsys.readouterr().out)
    assert cert.payload["flow_kind"] == "modulo:3"
    assert verify_certificate(cert).ok


def test_flow_circular_numbers(gfile, capsys):
    assert main(["flow", gfile(cycle(3)), "--circular"]) == 0
    captured = capsys.readouterr()
    assert "verdict: phi_i=2;phi_c=2" in captured.err
    cert = Certificate.from_json(captured.out)
    assert cert.claim == "flow-number"
    assert verify_certificate(cert).ok


def test_flow_circular_records_lp_calls(gfile, capsys):
    assert main(["flow", gfile(k4()), "--circular"]) == 0
    raw = json.loads(capsys.readouterr().out)
    stats = {}
    solve.flow_numbers(k4(), stats=stats)
    assert raw["resources"] == {"lp_calls": stats["lp_calls"]}
    # a resource count is a report, not a claim: the verifier ignores it
    raw["resources"]["lp_calls"] = -1
    assert verify_certificate(Certificate.from_json(json.dumps(raw))).ok


@pytest.mark.parametrize(
    "mode,resources",
    [
        (["-k", "5"], {"nodes": 0, "zk_nodes": 9_972}),
        (["-k", "6"], {"nodes": 5_032, "zk_nodes": 41}),
        (["--modulo", "5"], {"nodes": 9_972}),
        (["-k", "2"], {"nodes": 0, "zk_nodes": 0, "decided": "odd-degree"}),
        (["--modulo", "2"], {"nodes": 0, "decided": "odd-degree"}),
    ],
    ids=["k5-none-by-zk", "k6-exists", "modulo", "k2-odd-degree", "modulo-2-odd-degree"],
)
def test_flow_records_search_nodes(gfile, capsys, mode, resources):
    # an integer search reports its own tree and the Z_k search's apart
    assert main(["flow", gfile(signed_petersen()), *mode]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["resources"] == resources
    assert verify_certificate(Certificate.from_json(json.dumps(raw))).ok


def test_flow_requires_a_mode(gfile, capsys):
    assert main(["flow", gfile(cycle(4))]) == 2
    assert "precondition" in capsys.readouterr().err


def test_flow_cap_exit(gfile, capsys):
    code = main(["flow", gfile(signed_petersen()), "-k", "5", "--cap", "100"])
    assert code == 3
    assert "resource cap" in capsys.readouterr().err


def test_flow_env_cap(gfile, capsys, monkeypatch):
    monkeypatch.setenv("SG_RESOURCE_CAP", "100")
    assert main(["flow", gfile(signed_petersen()), "-k", "5"]) == 3


def test_flow_bad_env_cap(gfile, capsys, monkeypatch):
    monkeypatch.setenv("SG_RESOURCE_CAP", "lots")
    assert main(["flow", gfile(cycle(4)), "-k", "2"]) == 2


@pytest.mark.parametrize("cap_args,env", [(["--cap", "0"], None), ([], "0")])
def test_flow_cap_below_one_exits_2(gfile, capsys, monkeypatch, cap_args, env):
    if env is not None:
        monkeypatch.setenv("SG_RESOURCE_CAP", env)
    assert main(["flow", gfile(signed_petersen()), "-k", "5"] + cap_args) == 2
    assert "at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


@pytest.fixture
def certfile(tmp_path):
    def write(cert, name="cert.json"):
        p = tmp_path / name
        p.write_text(cert if isinstance(cert, str) else cert.to_json())
        return str(p)

    return write


def test_check_accepts_a_certificate(gfile, certfile, capsys):
    assert main(["flow", gfile(k4()), "-k", "4"]) == 0
    path = certfile(capsys.readouterr().out)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "ok: flow: exists\n"


def test_check_rejects_a_wrong_verdict(certfile, capsys):
    cert = make_flow_certificate(k4(), FlowKind.integer(4), find_nz_k_flow(k4(), 4))
    cert.verdict = "none"
    assert main(["check", certfile(cert)]) == 4
    assert capsys.readouterr().out.startswith("rejected: ")


def test_check_cap_exit(certfile, capsys, monkeypatch):
    # "no 5-flow" on Petersen is re-searched, which needs more than 100 nodes
    path = certfile(make_flow_certificate(signed_petersen(), FlowKind.integer(5), None))
    monkeypatch.setenv("SG_RESOURCE_CAP", "100")
    assert main(["check", path]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_check_bad_env_cap_exits_2(certfile, capsys, monkeypatch):
    path = certfile(make_flow_certificate(k4(), FlowKind.integer(4), find_nz_k_flow(k4(), 4)))
    monkeypatch.setenv("SG_RESOURCE_CAP", "lots")
    assert main(["check", path]) == 2
    assert "SG_RESOURCE_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{", "[1, 2]"], ids=["missing", "not-json", "not-an-object"])
def test_check_unreadable_file_exits_5(tmp_path, certfile, capsys, content):
    path = str(tmp_path / "absent.json") if content is None else certfile(content)
    assert main(["check", path]) == 5
    assert capsys.readouterr().err.startswith("error: cannot ")


# ---------------------------------------------------------------------------
# convert


def test_convert_round_trip(gfile, ffile, tmp_path, capsys):
    g = k33()
    mod = find_nz_zk_flow(g, 3)
    out = tmp_path / "conv"
    code = main(["convert", gfile(g), ffile(mod), "-k", "3", "--out", str(out)])
    assert code == 0
    assert "converted:" in capsys.readouterr().err
    cert = Certificate.from_json((out / "conversion.json").read_text())
    assert verify_certificate(cert).ok
    text = (out / "integer-flow.txt").read_text()
    fa = flow_from_text(text, g.num_edges, FlowKind.integer(3))
    assert check_flow(g, fa, FlowKind.integer(3)).ok


def test_convert_refuses_even_k(gfile, ffile, capsys):
    g = cycle(4)
    mod = FlowAssignment(Orientation.reference(), (1, 1, 1, 1))
    assert main(["convert", gfile(g), ffile(mod), "-k", "4"]) == 2
    assert "precondition" in capsys.readouterr().err


def test_convert_even_k_opt_in(gfile, ffile):
    g = cycle(4)
    mod = FlowAssignment(Orientation.reference(), (1, 1, 1, 1))
    code = main(
        ["convert", gfile(g), ffile(mod), "-k", "4", "--experimental-even-k"]
    )
    assert code == 0


@pytest.mark.parametrize("env,code", [("1", 3), ("lots", 2), ("0", 2)])
def test_convert_reads_env_cap(gfile, ffile, monkeypatch, env, code):
    g = signed_petersen()
    mod = find_nz_zk_flow(g, 7)
    monkeypatch.setenv("SG_RESOURCE_CAP", env)
    assert main(["convert", gfile(g), ffile(mod), "-k", "7"]) == code


# ---------------------------------------------------------------------------
# decompose


def test_decompose_flow_chain(gfile, tmp_path, capsys):
    # feed the flow command's own artifact back into decompose
    g = k4()
    out1 = tmp_path / "find"
    assert main(["flow", gfile(g), "-k", "4", "--out", str(out1)]) == 0
    out2 = tmp_path / "split"
    code = main(
        ["decompose", gfile(g), "--flow", str(out1 / "flow.txt"), "-k", "4",
         "--out", str(out2)]
    )
    assert code == 0
    assert "parts: 3" in capsys.readouterr().err
    cert = Certificate.from_json((out2 / "two-flow-decomposition.json").read_text())
    assert verify_certificate(cert).ok


def test_decompose_folds_negative_values(gfile, ffile, capsys):
    g = cycle(4)
    fa = FlowAssignment(Orientation.reference(), (-1, -1, -1, -1))
    assert main(["decompose", gfile(g), "--flow", ffile(fa), "-k", "2"]) == 0
    assert "parts: 1" in capsys.readouterr().err


def test_decompose_eulerian(gfile, capsys):
    g = SignedGraph(2, (Edge(0, 1, 1), Edge(0, 1, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    assert main(["decompose", gfile(g), "--eulerian"]) == 0
    captured = capsys.readouterr()
    assert "members: 2" in captured.err
    assert verify_certificate(Certificate.from_json(captured.out)).ok


def test_decompose_rejects_barbell_graph(gfile, ffile, capsys):
    g = SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1)))
    fa = FlowAssignment(Orientation(frozenset({0})), (1, 1, 2, 2))
    assert main(["decompose", gfile(g), "--flow", ffile(fa), "-k", "3"]) == 2
    assert "barbell" in capsys.readouterr().err


def test_decompose_needs_arguments(gfile, capsys):
    assert main(["decompose", gfile(cycle(4))]) == 2


# ---------------------------------------------------------------------------
# normalize


def test_normalize_to_grid(gfile, ffile, capsys):
    from fractions import Fraction

    g = cycle(3)
    fa = FlowAssignment(Orientation.reference(), (Fraction(4, 3),) * 3)
    assert main(["normalize", gfile(g), ffile(fa), "2", "1"]) == 0
    captured = capsys.readouterr()
    assert "off-grid edges: []" in captured.err
    cert = Certificate.from_json(captured.out)
    assert cert.verdict == "empty"
    assert verify_certificate(cert).ok


def test_normalize_range_check(gfile, ffile, capsys):
    g = cycle(3)
    fa = FlowAssignment(Orientation.reference(), (5, 5, 5))
    assert main(["normalize", gfile(g), ffile(fa), "2", "1"]) == 2


# ---------------------------------------------------------------------------
# generate


def test_generate_single(gfile, tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "petersen-fig1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {"spec": "petersen-fig1", "count": 1}
    g = parse_graph((out / "g0000.sg").read_text())
    assert serialize_graph(g) == serialize_graph(signed_petersen())


def test_generate_enumeration(tmp_path):
    out = tmp_path / "tiny"
    assert main(["generate", "enumerate:max_v=2,max_e=2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 10
    files = sorted(p.name for p in out.glob("g*.sg"))
    assert len(files) == 10 and files[0] == "g0000.sg"


def test_generate_requires_out(capsys):
    assert main(["generate", "petersen-fig1"]) == 2


def test_generate_bad_spec(tmp_path, capsys):
    assert main(["generate", "nope", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "spec",
    [
        "enumerate:max_v=abc",
        "enumerate:max_e=1e3",
        "enumerate:max_v=2.5",
        "random:count=x,num_edges=6,num_vertices=4,seed=3",
    ],
)
def test_generate_bad_number_exits_2(spec, tmp_path, capsys):
    # a non-number, or a float where an integer is due, writes no corpus
    out = tmp_path / "x"
    assert main(["generate", spec, "--out", str(out)]) == 2
    assert not out.exists()
    assert "precondition" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        "enumerate:maxv=2,max_e=2",
        "petersen-fig1:t=3",
        "enumerate:max_v=2,max_v=5",
        "random:e=6,seed=3,v=3,v=4",
    ],
)
def test_generate_bad_key_exits_2(spec, tmp_path, capsys):
    # a key the family does not take, or one given twice, writes no corpus
    out = tmp_path / "x"
    assert main(["generate", spec, "--out", str(out)]) == 2
    assert not out.exists()
    assert "precondition" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_small_suite(tmp_path, capsys):
    out = tmp_path / "suite"
    code = main(
        ["verify", "six-flow", "--max-v", "3", "--max-e", "4", "--out", str(out)]
    )
    assert code == 0
    assert "failures" in capsys.readouterr().err
    report = json.loads((out / "suite-six-flow.json").read_text())
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["checked"] > 0


def test_verify_worker_count_does_not_change_output(tmp_path):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        code = main(
            ["verify", "eulerian-decomp", "--max-v", "3", "--max-e", "4",
             "--workers", workers, "--out", str(out)]
        )
        assert code == 0
        outs.append((out / "suite-eulerian-decomp.json").read_bytes())
    assert outs[0] == outs[1]


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "no-such-suite"])


def test_verify_failure_exits_4(tmp_path, capsys, monkeypatch):
    bad = SuiteReport(
        suite="six-flow",
        items=1,
        checked=1,
        failures=[{"graph": serialize_graph(cycle(3)), "detail": "synthetic"}],
    )
    monkeypatch.setattr(verify_suites, "run_suite", lambda *a, **k: bad)
    out = tmp_path / "bad"
    code = main(
        ["verify", "six-flow", "--max-v", "2", "--max-e", "2", "--out", str(out)]
    )
    assert code == 4
    assert (out / "fail-000.sg").exists()
    assert parse_graph((out / "fail-000.sg").read_text()).num_vertices == 3


# ---------------------------------------------------------------------------
# error mapping


def test_missing_file_exits_5(capsys):
    assert main(["analyze", "/no/such/file.sg"]) == 5
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_5(tmp_path, capsys):
    p = tmp_path / "junk.sg"
    p.write_text("this is not a graph\n")
    assert main(["analyze", str(p)]) == 5
    assert "parse error" in capsys.readouterr().err


def test_invariant_violation_exits_4(gfile, capsys, monkeypatch):
    def boom(*a, **k):
        raise InvariantViolation("synthetic breach")

    monkeypatch.setattr(solve, "find_nz_k_flow", boom)
    assert main(["flow", gfile(cycle(4)), "-k", "2"]) == 4
    assert "invariant violation" in capsys.readouterr().err
