"""Compiled kernel vs pure-Python kernel: same nodes, same answers.

The two backends are written to explore the identical search tree, so
node counts must match exactly, not approximately.  Any drift means the
candidate ordering or pruning diverged.
"""

import random
from pathlib import Path

import pytest

from signedflow.core import Edge, SignedGraph, check_flow, FlowKind
from signedflow.corpus import random_signed_graph, signed_petersen
from signedflow.errors import ResourceCapExceeded
from signedflow.solve import find_nz_k_flow, find_nz_zk_flow, solver_backend_name

needs_compiled = pytest.mark.skipif(
    solver_backend_name() != "compiled",
    reason="compiled kernel not built",
)


KERNEL = Path(__file__).resolve().parent.parent / "src" / "signedflow" / "_kernel"
MARK = "             # <<<<<<<<<<<<<<"


def _code_lines(source: str) -> list[str]:
    """Non-blank lines outside comments and docstrings."""
    out = []
    in_doc = False
    for line in source.splitlines():
        text = line.strip()
        if in_doc or text.startswith('"""'):
            quotes = text.count('"""')
            in_doc = in_doc != (quotes % 2 == 1)
            continue
        if text and not text.startswith("#"):
            out.append(line)
    return out


def test_generated_kernel_quotes_current_source():
    # Cython copies the source lines around every statement into comments
    # " * <line>" of the .c, the statement's own line ending in MARK; a
    # .pyx edit without regenerating the .c breaks one of these
    pyx = KERNEL.with_suffix(".pyx").read_text()
    quoted, marked = set(), set()
    for line in KERNEL.with_suffix(".c").read_text().splitlines():
        if line.startswith(" * "):
            text = line[3:]
            if text.endswith(MARK):
                text = text[: -len(MARK)]
                marked.add(text)
            quoted.add(text)
    code = _code_lines(pyx)
    assert len(code) > 100
    assert [line for line in code if line not in quoted] == []
    assert marked - set(pyx.splitlines()) == set()


def both(fn, g, k, **kw):
    sc, sp = {}, {}
    rc = fn(g, k, stats=sc, backend="compiled", **kw)
    rp = fn(g, k, stats=sp, backend="python", **kw)
    return (rc, sc), (rp, sp)


@needs_compiled
def test_petersen_exhaustion_node_for_node(petersen):
    (rc, sc), (rp, sp) = both(find_nz_k_flow, petersen, 5)
    assert rc is None and rp is None
    assert sc["nodes"] == sp["nodes"] == 264712


@needs_compiled
def test_petersen_witness_identical(petersen):
    (rc, sc), (rp, sp) = both(find_nz_k_flow, petersen, 6)
    assert rc == rp
    assert sc["nodes"] == sp["nodes"]
    assert check_flow(petersen, rc, FlowKind.integer(6)).ok


@needs_compiled
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_modulo_identical(petersen, k):
    (rc, sc), (rp, sp) = both(find_nz_zk_flow, petersen, k)
    assert rc == rp
    assert sc["nodes"] == sp["nodes"]


@needs_compiled
def test_randomized_sweep_agrees():
    rng = random.Random(20260823)
    for trial in range(150):
        nv = rng.randint(1, 5)
        ne = rng.randint(nv - 1, 8)
        g = random_signed_graph(
            seed=rng.randint(0, 10**9),
            num_vertices=nv,
            num_edges=max(ne, max(nv - 1, 1)),
        )
        k = rng.randint(2, 6)
        (rc, sc), (rp, sp) = both(find_nz_k_flow, g, k)
        assert rc == rp, (g.edges, k)
        assert sc["nodes"] == sp["nodes"], (g.edges, k)
        (rc, sc), (rp, sp) = both(find_nz_zk_flow, g, k)
        assert rc == rp
        assert sc["nodes"] == sp["nodes"]


@needs_compiled
def test_cap_hits_at_same_node(petersen):
    for cap in (1, 10, 1000):
        spent = {}
        for backend in ("compiled", "python"):
            with pytest.raises(ResourceCapExceeded) as exc:
                find_nz_k_flow(petersen, 5, cap=cap, backend=backend)
            spent[backend] = exc.value.spent
        assert spent["compiled"] == spent["python"]


def test_python_backend_always_available(petersen):
    stats = {}
    fa = find_nz_k_flow(petersen, 6, stats=stats, backend="python")
    assert fa is not None
    assert stats["backend"] == "python"


def test_unknown_backend_rejected(petersen):
    with pytest.raises(Exception):
        find_nz_k_flow(petersen, 6, backend="fortran")
