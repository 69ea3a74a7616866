"""Self-check: the compiled and Python kernels walk identical search trees.

Runs whenever the compiled backend imports.  Three cases, each on both
backends, must give identical node counts and answers:

  petersen-no5   exhaust the whole k=5 space on signed Petersen
  petersen-yes6  first nowhere-zero 6-flow on the same graph
  corpus-k3      integer and Z_3 searches over the 4/6 corpus (1623 classes)
"""

from __future__ import annotations

import time

BACKENDS = ("compiled", "python")


def _petersen(sf, backend, k):
    stats: dict = {}
    fa = sf.find_nz_k_flow(sf.signed_petersen(), k, stats=stats, backend=backend)
    return stats["nodes"], fa


def _corpus_k3(sf, backend, corpus):
    nodes, answers = 0, []
    for g in corpus:
        for finder in (sf.find_nz_k_flow, sf.find_nz_zk_flow):
            stats: dict = {}
            answers.append(finder(g, 3, stats=stats, backend=backend))
            nodes += stats["nodes"]
    return nodes, answers


def check(sf) -> tuple[list[str], list[str]]:
    """(report lines, problems); skipped without the compiled backend."""
    try:
        sf.solver_backend_name("compiled")
    except sf.PreconditionError:
        return ["parity: skipped, the compiled backend does not import"], []
    corpus = list(sf.enumerate_signed_graphs(4, 6))
    cases = {
        "petersen-no5": lambda b: _petersen(sf, b, 5),
        "petersen-yes6": lambda b: _petersen(sf, b, 6),
        "corpus-k3": lambda b: _corpus_k3(sf, b, corpus),
    }
    lines, problems = [], []
    for case, run in cases.items():
        results, secs = {}, {}
        for backend in BACKENDS:
            t0 = time.perf_counter()
            results[backend] = run(backend)
            secs[backend] = time.perf_counter() - t0
        (nodes_c, ans_c), (nodes_p, ans_p) = results["compiled"], results["python"]
        lines.append(f"parity: {case} nodes {nodes_c} compiled / {nodes_p} python, "
                     f"{secs['compiled']:.3f} s / {secs['python']:.3f} s")
        if nodes_c != nodes_p or ans_c != ans_p:
            problems.append(f"parity: {case} diverged between backends")
        if case == "petersen-no5" and ans_c is not None:
            problems.append("parity: petersen-no5 found a 5-flow")
        if case == "petersen-yes6" and ans_c is None:
            problems.append("parity: petersen-yes6 found no 6-flow")
    return lines, problems
