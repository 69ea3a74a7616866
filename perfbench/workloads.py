"""The benchmark's three workloads and the answers they must produce.

A workload turns a seed into an endless stream of rounds.  A round is a
list of items, and an item is one closed-loop request: the harness runs
it, times it, and only then sends the next.  An item returns
``(verdict, problems, counters)``:

- ``verdict`` is the exact answer, JSON-serialisable, and goes into the
  verdict digest;
- ``problems`` lists every wrong answer, suite failure, cap hit or
  rejected certificate (empty when the item is correct);
- ``counters`` holds work counts that the public API returns directly.

Rounds have a fixed make-up, so a run that stops at a round boundary
measures the same mix of items whatever its length.  Package functions
are looked up on the ``sf`` module object at call time, so the tracer's
rebinding reaches the calls made here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count

# The asserting suites, in SUITES order.  phi-equality is left out
# because its LP sweep is what circular-47 measures; even-k-experimental
# asserts nothing.
SUITES_58 = (
    "six-flow", "mod-int-equiv", "conversion", "two-flow-sum",
    "eulerian-decomp", "cubic-z4",
)

# Known answers: the smallest k with a nowhere-zero k-flow (integer and
# Z_k alike), and the integer and circular flow numbers.
FIRST_FLOW_K = {"petersen": 6, "g": 4}
FLOW_NUMBERS = {"petersen": (6, Fraction(6)), "g": (4, Fraction(3))}
SEARCH_KS = {"petersen": range(2, 7), "g": range(2, 5)}


def family(base: str) -> str:
    return "petersen" if base == "petersen" else "g"


def base_graph(sf, base: str):
    """``petersen`` is signed Petersen, ``g<t>`` is ``g_family(t)``."""
    return sf.signed_petersen() if base == "petersen" else sf.g_family(int(base[1:]))


def fresh(sf, g):
    """An equal graph object that carries none of g's cached properties."""
    return sf.SignedGraph(g.num_vertices, g.edges)


def relabel_switch(sf, g, rng: random.Random):
    """g with its vertices relabelled and a random vertex set switched.

    Both leave every flow answer unchanged but change the search tree.
    """
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    h = sf.SignedGraph(
        g.num_vertices,
        tuple(sf.Edge(perm[e.u], perm[e.v], e.sign) for e in g.edges),
    )
    return sf.switch(h, [v for v in range(g.num_vertices) if rng.random() < 0.5])


def copy_pool(sf, bases, per_base: int, workload: str):
    """per_base relabelled-and-switched copies of each base graph, as
    (name, base, graph).

    They come from a fixed generator, not from the seed: one copy's
    search tree can be ten times the size of another's, so seeded copies
    would give each seed a different amount of work.  Every round runs
    fresh objects of the same copies, so a run does the same searches
    however many rounds it gets through; the seed orders the items.
    """
    rng = random.Random(f"{workload}/copies")
    return [(f"{b}.{c}", b, relabel_switch(sf, base_graph(sf, b), rng))
            for b in bases for c in range(per_base)]


def corpus_strata(sf, corpus, stride: int, seed):
    """Lists of (label, graph), each every stride-th class of the corpus
    from a seeded offset.  The rare expensive classes cluster in the
    enumeration order, and a stride sample covers that order evenly, so
    every list holds about the same share of them.  Once every offset has
    been used, the same again on seeded relabelled-and-switched copies,
    so no input repeats."""
    rng = random.Random(f"{seed}/corpus")
    lap = 0
    while True:
        offsets = list(range(min(stride, len(corpus))))
        rng.shuffle(offsets)
        for start in offsets:
            if lap == 0:
                yield [(str(i), fresh(sf, corpus[i])) for i in range(start, len(corpus), stride)]
            else:
                yield [(f"{i}~{lap}", relabel_switch(sf, corpus[i], rng))
                       for i in range(start, len(corpus), stride)]
        lap += 1


# ---------------------------------------------------------------------------
# items


def suite_item(sf, names, g):
    """Each named suite on the one graph, via run_suite(name, [g])."""
    verdict, problems = [], []
    for name in names:
        report = sf.run_suite(name, [g], workers=1)
        verdict.append([name, report.checked, report.skipped, len(report.failures),
                        sorted(report.notes.items())])
        problems += [f"{name}: {f['detail']}" for f in report.failures]
        if report.notes.get("capped"):
            problems.append(f"{name}: hit a resource cap")
    return verdict, problems, {}


def numbers_item(sf, g, expected):
    """flow_numbers on g, checked against the known values and witnesses."""
    numbers = sf.flow_numbers(g)
    verdict = [numbers.phi_i, str(numbers.phi_c)]
    if (numbers.phi_i, numbers.phi_c) != expected:
        return verdict, [f"flow numbers {verdict}, expected "
                         f"[{expected[0]}, {expected[1]}]"], {}
    problems = []
    for key, kind in (("phi_i", sf.FlowKind.integer(numbers.phi_i)),
                      ("phi_c", sf.FlowKind.circular(numbers.phi_c))):
        res = sf.check_flow(g, numbers.witnesses[key], kind)
        if not res.ok:
            problems.append(f"{key} witness fails: {res.violation}")
    return verdict, problems, {}


def search_item(sf, g, kind, k, expect_flow):
    """One exhaustive search, its certificate round-tripped and verified."""
    if kind == "integer":
        finder, flow_kind = sf.find_nz_k_flow, sf.FlowKind.integer(k)
    else:
        finder, flow_kind = sf.find_nz_zk_flow, sf.FlowKind.modulo(k)
    stats: dict = {}
    fa = finder(g, k, stats=stats)
    cert = sf.certificates.make_flow_certificate(g, flow_kind, fa, nodes=stats["nodes"])
    outcome = sf.verify_certificate(sf.Certificate.from_json(cert.to_json()))
    problems = []
    if (fa is not None) != expect_flow:
        problems.append(f"{'no' if expect_flow else 'a'} {kind} {k}-flow found, "
                        f"expected {'one' if expect_flow else 'none'}")
    if not outcome.ok:
        problems.append(f"certificate rejected: {outcome.reason}")
    return cert.verdict, problems, {"nodes": stats["nodes"]}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Suites58:
    """A seeded stratified sample of the 5/8 corpus through the six
    asserting suites, one stratum per round; signed Petersen leads the
    first round, as ``sgflow verify`` adds it."""

    corpus: tuple[int, int] = (5, 8)
    stride: int = 64
    prefix_rounds: int = 2
    name = "suites-58"
    setup_repeats = 3  # each enumerates the 5/8 corpus, about 12 s

    def setup(self, sf, seed):
        return list(sf.enumerate_signed_graphs(*self.corpus)), sf.signed_petersen()

    def rounds(self, sf, inputs, seed):
        corpus, petersen = inputs
        items = [("petersen", partial(suite_item, sf, SUITES_58, fresh(sf, petersen)))]
        for stratum in corpus_strata(sf, corpus, self.stride, seed):
            items += [(f"c58:{label}", partial(suite_item, sf, SUITES_58, g))
                      for label, g in stratum]
            yield items
            items = []


@dataclass(frozen=True)
class Circular47:
    """A seeded stratum of the 4/7 corpus through phi-equality per round,
    plus flow_numbers on a fresh object of each pooled copy, all in
    seeded order."""

    corpus: tuple[int, int] = (4, 7)
    stride: int = 4
    bases: tuple[str, ...] = ("petersen", "g1", "g2")
    prefix_rounds: int = 1
    name = "circular-47"
    setup_repeats = 4  # one stratum after each: the whole corpus in a run

    def setup(self, sf, seed):
        corpus = list(sf.enumerate_signed_graphs(*self.corpus))
        return corpus, copy_pool(sf, self.bases, 1, self.name)

    def rounds(self, sf, inputs, seed):
        corpus, pool = inputs
        order = random.Random(f"{seed}/circular")
        for r, stratum in enumerate(corpus_strata(sf, corpus, self.stride, seed)):
            items = [(f"{name}#{r}", partial(numbers_item, sf, fresh(sf, g),
                                             FLOW_NUMBERS[family(b)]))
                     for name, b, g in pool]
            items += [(f"c47:{label}", partial(suite_item, sf, ("phi-equality",), g))
                      for label, g in stratum]
            order.shuffle(items)
            yield items


@dataclass(frozen=True)
class HardSearch:
    """Every search k, integer and Z_k, on a fresh object of each pooled
    copy per round, in seeded order, each answer certified."""

    bases: tuple[str, ...] = ("petersen", "g1", "g2", "g3")
    copies: int = 2
    prefix_rounds: int = 2
    name = "hard-search"
    setup_repeats = 7  # set-up is the import alone, about 0.1 s and noisy

    def setup(self, sf, seed):
        return copy_pool(sf, self.bases, self.copies, self.name)

    def rounds(self, sf, inputs, seed):
        order = random.Random(f"{seed}/hard")
        for r in count():
            items = []
            for name, b, g in inputs:
                copy, fam = fresh(sf, g), family(b)
                for k in SEARCH_KS[fam]:
                    for kind in ("integer", "modulo"):
                        items.append((f"{name}#{r}:{kind}{k}", partial(
                            search_item, sf, copy, kind, k, k >= FIRST_FLOW_K[fam])))
            order.shuffle(items)
            yield items


WORKLOADS = {w.name: w for w in (Suites58(), Circular47(), HardSearch())}
