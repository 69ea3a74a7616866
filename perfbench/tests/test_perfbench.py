"""Tests of the benchmark harness on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402
from workloads import Circular47, HardSearch, Suites58  # noqa: E402

TINY = {
    "suites-58": Suites58(corpus=(4, 6), stride=40, prefix_rounds=1),
    "circular-47": Circular47(corpus=(4, 6), stride=40, bases=("g1",), prefix_rounds=1),
    "hard-search": HardSearch(bases=("petersen",), copies=1, prefix_rounds=1),
}


@pytest.fixture
def sf():
    # the end-to-end runs re-import the package; take the current modules
    return run.import_package(fresh=False)


def _snapshot():
    return {(mod.__name__, attr): value
            for mod in package_modules() for attr, value in vars(mod).items()}


@pytest.mark.parametrize("name", TINY)
def test_every_workload_runs_correctly_end_to_end(name):
    sf, records, problems, _info, metrics, units = run.run_end_to_end(
        TINY[name], run.DEFAULT_SEED, seconds=0.0)
    assert records and not problems
    assert not [r.label for r in records if r.problems]
    assert set(metrics) == set(units) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", TINY)
def test_traced_pass_matches_untraced_and_repeats(sf, name):
    workload = TINY[name]
    inputs = workload.setup(sf, 3)
    plain, _, plain_verdicts, _ = run.traced_pass(workload, sf, inputs, 3, None)
    traced, _, verdicts, counters = run.traced_pass(workload, sf, inputs, 3, Tracer())
    again = run.traced_pass(workload, sf, inputs, 3, Tracer())
    assert [(r.line, r.counters) for r in plain] == [(r.line, r.counters) for r in traced]
    assert plain_verdicts == verdicts
    assert (verdicts, counters) == again[2:]


def test_search_items_get_the_known_answers(sf):
    records, _ = run.run_rounds(HardSearch().rounds(sf, HardSearch().setup(sf, 5), 5), 1, 0.0)
    verdicts = {r.label.split(".")[0] + ":" + r.label.split(":")[1]: r.verdict for r in records}
    assert verdicts["petersen:integer5"] == verdicts["petersen:modulo5"] == "none"
    assert verdicts["petersen:integer6"] == verdicts["petersen:modulo6"] == "exists"
    assert verdicts["g3:integer3"] == verdicts["g3:modulo3"] == "none"
    assert verdicts["g3:integer4"] == verdicts["g3:modulo4"] == "exists"
    assert not [r.label for r in records if r.problems]


def test_seeds_run_the_same_searches_in_their_own_order(sf):
    workload = HardSearch()
    inputs = workload.setup(sf, 1)

    def first_round(seed):
        items = next(workload.rounds(sf, inputs, seed))
        return [(label, part.args[1].edges) for label, part in items]

    one, two = first_round(1), first_round(2)
    assert sorted(one) == sorted(two)
    assert one != two


def test_layer_metrics_and_predicted_bypasses(sf):
    workload = TINY["hard-search"]
    tracer = Tracer()
    run.traced_pass(workload, sf, workload.setup(sf, 1), 1, tracer)
    agg = tracer.by_name()
    assert agg["solve.find_nz_k_flow"]["nodes"] > 0
    assert agg["kernel.search_integer"]["nodes"] == agg["solve.find_nz_k_flow"]["nodes"]
    assert "simplex.solve_lp" not in agg
    assert "structure.is_flow_admissible" not in agg


def test_digest_gate_rejects_a_tampered_expectation(sf, tmp_path, monkeypatch):
    workload = TINY["hard-search"]
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    _, _, verdicts, counters = run.traced_pass(
        workload, sf, workload.setup(sf, run.DEFAULT_SEED), run.DEFAULT_SEED, Tracer())
    run.write_digest(workload, run.DEFAULT_SEED, 0, verdicts, counters)
    entry = run.committed_digest(workload, run.DEFAULT_SEED)
    problems: list = []
    run.check_digest("verdicts", verdicts, entry, problems, gate=True)
    assert problems == []

    data = json.loads(run.DIGESTS.read_text())
    data[workload.name]["verdicts"] = "0" * 64
    run.DIGESTS.write_text(json.dumps(data))
    _, _, problems, *_ = run.run_traced(workload, run.DEFAULT_SEED, record=False)
    assert any("verdicts digest" in p for p in problems)


def test_tracer_restores_every_rebound_attribute(sf):
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced():
            wrapped = sf.structure.is_flow_admissible
            assert wrapped is not before[("signedflow.structure", "is_flow_admissible")]
            # names imported by name elsewhere are rebound to the same wrapper
            assert sf.verify_suites.is_flow_admissible is wrapped
            assert sf.solve.is_flow_admissible is wrapped
            assert sf.is_flow_admissible is wrapped
            sf.run_suite("six-flow", [sf.g_family(1)], workers=1)
            raise RuntimeError("leave the block by an exception")
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_tail_keeps_ten_samples_above_it():
    assert run.tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert run.tail([float(i) for i in range(2000)]) == (99.5, 1989.0)
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)


def test_refuses_when_a_resource_cap_is_set(monkeypatch, capsys):
    monkeypatch.setenv("SG_RESOURCE_CAP", "1000")
    assert run.main(["--workload", "hard-search"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "hard-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
