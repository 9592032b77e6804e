"""Smoke tests of the benchmark itself, at tiny scales.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import inputs  # noqa: E402
import run as cli  # noqa: E402
from repro.mem.ports import MemPort  # noqa: E402

TINY = {
    "detail-branchy": inputs.Workload(
        programs=(("nested-mispred", 0.05), ("bfs", 0.05)),
        kinds=("baseline", "mssr")),
    "detail-membound": inputs.Workload(
        programs=(("ptr-chase", 0.1),), kinds=("baseline",),
        config=(("mem.model", "ported"),)),
    "sampled": inputs.Workload(
        programs=(("nested-mispred", 0.3),), kinds=("baseline", "mssr"),
        sampled=True),
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, value in cli.PINNED_ENV.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(inputs, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "SETUP_REPS", 1)


def _run(workload, tmp_path, trace=False, seed=0):
    return bench.run(workload, seed, 0.0, trace, str(tmp_path / "tmp"),
                     (0.1, 0.1))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted(workload, tmp_path):
    rounds, references, metrics, _raw, consistent = _run(workload, tmp_path)
    assert consistent
    assert len(rounds) == 2       # compared with each other
    assert all(res.ok for res in rounds[0])
    assert all(res.ok for res in references.values())
    assert bool(references) == TINY[workload].sampled
    assert set(metrics) == END_TO_END
    assert all(math.isfinite(value) and value > 0
               for value, _unit in metrics.values())
    _rounds, _refs, layers, _raw, consistent = _run(workload, tmp_path,
                                                    trace=True)
    assert consistent
    assert set(layers) == PER_LAYER
    assert os.path.exists(tmp_path / ("trace-%s-seed0.jsonl" % workload))


def test_wrong_expected_value_is_a_failed_operation(tmp_path, monkeypatch):
    real = bench.expectations

    def off_by_one(built):
        return {key: bench.Expected(exp.result + 1, exp.insts)
                for key, exp in real(built).items()}

    monkeypatch.setattr(bench, "expectations", off_by_one)
    rounds = _run("detail-branchy", tmp_path)[0]
    assert [res.ok for res in rounds[0]] == [False] * len(rounds[0])
    assert all(any("run_native()" in failure for failure in res.failures)
               for res in rounds[0])


def test_dram_beyond_l1d_misses_is_a_failed_operation(tmp_path,
                                                      monkeypatch):
    real = MemPort.request

    def request(port, *args, **kwargs):
        port.dram_accesses += 1       # every request counted as DRAM
        return real(port, *args, **kwargs)

    monkeypatch.setattr(MemPort, "request", request)
    rounds = _run("detail-membound", tmp_path)[0]
    assert [res.ok for res in rounds[0]] == [False] * len(rounds[0])
    assert all(any("dport DRAM accesses" in failure
                   for failure in res.failures) for res in rounds[0])


def test_traced_and_untraced_runs_simulate_the_same(tmp_path):
    spec = TINY["detail-branchy"]
    plain, refs, _metrics, _raw, _ = _run("detail-branchy", tmp_path)
    traced, _refs, layers, _raw, consistent = _run(
        "detail-branchy", tmp_path, trace=True)
    assert consistent   # the traced run's own untraced and traced rounds
    assert bench._stats_key(plain[0]) == bench._stats_key(traced[-1])
    simulated = bench.simulated_metrics(spec, plain[0], refs)
    assert all(layers[name] == value for name, value in simulated.items())


def test_seed_regenerates_only_the_seeded_inputs():
    assert inputs.program_name("bfs", inputs.DEFAULT_SEED) == "bfs"
    assert inputs.program_name("leela", 7) == "leela"
    seeded = inputs.program_name("bfs", 7)
    assert seeded != "bfs"
    from repro.workloads.registry import get_workload
    _mod, registered = get_workload("bfs").build(0.05)
    _mod, first = get_workload(seeded).build(0.05)
    _mod, again = inputs._bfs_builder(7)(0.05)
    assert first.initial_memory() == again.initial_memory()
    assert first.initial_memory() != registered.initial_memory()
    assert sorted(inputs.chase_permutation(5, 64)) == list(range(64))
