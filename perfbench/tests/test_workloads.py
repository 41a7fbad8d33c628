"""Workload inputs are a pure function of the seed, and BENCHMARK.json
describes what the benchmark reports."""

import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import layers, stats
from perfbench.workloads import END_TO_END, WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_regenerates_identical_inputs(name):
    w = WORKLOADS[name]
    first = [w.command(7, i) for i in range(6)]
    assert first == [w.command(7, i) for i in range(6)]
    other = [w.command(8, i) for i in range(6)]
    assert [c.cfg for c in first] != [c.cfg for c in other]


def test_tiny_cycles_variants_on_one_seed():
    w = WORKLOADS["align-tiny"]
    cmds = [w.command(0, i) for i in range(6)]
    assert [c.variant for c in cmds] == ["dav", "search_and_distill",
                                         "reweight"] * 2
    assert len({c.cfg["seed"] for c in cmds[:3]}) == 1
    assert cmds[0].cfg["seed"] != cmds[3].cfg["seed"]


def test_discrete_mlp_is_past_the_enumeration_cap():
    from emdiff.discrete import ENUM_CAP
    world = WORKLOADS["align-discrete-mlp"].command(0, 0).cfg["world"]
    assert (world["vocab"] + 1) ** world["length"] > ENUM_CAP


def test_oracle_instance_has_256_states_and_gamma_below_one():
    cfg = WORKLOADS["oracle-enum256"].command(3, 0).cfg
    assert (cfg["world"]["vocab"] + 1) ** cfg["world"]["length"] == 256
    assert cfg["estep"]["gamma"] < 1.0


def test_first_commands_always_run():
    from perfbench.run import Bench
    for name, first in [("oracle-enum256", 3), ("align-discrete-mlp", 3),
                        ("align-tiny", 3), ("align-mixture2d", 1)]:
        run = SimpleNamespace(w=WORKLOADS[name], seconds=0)
        assert list(Bench.indices(run, time.perf_counter())) == \
            list(range(first))


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.metric_names()


def test_tail_is_p90_with_at_least_ten_beyond():
    assert stats.tail(range(400)) == (359, 90.0)
    assert stats.tail(range(100)) == (89, 90.0)
    assert stats.tail(range(50)) == (39, 80.0)
    assert stats.tail(range(5)) == (4, 100.0)
    assert stats.highest_tail(range(400)) == (389, 97.5)
