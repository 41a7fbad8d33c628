"""The benchmark's per-layer tracer reads emdiff's call arguments by name,
and the search step's StepInfo by position. A traced align run on the
masked MLP world must keep its diversity and search-step hooks working,
must count every particle and every fallback step of the run, must record
each distillation step as a loss_and_grads span inside an update span, and
must write the same metrics.csv as an untraced run. Every
function the benchmark names for its epoch marks, speed samples and busy
times, and some function matching each wildcard pattern it names, must
still be one the tracer wraps."""

import csv
import importlib
import os
import sys

# perfbench sits beside src/ at the root of the checkout
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from emdiff import runner  # noqa: E402
from perfbench import layers, run  # noqa: E402
from perfbench import tracer as tr  # noqa: E402


def mlp_cfg():
    return {
        "world": {
            "kind": "discrete", "length": 8, "vocab": 4, "alphabet": "ABCD",
            "schedule": {"steps": 8},
            "denoiser": {"kind": "mlp", "widths": [16]},
            "pretrain": {"sequences": ["ABCDABCD", "DCBADCBA", "AABBCCDD",
                                       "ABCAACBD", "CCCCABCA", "BDACBDAC"],
                         "epochs": 20, "lr": 0.02, "batch_size": 6},
        },
        "reward": {"name": "motif_count", "motif": "ABC"},
        "estep": {"alpha": 1.0, "gamma": 1.0, "particles": 4},
        "mstep": {"lr": 0.003, "steps": 1},
        "epochs": 2, "batch": 8, "seed": 7,
        "eval": {"samples": 40}, "checkpoint_every": 1,
    }


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_diversity_hook_counts_every_pair_of_a_traced_run(tmp_path):
    cfg = mlp_cfg()
    runner.run_align(cfg, str(tmp_path / "plain"))
    modules = [importlib.import_module(f"emdiff.{name}")
               for name in layers.MODULES]
    tracer = tr.Tracer(hooks=layers.HOOKS)
    with tracer.install(modules):
        runner.run_align(cfg, str(tmp_path / "traced"))
    assert "metrics.diversity" in tracer.wrapped
    assert "metrics.diversity" not in tracer.broken
    n = cfg["eval"]["samples"]
    assert tracer.counters["metrics.diversity.pairs"] == \
        (cfg["epochs"] + 1) * n * (n - 1) // 2
    # the search-step hook reads the entropy and fallback of StepInfo by
    # position, so a reordered StepInfo moves these counts
    assert "estep.search_step_batch" not in tracer.broken
    assert tracer.counters["estep.particles"] == \
        cfg["epochs"] * cfg["world"]["schedule"]["steps"] * cfg["batch"] \
        * cfg["estep"]["particles"] == 512
    with open(tmp_path / "plain" / "metrics.csv") as fh:
        fallbacks = sum(int(row["fallbacks"]) for row in csv.DictReader(fh))
    assert tracer.counters["estep.fallbacks"] == fallbacks
    # the distill spans and the mstep.rows hook read these two names
    assert tr.busy(tracer.spans, "mstep.loss_and_grads", "mstep.update")[1] \
        == cfg["epochs"] * cfg["mstep"]["steps"]
    assert read(tmp_path / "traced" / "metrics.csv") == \
        read(tmp_path / "plain" / "metrics.csv")


def test_benchmark_named_functions_still_resolve():
    # a function renamed or folded away would silently drop out of the
    # oracle's epochs and speed samples, or leave a busy metric absent
    names = set()
    for points in (*run.EPOCH_MARK.values(), *run.SPEED_POINTS.values()):
        names.update(points)
    for pattern, under in layers.BUSY.values():
        names.update(p for p in (pattern, under)
                     if p is not None and not any(c in p for c in "*?["))
    assert {"oracle.resampled_next_state_tv",
            "metrics.elbo_by_path_enumeration"} <= names
    modules = [importlib.import_module(f"emdiff.{name}")
               for name in layers.MODULES]
    tracer = tr.Tracer(only=names)
    with tracer.install(modules):
        pass
    assert sorted(names - tracer.wrapped) == []
    # the wildcard patterns skipped above: moving rollout off the policy
    # classes, say, would blank eval.rollout
    tracer = tr.Tracer()
    with tracer.install(modules):
        pass
    patterns = ("*Policy.rollout", "numkit.Mlp*", "rewards.*.value",
                "estep.s*_batch")
    assert [p for p in patterns
            if not tr.wrapped_any(tracer.wrapped, p)] == []
