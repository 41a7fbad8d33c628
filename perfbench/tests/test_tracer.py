"""Span arithmetic on synthetic trees, and wrapping/restoring on a fake
package laid out like emdiff (a function re-exported by a second module)."""

import sys
import types

import pytest

from perfbench import layers
from perfbench import tracer as tr

# root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 9];  c [11, 12]
TREE = [["root", -1, 0.0, 10.0], ["a", 0, 1.0, 4.0], ["b", 1, 2.0, 3.0],
        ["a", 0, 5.0, 9.0], ["c", -1, 11.0, 12.0]]


def test_self_time_subtracts_direct_children_only():
    assert tr.self_times(TREE) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tr.self_time(TREE, "a") == 6.0
    assert tr.self_time(TREE, "root") == 3.0


def test_busy_counts_nested_matches_once():
    assert tr.busy(TREE, "a") == (7.0, 2)
    assert tr.busy(TREE, "*") == (11.0, 5)
    assert tr.busy(TREE, "[ab]") == (7.0, 3)


def test_busy_under_attributes_to_the_ancestor():
    assert tr.busy(TREE, "b", under="a") == (1.0, 1)
    assert tr.busy(TREE, "b", under="c") == (0.0, 0)
    assert tr.busy(TREE, "a", under="root") == (7.0, 2)


def test_ends_in_order():
    assert tr.ends(TREE, "a") == [4.0, 9.0]


@pytest.fixture
def fakepkg():
    core = types.ModuleType("fakepkg.core")
    exec(
        "def helper(x):\n    return 2 * x\n"
        "def work(x):\n    return helper(x) + 1\n"
        "def _private(x):\n    return x\n"
        "class Box:\n"
        "    def __init__(self, v):\n        self.v = v\n"
        "    def get(self):\n        return work(self.v)\n",
        core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.work = core.work       # as `from .core import work` would
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_wraps_by_identity_and_restores(fakepkg):
    core, user = fakepkg
    originals = (core.work, core.helper, core._private, core.Box.get,
                 core.Box.__init__)
    t = tr.Tracer()
    with t.install([core]):
        assert user.work is core.work is not originals[0]
        assert user.work(3) == 7
        assert core.Box(2).get() == 5
    assert (core.work, core.helper, core._private, core.Box.get,
            core.Box.__init__) == originals
    assert user.work is originals[0]
    names = [s[tr.NAME] for s in t.spans]
    assert names == ["core.work", "core.helper", "core.Box",
                     "core.Box.get", "core.work", "core.helper"]
    parents = [s[tr.PARENT] for s in t.spans]
    assert parents == [-1, 0, -1, -1, 3, 4]
    assert "core._private" not in t.wrapped


def test_restores_after_an_exception(fakepkg):
    core, _ = fakepkg
    original = core.work
    t = tr.Tracer()
    with pytest.raises(TypeError):
        with t.install([core]):
            core.work(None)
    assert core.work is original
    assert t.spans[0][tr.END] >= t.spans[0][tr.START] > 0


def test_only_limits_wrapping(fakepkg):
    core, _ = fakepkg
    t = tr.Tracer(only={"core.helper"})
    with t.install([core]):
        core.work(1)
    assert t.wrapped == {"core.helper"}
    assert [s[tr.NAME] for s in t.spans] == ["core.helper"]


def test_broken_hook_is_dropped_not_fatal(fakepkg):
    core, _ = fakepkg

    def hook(args, result, counters):
        counters["n"] = counters.get("n", 0) + args["missing"]

    t = tr.Tracer(hooks={"core.work": hook, "core.helper":
                         lambda a, r, c: c.update(x=a["x"])})
    with t.install([core]):
        assert core.work(1) == 3
    assert t.broken == {"core.work"}
    assert t.counters == {"x": 1}


def test_metrics_of_a_missing_function_are_absent():
    spans = [["runner.run_align", -1, 0.0, 10.0],
             ["mstep.update", 0, 1.0, 3.0],
             ["numkit.Mlp.forward", 1, 1.5, 2.0],
             ["runner.evaluate_policy", 0, 4.0, 9.0],
             ["numkit.Mlp.forward", 3, 5.0, 6.0]]
    wrapped = {s[tr.NAME] for s in spans}
    out = layers.command_metrics(spans, {}, wrapped, set())
    assert out["numkit.Mlp.busy_s"] == 0.5          # distill only
    assert out["numkit.Mlp.calls"] == 1
    assert out["phase.distill.share"] == 0.2
    assert out["phase.eval.share"] == 0.5
    assert "estep.search_step_batch.busy_s" not in out
    assert "estep.particles" not in out
    out = layers.command_metrics(spans, {}, wrapped - {"mstep.update"}, set())
    assert "mstep.update.busy_s" not in out
