"""Per-layer metrics of the traced run: which emdiff modules are wrapped, the
counters recorded at their boundaries, and how spans become metrics.

Every metric is per command (an oracle command runs one suite). Every busy
time is the time inside the matching spans (nested matches counted once)
and comes with a ``.calls`` count. A metric whose functions are no longer
in the program is left out of a command's metrics, and so is a share with
nothing to divide by; a workload run reports a metric left out of all its
commands as 0.
"""

import os

import numpy as np

from . import tracer as tr

MODULES = ("runner", "estep", "mstep", "optim", "numkit", "metrics", "softq",
           "rewards", "discrete", "continuous", "checkpoint", "oracle")

# metric prefix -> (span name pattern, required ancestor pattern or None)
BUSY = {
    # search
    "estep.sample_posterior_batch": ("estep.sample_posterior_batch", None),
    "estep.search_step_batch": ("estep.search_step_batch", None),
    "continuous.x0hat_jacobian": ("continuous.x0hat_jacobian", None),
    "discrete.x0_probs": ("discrete.x0_probs", None),
    # distill
    "mstep.update": ("mstep.update", None),
    "mstep.loss_and_grads": ("mstep.loss_and_grads", None),
    "numkit.Mlp": ("numkit.Mlp*", "mstep.update"),
    "optim.Adam.step": ("optim.Adam.step", None),
    # eval
    "runner.evaluate_policy": ("runner.evaluate_policy", None),
    "eval.rollout": ("*Policy.rollout", "runner.evaluate_policy"),
    "rewards.value": ("rewards.*.value", None),
    "metrics.diversity": ("metrics.diversity", None),
    "softq.ExactSoftTables": ("softq.ExactSoftTables", None),
    "metrics.elbo_exact_tabular": ("metrics.elbo_exact_tabular", None),
    "metrics.elbo_surrogate": ("metrics.elbo_surrogate", None),
    # oracle
    "oracle.run_suite": ("oracle.run_suite", None),
    "oracle.resampled_next_state_tv": ("oracle.resampled_next_state_tv",
                                       None),
    "metrics.elbo_by_path_enumeration": ("metrics.elbo_by_path_enumeration",
                                         None),
    "softq.check_bounds": ("softq.check_bounds", None),
    # setup
    "runner.Setup": ("runner.Setup", None),
    "discrete.pretrain": ("discrete.pretrain", None),
    # checkpoint
    "checkpoint.save_checkpoint": ("checkpoint.save_checkpoint", None),
}

# metric -> span pattern whose self time (minus wrapped children) it is
SELF = {
    "estep.assemble.self_s": "estep.sample_posterior_batch",
    "mstep.assemble.self_s": "mstep.loss_and_grads",
}

# phase -> span pattern; shares are of the command's own span
PHASES = {
    "search": "estep.s*_batch",
    "distill": "mstep.update",
    "eval": "runner.evaluate_policy",
    "checkpoint": "checkpoint.save_checkpoint",
}
COMMANDS = "runner.run_*"

# counter -> span names whose hooks feed it (for presence checks)
COUNTS = {
    "estep.particles": "estep.search_step_batch",
    "estep.fallbacks": "estep.search_step_batch",
    "mstep.rows": "mstep.loss_and_grads",
    "metrics.diversity.pairs": "metrics.diversity",
    "softq.states": "softq.ExactSoftTables",
    "checkpoint.bytes": "checkpoint.save_checkpoint",
}


def _add(counters, key, value):
    counters[key] = counters.get(key, 0.0) + float(value)


def _search_step(args, result, c):
    n = args["X"].shape[0]
    m = args["cfg"].particles
    ent, fallback = result[1][4], result[1][5]
    _add(c, "estep.particles", n * m)
    _add(c, "estep.fallbacks", np.sum(fallback))
    _add(c, "estep.eff_particle_sum", np.sum(np.exp(ent)) / m)
    _add(c, "estep.rows", n)


def _loss_and_grads(args, result, c):
    _add(c, "mstep.rows", sum(t.T for t in args["batch"]))


def _diversity(args, result, c):
    arr = np.asarray(args["samples"])
    n = arr.shape[0]
    _add(c, "metrics.diversity.pairs", n * (n - 1) // 2)
    _add(c, "eval.distinct_rows", np.unique(arr.reshape(n, -1), axis=0).shape[0])
    _add(c, "eval.rows", n)


def _tables(args, result, c):
    _add(c, "softq.states", args["self"].states.shape[0])


def _save_checkpoint(args, result, c):
    _add(c, "checkpoint.bytes", os.path.getsize(args["path"]))


HOOKS = {
    "estep.search_step_batch": _search_step,
    "mstep.loss_and_grads": _loss_and_grads,
    "metrics.diversity": _diversity,
    "softq.ExactSoftTables": _tables,
    "checkpoint.save_checkpoint": _save_checkpoint,
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for key in BUSY:
        out += [(f"{key}.busy_s", "s"), (f"{key}.calls", "count")]
    out += [(k, "s") for k in SELF]
    out += [(k, "count") for k in COUNTS]
    out += [("estep.eff_particle_share", "share"),
            ("eval.distinct_share", "share"),
            ("oracle.suite_tables", "count")]
    out += [(f"phase.{p}.share", "share") for p in PHASES]
    out += [("trace.overhead", "ratio")]
    return out


def command_metrics(spans, counters, wrapped, broken):
    """Per-layer metrics of one traced command (absent where the program no
    longer has the function a metric is built on)."""
    out = {}
    for key, (pattern, under) in BUSY.items():
        if tr.wrapped_any(wrapped, pattern):
            secs, calls = tr.busy(spans, pattern, under)
            out[f"{key}.busy_s"] = secs
            out[f"{key}.calls"] = calls
    for key, pattern in SELF.items():
        if tr.wrapped_any(wrapped, pattern):
            out[key] = tr.self_time(spans, pattern)
    for key, source in COUNTS.items():
        if source in wrapped and source not in broken:
            out[key] = counters.get(key, 0.0)
    if counters.get("estep.rows"):
        out["estep.eff_particle_share"] = (counters["estep.eff_particle_sum"]
                                           / counters["estep.rows"])
    if counters.get("eval.rows"):
        out["eval.distinct_share"] = (counters["eval.distinct_rows"]
                                      / counters["eval.rows"])
    if "softq.ExactSoftTables" in wrapped and "oracle.run_suite" in wrapped:
        out["oracle.suite_tables"] = tr.busy(
            spans, "softq.ExactSoftTables", "oracle.run_suite")[1]
    total = tr.busy(spans, COMMANDS)[0]
    if total > 0:
        for phase, pattern in PHASES.items():
            if tr.wrapped_any(wrapped, pattern):
                out[f"phase.{phase}.share"] = tr.busy(spans, pattern)[0] / total
    return out
