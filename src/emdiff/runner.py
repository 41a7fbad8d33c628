"""Experiment runner: config resolution, the outer alternating loop
(explore, distill, evaluate), metrics emission, checkpointing, and the
evaluation/oracle entry points used by the CLI."""

import contextlib
import copy
import dataclasses
import json
import math
import os
import re
from collections import namedtuple

import numpy as np

from . import checkpoint as ckpt
from . import continuous as cont
from . import discrete as disc
from . import metrics as met
from . import mstep as mstep_mod
from . import oracle as oracle_mod
from .errors import ConfigError, OracleUnavailableError, RunAbortedError
from .estep import EStepConfig, sample_posterior_batch
from .mstep import MStepConfig
from .numkit import RngStream, normalized_weights, softmax
from .optim import Adam
from .rewards import make_reward, tokens_from_string
from .schedules import make_continuous_schedule, make_discrete_schedule
from .softq import ExactSoftTables

_INIT, _PRETRAIN, _ESTEP, _EVAL, _POSTERIOR = 1, 2, 3, 4, 5

CSV_FIELDS = [f.name for f in dataclasses.fields(met.ElboRecord)]

VARIANTS = ("dav", "search_and_distill", "reweight")

REQUIRED, OPTIONAL = "required", "optional"
PerKind = namedtuple("PerKind", "continuous discrete")
Field = namedtuple("Field", "path type default when least",
                   defaults=(None, None))

# The config schema: one row per key, parents before children. A type is
# int, float (an int is accepted and kept as given), str, bool, dict, [t]
# (a list of t) or a tuple of alternatives, which may be literal strings.
# A default is a value, PerKind(continuous, discrete), REQUIRED or OPTIONAL
# (checked when given, never filled in, so configs without it keep their
# hash). A row with `when` exists only if world.kind or reward.name has that
# value; `least` is the smallest accepted value. Value checks that a module
# owns run when _parts builds its objects. A resolved object lists its
# defaulted keys first, in table order, then the given ones in the order
# given: checkpoints store that order.
_FIELDS = [
    Field("world", dict, {}),
    Field("world.kind", ("continuous", "discrete"), REQUIRED),
    Field("world.schedule", dict, {}),
    Field("world.schedule.steps", int, PerKind(50, 3)),
    Field("world.schedule.beta_min", float, 1e-4, "continuous"),
    Field("world.schedule.beta_max", float, 0.02, "continuous"),
    Field("world.residual_widths", [int], [16, 16], "continuous"),
    Field("world.mixture", dict, REQUIRED, "continuous"),
    Field("world.mixture.weights", [float], REQUIRED),
    Field("world.mixture.means", [[float]], REQUIRED),
    Field("world.mixture.stds", [float], REQUIRED),
    Field("world.denoiser", ("tabular", dict), "tabular", "discrete"),
    Field("world.denoiser.kind", ("mlp",), REQUIRED),
    Field("world.denoiser.widths", [int], OPTIONAL),
    Field("world.pretrain", dict, {}, "discrete"),
    Field("world.pretrain.epochs", int, 400),
    Field("world.pretrain.lr", float, 0.05),
    Field("world.pretrain.sequences", [str], REQUIRED),
    Field("world.pretrain.probs", [float], OPTIONAL),
    Field("world.pretrain.batch_size", int, OPTIONAL),
    Field("world.length", int, REQUIRED, "discrete", 1),
    Field("world.vocab", int, REQUIRED, "discrete", 1),
    Field("world.alphabet", str, OPTIONAL, "discrete"),
    Field("reward", dict, {}),
    Field("reward.name", ("linear", "neg_sq_dist", "mode_preference"),
          REQUIRED, "continuous"),
    Field("reward.name", ("motif_count", "token_count"), REQUIRED,
          "discrete"),
    Field("reward.differentiable", bool, OPTIONAL),
    Field("reward.coeffs", [float], REQUIRED, "linear"),
    Field("reward.target", [float], REQUIRED, "neg_sq_dist"),
    Field("reward.amps", [float], REQUIRED, "mode_preference"),
    Field("reward.centers", [[float]], REQUIRED, "mode_preference"),
    Field("reward.tau", float, REQUIRED, "mode_preference"),
    Field("reward.motif", (str, [int]), REQUIRED, "motif_count"),
    Field("reward.token", (str, int), REQUIRED, "token_count"),
    Field("estep", dict, {}),
    Field("estep.alpha", float, PerKind(0.005, 0.01)),
    Field("estep.gamma", float, PerKind(0.9, 1.0)),
    Field("estep.particles", int, PerKind(4, 10)),
    Field("estep.guidance", ("on", "off"), "on"),
    Field("estep.grad_mode", str, "exact"),
    Field("mstep", dict, {}),
    Field("mstep.lr", float, 1e-3),
    Field("mstep.steps", int, PerKind(1, 2)),
    Field("mstep.kl_coeff", float, 0.0),
    Field("mstep.beta1", float, 0.9),
    Field("mstep.beta2", float, 0.999),
    Field("mstep.kl_weighting", str, "uniform"),
    Field("eval", dict, {}),
    Field("eval.samples", int, 256, least=2),
    Field("eval.mode_radius_scale", float, 2.0, least=0),
    Field("epochs", int, 50, least=0),
    Field("batch", int, 32, least=1),
    Field("seed", int, 0),
    Field("checkpoint_every", int, 10, least=1),
]


def _accepts(typ, v):
    if isinstance(typ, list):
        return isinstance(v, list) and all(_accepts(typ[0], x) for x in v)
    if isinstance(typ, tuple):
        return any(v == t if isinstance(t, str) else _accepts(t, v)
                   for t in typ)
    if isinstance(v, bool):
        return typ is bool
    if typ is float:  # JSON's NaN and Infinity parse, but fit no setting
        return isinstance(v, int) or isinstance(v, float) and math.isfinite(v)
    return isinstance(v, typ)


def resolve_config(raw):
    """Check a config against _FIELDS and fill in its defaults. Returns the
    materialized config, which is what gets hashed, echoed and checkpointed.
    Unknown keys, wrong types and bad values raise ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("a config is a JSON object")
    cfg, scope = {}, set()
    objects = {"": (raw, cfg, {})}  # path -> (given, resolved, given extras)
    for f in _FIELDS:
        parent, _, key = f.path.rpartition(".")
        if parent not in objects or (f.when and f.when not in scope):
            continue
        given, resolved, extras = objects[parent]
        if key in given:
            value = given[key]
            if not _accepts(f.type, value):
                typ = re.sub(r"<class '(\w+)'>", r"\1", repr(f.type))
                raise ConfigError(f"{f.path} must be {typ}, got {value!r}")
        elif f.default is REQUIRED:
            raise ConfigError(f"{f.path} is required")
        elif f.default is OPTIONAL:
            continue
        else:
            value = f.default
            if isinstance(value, PerKind):
                value = value.discrete if "discrete" in scope \
                    else value.continuous
        if f.least is not None and value < f.least:
            raise ConfigError(f"{f.path} must be >= {f.least}, got {value}")
        if f.path in ("world.kind", "reward.name"):
            scope.add(value)
        out = extras if f.default in (REQUIRED, OPTIONAL) else resolved
        out[key] = {} if isinstance(value, dict) else copy.deepcopy(value)
        if isinstance(value, dict):
            objects[f.path] = (value, out[key], {})
    for path, (given, resolved, extras) in objects.items():
        for key in given:
            if key not in resolved and key not in extras:
                raise ConfigError(
                    f"unknown config key {f'{path}.{key}'.lstrip('.')!r}")
            resolved.setdefault(key, extras.get(key))
    _parts(cfg)  # the value checks
    return cfg


def _enumerable(world):
    """Whether a resolved world is discrete with (K+1)^L <= ENUM_CAP
    states: the worlds with exact tables, a tabular denoiser and oracles."""
    return (world["kind"] == "discrete"
            and (world["vocab"] + 1) ** world["length"] <= disc.ENUM_CAP)


def _parts(cfg):
    """Reward, E- and M-step configs, schedule, world data (the mixture or
    the pretraining corpus as token rows) and alphabet of a resolved config.
    Building them runs the value checks of the modules that own the values."""
    world, es = cfg["world"], cfg["estep"]
    ecfg = EStepConfig(**dict(es, guidance=es["guidance"] == "on"))
    mcfg = MStepConfig(**cfg["mstep"], gamma=es["gamma"])
    sch = world["schedule"]
    if world["kind"] == "continuous":
        schedule = make_continuous_schedule(sch["steps"], sch["beta_min"],
                                            sch["beta_max"])
        data, alphabet = cont.GaussianMixture(**world["mixture"]), None
    else:
        schedule = make_discrete_schedule(sch["steps"])
        L, K = world["length"], world["vocab"]
        if world["denoiser"] == "tabular" and not _enumerable(world):
            raise ConfigError(f"tabular denoiser needs (K+1)^L <= "
                              f"{disc.ENUM_CAP}, got {(K + 1) ** L}")
        alphabet = world.get("alphabet", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:K])
        if len(alphabet) != K or len(set(alphabet)) != K:
            raise ConfigError(f"alphabet {alphabet!r} needs {K} distinct "
                              f"characters, one per token")
        pre = world["pretrain"]
        rows = [tokens_from_string(s, alphabet) for s in pre["sequences"]]
        if not rows or any(r.size != L for r in rows):
            raise ConfigError(f"pretrain.sequences needs at least one "
                              f"string, each of {L} characters")
        normalized_weights(pre.get("probs"), len(rows), "pretraining weights")
        data = np.stack(rows)
    reward = make_reward(cfg["reward"], vocab=world.get("vocab"),
                         alphabet=alphabet)
    if world["kind"] == "continuous" and reward.dim != data.dim:
        raise ConfigError(f"reward {reward.name!r} is {reward.dim}-d but the "
                          f"mixture is {data.dim}-d")
    ecfg.validate_against(reward)
    return reward, ecfg, mcfg, schedule, data, alphabet


class Setup:
    """Built world: policy, frozen pretrained twin, reward, sub-configs."""

    def __init__(self, cfg, skip_pretrain=False):
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.root = RngStream(self.seed)
        world = cfg["world"]
        self.kind = world["kind"]
        self.enumerable = _enumerable(world)
        (self.reward, self.ecfg, self.mcfg, self.schedule, data,
         self.alphabet) = _parts(cfg)
        if self.kind == "continuous":
            self.mixture = data
            self.policy = cont.ContinuousPolicy(
                self.schedule, self.mixture,
                residual_widths=tuple(world["residual_widths"]),
                rng=self.root.child(_INIT))
        else:
            L, K = world["length"], world["vocab"]
            den_cfg = world["denoiser"]
            if den_cfg == "tabular":
                den = disc.TabularDenoiser(L, K)
            else:
                den = disc.MlpDenoiser(L, K, self.schedule.T,
                                       widths=tuple(den_cfg.get("widths", [64])),
                                       rng=self.root.child(_INIT))
            if not skip_pretrain:
                pre = world["pretrain"]
                disc.pretrain(den, self.schedule, data,
                              weights=pre.get("probs"), epochs=pre["epochs"],
                              lr=pre["lr"],
                              rng=self.root.child(_PRETRAIN),
                              batch_size=pre.get("batch_size"))
            self.policy = disc.DiscretePolicy(self.schedule, den)
        self.pretrained = self.policy.pretrained_copy()

    def exact_tables(self, policy=None):
        if not self.enumerable:
            raise OracleUnavailableError("instance is not enumerable")
        return ExactSoftTables(self.schedule, (policy or self.policy).denoiser,
                               self.reward, self.ecfg.softq)


def _resume_hash(cfg):
    trimmed = {k: v for k, v in cfg.items() if k != "epochs"}
    return ckpt.config_hash(trimmed)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _csv_row(rec):
    return ",".join(v if isinstance(v, str) else _fmt(v)
                    for v in dataclasses.astuple(rec)) + "\n"


def _dump_samples(path, terminals, alphabet):
    if alphabet is None:
        lines = (" ".join(repr(float(v)) for v in row) for row in terminals)
    else:
        lines = ("".join(alphabet[int(v)] for v in row) for row in terminals)
    ckpt.write_atomic(path, "".join(line + "\n" for line in lines))


def _rollout_stats(setup, terminals):
    """Mean reward, reward std, diversity (None below two samples) and, in
    the continuous world, mode coverage of terminal samples."""
    rewards = np.atleast_1d(setup.reward.value(terminals)).astype(float)
    out = {"mean_reward": float(rewards.mean()),
           "reward_std": float(rewards.std()),
           "diversity": (met.diversity(terminals)
                         if terminals.shape[0] >= 2 else None)}
    if setup.kind == "continuous":
        out["mode_coverage"] = met.mode_coverage(
            terminals, setup.mixture,
            radius_scale=setup.cfg["eval"]["mode_radius_scale"])
    return out


def evaluate_policy(setup, policy, epoch, batch=None, report=None):
    """One metrics row: rollout statistics plus the best available ELBO;
    the surrogate one reads report, mstep.update's report on batch."""
    terminals = policy.rollout(setup.root.child(_EVAL, epoch),
                               setup.cfg["eval"]["samples"]).terminals
    rec = met.ElboRecord(epoch=epoch, elbo=float("nan"), elbo_kind="none",
                         **_rollout_stats(setup, terminals))
    searched = batch is not None and batch.searched
    if setup.enumerable:
        rec.elbo = met.elbo_exact_tabular(setup.exact_tables(policy))
        rec.elbo_kind = "exact-tabular"
    elif searched:
        rec.elbo = met.elbo_surrogate(batch, report["log_p"],
                                      setup.ecfg.alpha, setup.ecfg.gamma)
        rec.elbo_kind = "surrogate-is"
    if searched:
        rec.weight_entropy = float(np.mean(batch.steps.entropy))
        rec.fallbacks = int(batch.steps.fallback.sum())
    if report:
        rec.loss_before = report["loss_before"]
        rec.loss_after = report["loss_after"]
    return rec, terminals


def _save_ckpt(path, setup, policy, opt, epoch, variant):
    ckpt.save_checkpoint(
        path, cfg=setup.cfg, variant=variant, epoch=epoch, seed=setup.seed,
        policy_version=policy.version, params=policy.params(),
        pretrained_params=setup.pretrained.params(),
        opt_state=opt.state_dict())


def _truncate_metrics(csv_path, epoch):
    """Drop the metrics.csv rows after `epoch`, which a run that went past
    the checkpoint being resumed has already written."""
    if not os.path.exists(csv_path):
        raise ConfigError("resume expects the run's metrics.csv in out_dir")
    with open(csv_path) as fh:
        lines = fh.readlines()
    keep = lines[:epoch + 2]  # the header, then epochs 0..epoch
    if len(keep) != epoch + 2 or not keep[-1].startswith(f"{epoch},"):
        raise ConfigError(f"metrics.csv has no row for checkpoint epoch {epoch}")
    ckpt.write_atomic(csv_path, "".join(keep))


def run_align(raw_cfg, out_dir, variant="dav", resume=None):
    """The outer loop: explore with the search, distill, evaluate, repeat.

    variant selects the exploration ablation: "dav" searches against the
    current policy, "search_and_distill" always against the pretrained one,
    "reweight" replaces search with exponentiated-reward weighting of plain
    rollouts. Returns a summary dict; all artifacts land in out_dir.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    cfg = resolve_config(raw_cfg)
    csv_path = os.path.join(out_dir, "metrics.csv")
    payload = None
    if resume is not None:
        payload = ckpt.load_checkpoint(resume)
        # epochs is a stop point, not part of the run's identity: resuming
        # with a longer horizon continues the same run
        if _resume_hash(payload["config"]) != _resume_hash(cfg):
            raise ConfigError("checkpoint was produced by a different config")
        if payload.get("variant") != variant:
            raise ConfigError(
                f"checkpoint was produced by variant "
                f"{payload.get('variant')!r}, not {variant!r}")
        _truncate_metrics(csv_path, payload["epoch"])
        # the run continues from a good checkpoint, so a record of an
        # earlier abort no longer describes it
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "abort.txt"))
    os.makedirs(out_dir, exist_ok=True)
    ckpt.write_atomic(os.path.join(out_dir, "config.json"),
                      json.dumps(cfg, sort_keys=True, indent=2))
    setup = Setup(cfg) if payload is None else _restored_setup(cfg, payload)
    policy, pretrained, reward = setup.policy, setup.pretrained, setup.reward
    mcfg = setup.mcfg
    opt = Adam(policy.params(), lr=mcfg.lr, beta1=mcfg.beta1, beta2=mcfg.beta2)
    start_epoch = 0
    if payload is not None:
        opt.load_state_dict(payload["opt"])
        start_epoch = payload["epoch"] + 1
        fh = open(csv_path, "a")
    else:
        fh = open(csv_path, "w")
        fh.write(",".join(CSV_FIELDS) + "\n")
    records = []
    terminals = None
    try:
        searcher = pretrained if variant == "search_and_distill" else policy
        for e in range(start_epoch, cfg["epochs"] + 1):
            batch = report = None  # epoch 0 evaluates the pretrained policy
            if e > 0:
                if variant == "reweight":
                    batch = policy.rollout(setup.root.child(_ESTEP, e),
                                           cfg["batch"])
                    rewards = np.atleast_1d(
                        reward.value(batch.terminals)).astype(float)
                    batch.weights = softmax(rewards / setup.ecfg.alpha)
                else:
                    # the key's trailing 0 keeps batches of up to 32 rows on
                    # the random numbers of earlier releases, which searched
                    # in chunks of 32
                    batch = sample_posterior_batch(
                        searcher, reward, setup.ecfg,
                        setup.root.child(_ESTEP, e, 0), cfg["batch"])
                report = mstep_mod.update(
                    policy, pretrained, batch, mcfg, opt,
                    expected_snapshot=searcher.version)
            rec, terminals = evaluate_policy(setup, policy, e, batch, report)
            records.append(rec)
            fh.write(_csv_row(rec))
            fh.flush()
            if e % cfg["checkpoint_every"] == 0 or e == cfg["epochs"]:
                _save_ckpt(os.path.join(out_dir, f"ckpt_epoch{e:04d}.json"),
                           setup, policy, opt, e, variant)
    except RunAbortedError as err:
        with open(os.path.join(out_dir, "abort.txt"), "w") as afh:
            afh.write(str(err) + "\n")
        raise
    finally:
        fh.close()
    if terminals is None:
        # resumed from the final checkpoint: no epoch ran, so the samples
        # come from the restored policy under that epoch's eval key
        terminals = policy.rollout(setup.root.child(_EVAL, payload["epoch"]),
                                   cfg["eval"]["samples"]).terminals
    _dump_samples(os.path.join(out_dir, "samples.txt"), terminals,
                  setup.alphabet)
    final_ckpt = os.path.join(out_dir, f"ckpt_epoch{cfg['epochs']:04d}.json")
    return {"out_dir": out_dir, "records": records, "setup": setup,
            "policy": policy, "checkpoint": final_ckpt}


def load_setup_from_checkpoint(path):
    """Rebuild the world described by a checkpoint and restore parameters."""
    payload = ckpt.load_checkpoint(path)
    cfg = payload["config"]
    if payload["config_hash"] != ckpt.config_hash(cfg):
        raise ConfigError("checkpoint config hash does not match its config")
    return _restored_setup(cfg, payload), payload


def _restored_setup(cfg, payload):
    """The world of cfg with a checkpoint's parameters, not pretrained."""
    setup = Setup(cfg, skip_pretrain=True)
    ckpt.restore_arrays(setup.policy.params(), payload["params"])
    ckpt.restore_arrays(setup.pretrained.params(),
                        payload["pretrained_params"])
    setup.policy.version = payload["policy_version"]
    return setup


def run_eval(ckpt_path, n_samples, posterior=False, seed=None, out_dir=None):
    """Rollout metrics from a checkpoint; optionally also posterior-search
    samples from the same parameters (the test-time inference mode)."""
    setup, payload = load_setup_from_checkpoint(ckpt_path)
    seed = payload["seed"] if seed is None else int(seed)
    root = RngStream(seed)
    policy, reward = setup.policy, setup.reward

    def summarize(terminals):
        return {**_rollout_stats(setup, terminals),
                "n": int(terminals.shape[0])}

    terminals = policy.rollout(root.child(_EVAL, payload["epoch"]),
                               n_samples).terminals
    result = {"amortized": summarize(terminals), "epoch": payload["epoch"]}
    post_terminals = None
    if posterior:
        post_terminals = sample_posterior_batch(
            policy, reward, setup.ecfg, root.child(_POSTERIOR),
            n_samples).terminals
        result["posterior"] = summarize(post_terminals)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _dump_samples(os.path.join(out_dir, "samples_amortized.txt"),
                      terminals, setup.alphabet)
        if post_terminals is not None:
            _dump_samples(os.path.join(out_dir, "samples_posterior.txt"),
                          post_terminals, setup.alphabet)
        with open(os.path.join(out_dir, "eval.json"), "w") as fh:
            json.dump(result, fh, sort_keys=True, indent=2)
    return result


def run_oracle(raw_cfg, out_dir=None, repeats=4000, seeds=5):
    """Run every oracle-backed check on an enumerable instance."""
    cfg = resolve_config(raw_cfg)
    if not _enumerable(cfg["world"]):
        raise OracleUnavailableError(
            "oracle suite needs a discrete world within the enumeration cap "
            f"(K+1)^L <= {disc.ENUM_CAP}")
    setup = Setup(cfg)
    rows = oracle_mod.run_suite(setup.policy, setup.pretrained, setup.reward,
                                setup.ecfg, repeats=repeats, seeds=seeds)
    text = oracle_mod.format_report(rows)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "oracle_report.txt"), "w") as fh:
            fh.write(text)
    return {"rows": rows, "ok": all(r["ok"] for r in rows), "report": text}
