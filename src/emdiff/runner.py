"""Experiment runner: config resolution, the outer alternating loop
(explore, distill, evaluate), metrics emission, checkpointing, and the
evaluation/oracle entry points used by the CLI."""

import contextlib
import copy
import json
import os

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
from .numkit import RngStream, softmax
from .optim import Adam
from .rewards import make_reward
from .schedules import make_continuous_schedule, make_discrete_schedule
from .softq import ExactSoftTables, SoftQConfig

_INIT, _PRETRAIN, _ESTEP, _EVAL, _POSTERIOR = 1, 2, 3, 4, 5

CSV_FIELDS = ["epoch", "elbo", "elbo_kind", "mean_reward", "reward_std",
              "diversity", "mode_coverage", "weight_entropy", "fallbacks",
              "loss_before", "loss_after"]

VARIANTS = ("dav", "search_and_distill", "reweight")

_ESTEP_DEFAULTS = {
    "continuous": {"alpha": 0.005, "gamma": 0.9, "particles": 4,
                   "guidance": "on", "grad_mode": "exact"},
    "discrete": {"alpha": 0.01, "gamma": 1.0, "particles": 10,
                 "guidance": "on", "grad_mode": "exact"},
}
_MSTEP_DEFAULTS = {
    "continuous": {"lr": 1e-3, "steps": 1, "kl_coeff": 0.0, "beta1": 0.9,
                   "beta2": 0.999, "kl_weighting": "uniform"},
    "discrete": {"lr": 1e-3, "steps": 2, "kl_coeff": 0.0, "beta1": 0.9,
                 "beta2": 0.999, "kl_weighting": "uniform"},
}
_WORLD_DEFAULTS = {
    "continuous": {"schedule": {"steps": 50, "beta_min": 1e-4,
                                "beta_max": 0.02},
                   "residual_widths": [16, 16]},
    "discrete": {"schedule": {"steps": 3}, "denoiser": "tabular",
                 "pretrain": {"epochs": 400, "lr": 0.05}},
}
_EVAL_DEFAULTS = {"samples": 256, "mode_radius_scale": 2.0}


def _merge(defaults, given):
    out = copy.deepcopy(defaults)
    for k, v in (given or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def resolve_config(raw):
    """Merge defaults, validate cross-field constraints, return the fully
    materialized config dict (this is what gets hashed and echoed)."""
    raw = copy.deepcopy(raw)
    world = raw.get("world") or {}
    kind = world.get("kind")
    if kind not in ("continuous", "discrete"):
        raise ConfigError(f"world.kind must be continuous or discrete, got {kind!r}")
    world = _merge(_WORLD_DEFAULTS[kind], world)
    cfg = {
        "world": world,
        "reward": raw.get("reward") or {},
        "estep": _merge(_ESTEP_DEFAULTS[kind], raw.get("estep")),
        "mstep": _merge(_MSTEP_DEFAULTS[kind], raw.get("mstep")),
        "eval": _merge(_EVAL_DEFAULTS, raw.get("eval")),
        "epochs": int(raw.get("epochs", 50)),
        "batch": int(raw.get("batch", 32)),
        "seed": int(raw.get("seed", 0)),
        "checkpoint_every": int(raw.get("checkpoint_every", 10)),
    }
    if cfg["epochs"] < 0:
        raise ConfigError("epochs must be >= 0")
    if cfg["batch"] < 1:
        raise ConfigError("batch must be >= 1")
    if cfg["checkpoint_every"] < 1:
        raise ConfigError("checkpoint_every must be >= 1")
    if cfg["eval"]["samples"] < 2:
        raise ConfigError("eval.samples must be >= 2")
    if cfg["estep"]["guidance"] not in ("on", "off"):
        raise ConfigError("estep.guidance must be 'on' or 'off'")
    if kind == "continuous":
        if "mixture" not in world:
            raise ConfigError("continuous world needs a mixture")
    else:
        if int(world.get("vocab", 0)) < 1 or int(world.get("length", 0)) < 1:
            raise ConfigError("discrete world needs vocab >= 1 and length >= 1")
        if world["denoiser"] == "tabular":
            n = (world["vocab"] + 1) ** world["length"]
            if n > disc.ENUM_CAP:
                raise ConfigError(
                    f"tabular denoiser needs (K+1)^L <= {disc.ENUM_CAP}, got {n}")
        if "sequences" not in world.get("pretrain", {}):
            raise ConfigError("discrete world needs pretrain.sequences")
        _check_corpus(world)
    # reward/world compatibility and guidance feasibility, checked before
    # any compute starts
    reward = _build_reward(cfg)
    expected_domain = kind
    if reward.domain != expected_domain:
        raise ConfigError(
            f"reward {reward.name!r} is {reward.domain}, world is {kind}")
    if cfg["estep"]["guidance"] == "on" and not reward.differentiable:
        raise ConfigError(
            "estep.guidance=on requires a differentiable reward")
    return cfg


def _check_corpus(world):
    """Pretraining sequences must be strings of world.length characters from
    the alphabet; probs, if given, one finite nonnegative weight each with a
    positive sum."""
    L, alphabet = int(world["length"]), _alphabet(world)
    seqs = world["pretrain"]["sequences"]
    for seq in seqs:
        if (not isinstance(seq, str) or len(seq) != L
                or any(c not in alphabet for c in seq)):
            raise ConfigError(
                f"pretrain sequence {seq!r} is not {L} characters from "
                f"{alphabet!r}")
    probs = world["pretrain"].get("probs")
    if probs is None:
        return
    try:
        p = np.asarray(probs, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("pretrain.probs must be numbers") from None
    if (p.shape != (len(seqs),) or not np.all(np.isfinite(p))
            or np.any(p < 0) or not p.sum() > 0):
        raise ConfigError(
            "pretrain.probs needs one finite nonnegative weight per sequence "
            "with a positive sum")


def _alphabet(world):
    K = int(world["vocab"])
    return world.get("alphabet", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:K])


def _build_reward(cfg):
    world = cfg["world"]
    if world["kind"] == "discrete":
        return make_reward(cfg["reward"], vocab=int(world["vocab"]),
                           alphabet=_alphabet(world))
    return make_reward(cfg["reward"])


class Setup:
    """Built world: policy, frozen pretrained twin, reward, sub-configs."""

    def __init__(self, cfg, skip_pretrain=False):
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.root = RngStream(self.seed)
        world = cfg["world"]
        self.kind = world["kind"]
        self.reward = _build_reward(cfg)
        es = cfg["estep"]
        self.ecfg = EStepConfig(alpha=float(es["alpha"]),
                                gamma=float(es["gamma"]),
                                particles=int(es["particles"]),
                                guidance=es["guidance"] == "on",
                                grad_mode=es["grad_mode"])
        ms = cfg["mstep"]
        self.mcfg = MStepConfig(lr=float(ms["lr"]), steps=int(ms["steps"]),
                                kl_coeff=float(ms["kl_coeff"]),
                                beta1=float(ms["beta1"]),
                                beta2=float(ms["beta2"]),
                                kl_weighting=ms["kl_weighting"],
                                gamma=float(es["gamma"]))
        if self.kind == "continuous":
            sch = world["schedule"]
            self.schedule = make_continuous_schedule(
                int(sch["steps"]), float(sch["beta_min"]), float(sch["beta_max"]))
            mix = world["mixture"]
            self.mixture = cont.GaussianMixture(mix["weights"], mix["means"],
                                                mix["stds"])
            self.policy = cont.ContinuousPolicy(
                self.schedule, self.mixture,
                residual_widths=tuple(world["residual_widths"]),
                rng=self.root.child(_INIT))
            self.pretrained = self.policy.pretrained_copy()
            self.alphabet = None
            self.enumerable = False
        else:
            sch = world["schedule"]
            self.schedule = make_discrete_schedule(int(sch["steps"]))
            L, K = int(world["length"]), int(world["vocab"])
            self.alphabet = _alphabet(world)
            den_cfg = world["denoiser"]
            if den_cfg == "tabular":
                den = disc.TabularDenoiser(L, K)
            else:
                den = disc.MlpDenoiser(L, K, self.schedule.T,
                                       widths=tuple(den_cfg.get("widths", [64])),
                                       rng=self.root.child(_INIT))
            if not skip_pretrain:
                self._pretrain(den, world)
            self.policy = disc.DiscretePolicy(self.schedule, den)
            self.pretrained = self.policy.pretrained_copy()
            self.enumerable = (K + 1) ** L <= disc.ENUM_CAP

    def _pretrain(self, den, world):
        pre = world["pretrain"]
        seqs = np.stack([np.array([self.alphabet.index(c) for c in s],
                                  dtype=np.int64)
                         for s in pre["sequences"]])
        probs = pre.get("probs")
        disc.pretrain(den, self.schedule, seqs, weights=probs,
                      epochs=int(pre["epochs"]), lr=float(pre["lr"]),
                      rng=self.root.child(_PRETRAIN),
                      batch_size=pre.get("batch_size"))

    def exact_tables(self, policy=None):
        if not self.enumerable:
            raise OracleUnavailableError("instance is not enumerable")
        pol = policy or self.policy
        qcfg = SoftQConfig(self.ecfg.alpha, self.ecfg.gamma)
        return ExactSoftTables(self.schedule, pol.denoiser, self.reward, qcfg)


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
    vals = [rec.epoch, rec.elbo, rec.estimator, rec.mean_reward,
            rec.reward_std, rec.diversity, rec.mode_coverage,
            rec.weight_entropy, rec.fallbacks, rec.loss_before,
            rec.loss_after]
    out = []
    for v in vals:
        out.append(v if isinstance(v, str) else _fmt(v))
    return ",".join(out) + "\n"


def _dump_samples(path, terminals, alphabet):
    with open(path, "w") as fh:
        for row in terminals:
            if alphabet is None:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            else:
                fh.write("".join(alphabet[int(v)] for v in row) + "\n")


def evaluate_policy(setup, policy, epoch, batch=None, report=None, rng=None):
    """One metrics row: rollout statistics plus the best available ELBO."""
    cfg = setup.cfg
    n_eval = cfg["eval"]["samples"]
    rng = rng or setup.root.child(_EVAL, epoch)
    terminals = policy.rollout(rng, n_eval).terminals
    rewards = np.atleast_1d(setup.reward.value(terminals)).astype(float)
    rec = met.ElboRecord(
        epoch=epoch, elbo=float("nan"), estimator="none",
        mean_reward=float(rewards.mean()), reward_std=float(rewards.std()),
        diversity=met.diversity(terminals), n_samples=n_eval)
    if setup.kind == "continuous":
        rec.mode_coverage = met.mode_coverage(
            terminals, setup.mixture,
            radius_scale=cfg["eval"]["mode_radius_scale"])
    searched = batch is not None and batch.searched
    if setup.enumerable:
        rec.elbo = met.elbo_exact_tabular(setup.exact_tables(policy))
        rec.estimator = "exact-tabular"
        rec.mc_error_free = True
    elif searched:
        rec.elbo = met.elbo_surrogate(policy, batch, setup.ecfg.alpha,
                                      setup.ecfg.gamma)
        rec.estimator = "surrogate-is"
    if searched:
        rec.weight_entropy = float(np.mean(batch.weight_entropy))
        rec.fallbacks = int(batch.fallbacks.sum())
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
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
    setup = Setup(cfg)
    policy, pretrained, reward = setup.policy, setup.pretrained, setup.reward
    mcfg = setup.mcfg
    opt = Adam(policy.params(), lr=mcfg.lr, beta1=mcfg.beta1, beta2=mcfg.beta2)
    start_epoch = 0
    if payload is not None:
        ckpt.restore_arrays(policy.params(), payload["params"])
        ckpt.restore_arrays(pretrained.params(), payload["pretrained_params"])
        opt.load_state_dict(payload["opt"])
        policy.version = payload["policy_version"]
        start_epoch = payload["epoch"]
        fh = open(csv_path, "a")
    else:
        fh = open(csv_path, "w")
        fh.write(",".join(CSV_FIELDS) + "\n")
    records = []
    terminals = None
    try:
        if start_epoch == 0:
            rec, terminals = evaluate_policy(setup, policy, 0)
            records.append(rec)
            fh.write(_csv_row(rec))
            fh.flush()
            _save_ckpt(os.path.join(out_dir, "ckpt_epoch0000.json"),
                       setup, policy, opt, 0, variant)
        searcher = pretrained if variant == "search_and_distill" else policy
        for e in range(start_epoch + 1, cfg["epochs"] + 1):
            if variant == "reweight":
                batch = policy.rollout(setup.root.child(_ESTEP, e),
                                       cfg["batch"])
                rewards = np.atleast_1d(
                    reward.value(batch.terminals)).astype(float)
                weights = softmax(rewards / setup.ecfg.alpha)
            else:
                # the key's trailing 0 keeps batches of up to 32 rows on the
                # random numbers of earlier releases, which searched in
                # chunks of 32
                batch = sample_posterior_batch(
                    searcher, reward, setup.ecfg,
                    setup.root.child(_ESTEP, e, 0), cfg["batch"])
                weights = None
            report = mstep_mod.update(policy, pretrained, batch, mcfg, opt,
                                      traj_weights=weights,
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
    if terminals is not None:
        _dump_samples(os.path.join(out_dir, "samples.txt"), terminals,
                      setup.alphabet)
    final_ckpt = os.path.join(out_dir, f"ckpt_epoch{cfg['epochs']:04d}.json")
    if cfg["epochs"] == 0:
        final_ckpt = os.path.join(out_dir, "ckpt_epoch0000.json")
    return {"out_dir": out_dir, "records": records, "setup": setup,
            "policy": policy, "checkpoint": final_ckpt}


def load_setup_from_checkpoint(path):
    """Rebuild the world described by a checkpoint and restore parameters."""
    payload = ckpt.load_checkpoint(path)
    cfg = payload["config"]
    if payload["config_hash"] != ckpt.config_hash(cfg):
        raise ConfigError("checkpoint config hash does not match its config")
    setup = Setup(cfg, skip_pretrain=True)
    ckpt.restore_arrays(setup.policy.params(), payload["params"])
    ckpt.restore_arrays(setup.pretrained.params(),
                        payload["pretrained_params"])
    setup.policy.version = payload["policy_version"]
    return setup, payload


def run_eval(ckpt_path, n_samples, posterior=False, seed=None, out_dir=None):
    """Rollout metrics from a checkpoint; optionally also posterior-search
    samples from the same parameters (the test-time inference mode)."""
    setup, payload = load_setup_from_checkpoint(ckpt_path)
    if n_samples < 1:
        raise ConfigError("need at least one evaluation sample")
    seed = payload["seed"] if seed is None else int(seed)
    root = RngStream(seed)
    policy, reward = setup.policy, setup.reward

    def summarize(terminals):
        rewards = np.atleast_1d(reward.value(terminals)).astype(float)
        out = {"mean_reward": float(rewards.mean()),
               "reward_std": float(rewards.std()),
               "n": int(terminals.shape[0])}
        out["diversity"] = (met.diversity(terminals)
                            if terminals.shape[0] >= 2 else None)
        if setup.kind == "continuous":
            out["mode_coverage"] = met.mode_coverage(
                terminals, setup.mixture,
                radius_scale=setup.cfg["eval"]["mode_radius_scale"])
        return out

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
    if cfg["world"]["kind"] != "discrete":
        raise OracleUnavailableError("oracle suite needs a discrete world")
    setup = Setup(cfg)
    if not setup.enumerable:
        raise OracleUnavailableError("instance exceeds the enumeration cap")
    rows = oracle_mod.run_suite(setup.policy, setup.pretrained, setup.reward,
                                setup.ecfg, repeats=repeats, seeds=seeds)
    text = oracle_mod.format_report(rows)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "oracle_report.txt"), "w") as fh:
            fh.write(text)
    return {"rows": rows, "ok": all(r["ok"] for r in rows), "report": text}
