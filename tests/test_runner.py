import json
import os
import shutil

import numpy as np
import pytest

from emdiff import checkpoint, cli, runner
from emdiff.checkpoint import load_checkpoint, save_checkpoint
from emdiff.errors import ConfigError, OracleUnavailableError, RunAbortedError


def tiny_cfg(**over):
    cfg = {
        "world": {"kind": "discrete", "length": 2, "vocab": 2,
                  "schedule": {"steps": 3},
                  "pretrain": {"sequences": ["AA", "BB", "AB", "BA"],
                               "probs": [0.4, 0.4, 0.1, 0.1],
                               "epochs": 200}},
        "reward": {"name": "motif_count", "motif": "AB"},
        "estep": {"alpha": 0.5, "gamma": 1.0, "particles": 6},
        "mstep": {"lr": 0.05, "steps": 2},
        "epochs": 4, "batch": 12, "seed": 3,
        "eval": {"samples": 48}, "checkpoint_every": 2,
    }
    cfg.update(over)
    return cfg


def cont_cfg(**over):
    cfg = {
        "world": {"kind": "continuous",
                  "mixture": {"weights": [0.5, 0.5],
                              "means": [[3, 0], [-3, 0]], "stds": [0.7, 0.7]},
                  "schedule": {"steps": 12, "beta_min": 0.05,
                               "beta_max": 0.35},
                  "residual_widths": [8]},
        "reward": {"name": "mode_preference", "amps": [1.0, 0.3],
                   "centers": [[3, 0], [-3, 0]], "tau": 1.5},
        "estep": {"alpha": 0.2, "gamma": 0.9, "particles": 4},
        "mstep": {"lr": 3e-3, "steps": 1},
        "epochs": 3, "batch": 8, "seed": 5,
        "eval": {"samples": 32}, "checkpoint_every": 2,
    }
    cfg.update(over)
    return cfg


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_config_rejections_before_compute():
    with pytest.raises(ConfigError):
        runner.resolve_config({"world": {"kind": "nope"}})
    with pytest.raises(ConfigError):
        runner.resolve_config(tiny_cfg(reward={"name": "linear",
                                               "coeffs": [1.0, 0.0]}))
    with pytest.raises(ConfigError):
        runner.resolve_config(tiny_cfg(
            reward={"name": "motif_count", "motif": "AB",
                    "differentiable": False}))
    bad = tiny_cfg()
    bad["epochs"] = -1
    with pytest.raises(ConfigError):
        runner.resolve_config(bad)
    bad2 = tiny_cfg()
    bad2["world"] = {"kind": "discrete", "length": 9, "vocab": 9,
                     "schedule": {"steps": 3},
                     "pretrain": {"sequences": ["A" * 9]}}
    with pytest.raises(ConfigError):
        runner.resolve_config(bad2)
    # black-box reward is fine once guidance is off
    ok = tiny_cfg(reward={"name": "motif_count", "motif": "AB",
                          "differentiable": False},
                  estep={"alpha": 0.5, "gamma": 1.0, "particles": 6,
                         "guidance": "off"})
    runner.resolve_config(ok)


@pytest.mark.parametrize("over", [
    {"checkpoint_every": 0},
    {"checkpoint_every": -2},
    {"probs": [-0.1, 0.5, 0.3, 0.3]},
    {"probs": [0.5, 0.5]},
    {"probs": [0.4, float("nan"), 0.1, 0.1]},
    {"probs": [0.0, 0.0, 0.0, 0.0]},
    {"sequences": ["AA", "BB", "AC", "BA"]},
    {"sequences": ["AAA", "BBB", "ABA", "BAB"]},
], ids=["ckpt-zero", "ckpt-negative", "negative-probs", "short-probs",
        "nan-probs", "zero-probs", "unknown-char", "wrong-length"])
def test_bad_run_settings_rejected_before_compute(over):
    cfg = tiny_cfg()
    if "checkpoint_every" in over:
        cfg.update(over)
    else:
        cfg["world"]["pretrain"].update(over)
    with pytest.raises(ConfigError):
        runner.resolve_config(cfg)



def _set(cfg, path, value):
    *parents, key = path.split(".")
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return cfg


BAD_CONFIGS = [
    # unknown keys, at every level of the schema
    (tiny_cfg, "epoch", 3),
    (tiny_cfg, "world.lenght", 2),
    (cont_cfg, "world.schedule.beta_mn", 0.1),
    (tiny_cfg, "world.pretrain.epoch", 10),
    (tiny_cfg, "world.denoiser", {"kind": "mlp", "width": [8]}),
    (tiny_cfg, "reward.motiv", "AB"),
    (tiny_cfg, "estep.particle", 64),
    (cont_cfg, "mstep.kl_coef", 0.1),
    (tiny_cfg, "eval.sample", 10),
    # keys of the other world kind or of another reward
    (tiny_cfg, "world.residual_widths", [8]),
    (cont_cfg, "reward.motif", "AB"),
    # wrong types
    (tiny_cfg, "mstep.lr", "0.05"),
    (tiny_cfg, "batch", 2.7),
    (tiny_cfg, "batch", True),
    (tiny_cfg, "eval.samples", "300"),
    (cont_cfg, "world.mixture.stds", [0.7, "0.7"]),
    (tiny_cfg, "reward.differentiable", "no"),
    # values out of range
    (cont_cfg, "estep.alpha", -1),
    (tiny_cfg, "estep.gamma", 1.5),
    (tiny_cfg, "estep.particles", 0),
    (cont_cfg, "mstep.kl_coeff", -1),
    (tiny_cfg, "mstep.lr", -1),
    (cont_cfg, "estep.grad_mode", "bogus"),
    (tiny_cfg, "mstep.kl_weighting", "bogus"),
    (tiny_cfg, "world.denoiser", "bogus"),
    (tiny_cfg, "world.denoiser", {"kind": "cnn"}),
    (tiny_cfg, "world.alphabet", "ABC"),
    (tiny_cfg, "reward.name", "linear"),
    (cont_cfg, "reward", {"name": "motif_count", "motif": "AB"}),
    (cont_cfg, "world.schedule.steps", 1),
    # continuous rewards of another dimension than the mixture's
    (cont_cfg, "reward", {"name": "linear", "coeffs": [1, 0, 0]}),
    (cont_cfg, "reward", {"name": "neg_sq_dist", "target": [1.0]}),
    (cont_cfg, "reward.centers", [[3, 0, 0], [-3, 0, 0]]),
    # ragged nested lists
    (cont_cfg, "world.mixture.means", [[3, 0], [-3]]),
    (cont_cfg, "reward.centers", [[3, 0], [-3]]),
    # a token string of more than one character, a mixture weight of zero
    (tiny_cfg, "reward", {"name": "token_count", "token": "AB"}),
    (cont_cfg, "world.mixture.weights", [1.0, 0.0]),
]


@pytest.mark.parametrize(
    "cfg_fn, path, value", BAD_CONFIGS,
    ids=[f"{fn.__name__}-{path}={value!r}" for fn, path, value in BAD_CONFIGS])
def test_bad_config_rejected_by_resolve_config(cfg_fn, path, value):
    with pytest.raises(ConfigError):
        runner.resolve_config(_set(cfg_fn(), path, value))


@pytest.mark.parametrize("name, digest", [
    ("tiny_discrete.json",
     "1b798c31e64aa58c971cade7d869b7c08b75fbd0107e369129ec4f0ea40ff77e"),
    ("mixture2d.json",
     "5685e487f545483ea7fc4238c7aa4a8b94f0907468a5beef46897376a12f72cc"),
])
def test_shipped_config_hash_is_pinned(name, digest):
    # checkpoints of the shipped configs resume only while this holds
    path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    with open(path) as fh:
        cfg = runner.resolve_config(json.load(fh))
    assert checkpoint.config_hash(cfg) == digest


@pytest.mark.parametrize("path, value", [
    ("estep.alpha", -1), ("eval.samples", "300"), ("world.denoiser", "bogus"),
])
def test_cli_rejects_bad_config_before_writing(tmp_path, path, value):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump(_set(tiny_cfg(), path, value), fh)
    out = tmp_path / "run"
    assert cli.main(["align", "--config", cfg_path, "--out", str(out)]) == 2
    assert not (out / "config.json").exists()


def test_cli_rejects_ragged_means_before_writing(tmp_path):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump(_set(cont_cfg(), "world.mixture.means", [[3, 0], [-3]]), fh)
    out = tmp_path / "run"
    assert cli.main(["align", "--config", cfg_path, "--out", str(out)]) == 2
    assert not (out / "config.json").exists()


def test_run_align_outputs_and_rows(tmp_path):
    out = runner.run_align(tiny_cfg(), str(tmp_path / "run"))
    assert os.path.exists(out["checkpoint"])
    csv = read(str(tmp_path / "run" / "metrics.csv")).decode()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("epoch,elbo,elbo_kind,")
    assert len(lines) == 2 + 4  # header + epoch0 + 4 epochs
    assert os.path.exists(str(tmp_path / "run" / "samples.txt"))
    assert os.path.exists(str(tmp_path / "run" / "config.json"))
    recs = out["records"]
    assert recs[0].estimator == "exact-tabular"
    # sample dump is alphabet-coded, one sequence per line
    dump = read(str(tmp_path / "run" / "samples.txt")).decode().strip()
    assert all(set(line) <= set("AB") for line in dump.split("\n"))


def test_epochs_zero_emits_only_pretrained_row(tmp_path):
    out = runner.run_align(tiny_cfg(epochs=0), str(tmp_path / "run0"))
    csv = read(str(tmp_path / "run0" / "metrics.csv")).decode()
    assert len(csv.strip().split("\n")) == 2
    assert os.path.exists(out["checkpoint"])


@pytest.mark.parametrize("cfg_fn", [tiny_cfg, cont_cfg])
def test_full_run_determinism(cfg_fn, tmp_path):
    a = runner.run_align(cfg_fn(), str(tmp_path / "a"))
    b = runner.run_align(cfg_fn(), str(tmp_path / "b"))
    assert read(str(tmp_path / "a" / "metrics.csv")) == \
        read(str(tmp_path / "b" / "metrics.csv"))
    assert read(str(tmp_path / "a" / "samples.txt")) == \
        read(str(tmp_path / "b" / "samples.txt"))


@pytest.mark.parametrize("cfg_fn", [tiny_cfg, cont_cfg])
def test_checkpoint_resume_bit_exact(cfg_fn, tmp_path):
    full_dir = str(tmp_path / "full")
    runner.run_align(cfg_fn(), full_dir)
    # interrupted run: stop at the epoch-2 checkpoint, then resume in a copy
    part_dir = str(tmp_path / "part")
    cfg_short = cfg_fn()
    cfg_short["epochs"] = 2
    runner.run_align(cfg_short, part_dir)
    resume_dir = str(tmp_path / "resumed")
    shutil.copytree(part_dir, resume_dir)
    # drop rows after epoch 2 is exactly what the short run wrote; now
    # continue with the full config from the saved checkpoint
    runner.run_align(cfg_fn(), resume_dir,
                     resume=os.path.join(resume_dir, "ckpt_epoch0002.json"))
    assert read(os.path.join(full_dir, "metrics.csv")) == \
        read(os.path.join(resume_dir, "metrics.csv"))


def test_resume_of_finished_run_drops_later_rows(tmp_path):
    # resuming a finished run from a mid-run checkpoint recomputes the rows
    # after it instead of appending a second copy
    full_dir = str(tmp_path / "full")
    runner.run_align(tiny_cfg(), full_dir)
    resume_dir = str(tmp_path / "again")
    shutil.copytree(full_dir, resume_dir)
    runner.run_align(tiny_cfg(), resume_dir,
                     resume=os.path.join(resume_dir, "ckpt_epoch0002.json"))
    csv = read(os.path.join(resume_dir, "metrics.csv"))
    epochs = [line.split(b",")[0] for line in csv.splitlines()[1:]]
    assert epochs == [b"0", b"1", b"2", b"3", b"4"]
    assert csv == read(os.path.join(full_dir, "metrics.csv"))


@pytest.mark.parametrize("cfg_fn", [tiny_cfg, cont_cfg])
def test_resume_from_final_checkpoint_rewrites_samples(cfg_fn, tmp_path):
    # a run that stopped after its last checkpoint but before samples.txt
    # was written: resuming runs no epoch, and must still write the samples
    # an uninterrupted run leaves
    full_dir = str(tmp_path / "full")
    runner.run_align(cfg_fn(epochs=6), full_dir)
    resume_dir = str(tmp_path / "crashed")
    shutil.copytree(full_dir, resume_dir)
    os.remove(os.path.join(resume_dir, "samples.txt"))
    out = runner.run_align(
        cfg_fn(epochs=6), resume_dir,
        resume=os.path.join(resume_dir, "ckpt_epoch0006.json"))
    assert out["records"] == []
    for name in ("samples.txt", "metrics.csv", "config.json"):
        assert read(os.path.join(full_dir, name)) == \
            read(os.path.join(resume_dir, name))


def test_resume_rejects_variant_mismatch(tmp_path, monkeypatch):
    out = runner.run_align(tiny_cfg(epochs=2), str(tmp_path / "dav"))

    def no_compute(*args, **kwargs):
        raise AssertionError("setup started before the variant check")

    monkeypatch.setattr(runner, "Setup", no_compute)
    with pytest.raises(ConfigError, match="variant"):
        runner.run_align(tiny_cfg(epochs=3), str(tmp_path / "dav"),
                         variant="reweight", resume=out["checkpoint"])


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    out = runner.run_align(tiny_cfg(epochs=0), str(tmp_path / "w"))
    path = out["checkpoint"]
    before = load_checkpoint(path)

    class Torn:
        """A file whose write stops halfway with a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open",
                        lambda p, mode="r": Torn(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, cfg=before["config"], variant="dav", epoch=9,
                        seed=0, policy_version=9, params=before["params"],
                        pretrained_params=before["pretrained_params"],
                        opt_state=before["opt"])
    monkeypatch.undo()
    after = load_checkpoint(path)
    assert after["epoch"] == before["epoch"]
    for a, b in zip(after["params"], before["params"]):
        np.testing.assert_array_equal(a, b)
    assert not os.path.exists(path + ".tmp")


def test_nonfinite_residual_aborts_with_abort_file(tmp_path):
    run_dir = str(tmp_path / "nan")
    out = runner.run_align(cont_cfg(epochs=2), run_dir)
    good = read(out["checkpoint"])
    payload = load_checkpoint(out["checkpoint"])
    payload["params"][0][0, 0] = np.nan
    save_checkpoint(out["checkpoint"], cfg=payload["config"],
                    variant=payload["variant"], epoch=payload["epoch"],
                    seed=payload["seed"],
                    policy_version=payload["policy_version"],
                    params=payload["params"],
                    pretrained_params=payload["pretrained_params"],
                    opt_state=payload["opt"])
    with pytest.raises(RunAbortedError):
        runner.run_align(cont_cfg(), run_dir, resume=out["checkpoint"])
    with open(os.path.join(run_dir, "abort.txt")) as fh:
        assert "non-finite" in fh.read()
    # resuming from the last good checkpoint and finishing clears the mark
    with open(out["checkpoint"], "wb") as fh:
        fh.write(good)
    done = runner.run_align(cont_cfg(), run_dir, resume=out["checkpoint"])
    assert [r.epoch for r in done["records"]] == [3]
    assert not os.path.exists(os.path.join(run_dir, "abort.txt"))


def test_resume_rejects_config_mismatch(tmp_path):
    out = runner.run_align(tiny_cfg(), str(tmp_path / "r"))
    other = tiny_cfg(seed=99)
    with pytest.raises(ConfigError):
        runner.run_align(other, str(tmp_path / "r2"),
                         resume=out["checkpoint"])


def test_checkpoint_roundtrip_restores_arrays(tmp_path):
    out = runner.run_align(tiny_cfg(), str(tmp_path / "c"))
    payload = load_checkpoint(out["checkpoint"])
    setup, payload2 = runner.load_setup_from_checkpoint(out["checkpoint"])
    for a, b in zip(setup.policy.params(), payload["params"]):
        np.testing.assert_array_equal(a, b)
    assert payload2["epoch"] == 4


def test_checkpoint_version_field_checked(tmp_path):
    out = runner.run_align(tiny_cfg(epochs=0), str(tmp_path / "v"))
    with open(out["checkpoint"]) as fh:
        payload = json.load(fh)
    payload["format_version"] = 99
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ConfigError):
        runner.run_eval(bad, 4)


def test_eval_matches_epoch0_row_exactly(tmp_path):
    out = runner.run_align(tiny_cfg(epochs=0), str(tmp_path / "e"))
    rec0 = out["records"][0]
    res = runner.run_eval(out["checkpoint"],
                          n_samples=tiny_cfg()["eval"]["samples"])
    assert res["amortized"]["mean_reward"] == rec0.mean_reward
    assert res["amortized"]["diversity"] == rec0.diversity


def test_eval_posterior_mode_and_single_sample(tmp_path):
    out = runner.run_align(tiny_cfg(epochs=2), str(tmp_path / "p"))
    res = runner.run_eval(out["checkpoint"], 16, posterior=True,
                          out_dir=str(tmp_path / "p_eval"))
    assert "posterior" in res
    assert os.path.exists(str(tmp_path / "p_eval" / "samples_posterior.txt"))
    one = runner.run_eval(out["checkpoint"], 1)
    assert one["amortized"]["diversity"] is None


def test_search_and_distill_epoch1_identical_to_dav(tmp_path):
    a = runner.run_align(tiny_cfg(epochs=1), str(tmp_path / "dav"))
    b = runner.run_align(tiny_cfg(epochs=1), str(tmp_path / "sd"),
                         variant="search_and_distill")
    ra = read(str(tmp_path / "dav" / "metrics.csv"))
    rb = read(str(tmp_path / "sd" / "metrics.csv"))
    assert ra == rb


def test_reweight_variant_runs_and_records(tmp_path):
    out = runner.run_align(tiny_cfg(epochs=3), str(tmp_path / "rw"),
                           variant="reweight")
    assert len(out["records"]) == 4
    # reweight has no search logs, so entropy stays nan but elbo is exact
    assert out["records"][-1].estimator == "exact-tabular"


def test_reweight_constant_reward_stays_near_pretrained(tmp_path):
    # constant reward makes exponentiated weights uniform: pure
    # self-distillation with a mean-zero score gradient. The adaptive
    # optimizer still random-walks raw parameters by +-lr, so the null is
    # gauged on the induced distribution: its drift must be small and well
    # below a directed run's drift at identical settings.
    from emdiff.discrete import x0_probs

    def dist_drift(reward):
        cfg = tiny_cfg(epochs=10, reward=reward)
        out = runner.run_align(cfg, str(tmp_path / reward["motif"]),
                               variant="reweight")
        setup, _ = runner.load_setup_from_checkpoint(out["checkpoint"])
        mm = np.array([2, 2])
        p_new = x0_probs(setup.policy.denoiser, mm, 2)
        p_old = x0_probs(setup.pretrained.denoiser, mm, 2)
        return 0.5 * np.abs(p_new - p_old).sum(axis=-1).max()

    # motif longer than the sequence: reward identically zero
    null = dist_drift({"name": "motif_count", "motif": "ABA"})
    directed = dist_drift({"name": "motif_count", "motif": "AB"})
    assert null < 0.2
    assert null < 0.6 * directed


def test_oracle_runner_passes_and_writes_report(tmp_path):
    res = runner.run_oracle(tiny_cfg(), str(tmp_path / "oracle"),
                            repeats=800, seeds=2)
    assert res["ok"], res["report"]
    report = read(str(tmp_path / "oracle" / "oracle_report.txt")).decode()
    assert "PASS overall" in report
    assert "resampled_tv_at_final_step" in report


def test_oracle_rejects_continuous_world(tmp_path):
    with pytest.raises(OracleUnavailableError):
        runner.run_oracle(cont_cfg(), str(tmp_path / "no"))


def test_cli_align_eval_oracle(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(tiny_cfg(epochs=2), fh)
    rc = cli.main(["align", "--config", cfg_path,
                   "--out", str(tmp_path / "cli_run")])
    assert rc == 0
    ckpt = str(tmp_path / "cli_run" / "ckpt_epoch0002.json")
    rc = cli.main(["eval", "--checkpoint", ckpt, "--samples", "8",
                   "--posterior"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "posterior" in out
    rc = cli.main(["ablate", "--config", cfg_path, "--variant", "reweight",
                   "--out", str(tmp_path / "cli_ab")])
    assert rc == 0
    # config error surfaces as exit code 2
    with open(cfg_path, "w") as fh:
        json.dump({"world": {"kind": "nope"}}, fh)
    rc = cli.main(["align", "--config", cfg_path,
                   "--out", str(tmp_path / "cli_bad")])
    assert rc == 2


def test_cli_seed_override_changes_run(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(tiny_cfg(epochs=1), fh)
    cli.main(["align", "--config", cfg_path, "--out", str(tmp_path / "s1"),
              "--seed", "11"])
    cli.main(["align", "--config", cfg_path, "--out", str(tmp_path / "s2"),
              "--seed", "12"])
    assert read(str(tmp_path / "s1" / "metrics.csv")) != \
        read(str(tmp_path / "s2" / "metrics.csv"))
