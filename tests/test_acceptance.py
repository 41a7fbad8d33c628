"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria are checked at their stated tolerances on the two reference
instances: the enumerable discrete world (length 2, vocabulary 2, 3 steps,
motif reward, skewed pretraining distribution) and the 2-d four-mode
mixture with a reward equal on three modes and lower on the fourth.
"""

import copy
import os
import shutil
import time

import numpy as np
import pytest

from emdiff import runner
from emdiff.continuous import (ContinuousPolicy, GaussianMixture,
                               forward_marginal_sample)
from emdiff.discrete import (DiscretePolicy, TabularDenoiser, mask_token,
                             subs_position_probs)
from emdiff.estep import EStepConfig, sample_posterior_batch
from emdiff.metrics import elbo_by_path_enumeration, elbo_exact_tabular
from emdiff.mstep import MStepConfig, loss_and_grads
from emdiff.numkit import Mlp, RngStream
from emdiff.oracle import resampled_next_state_tv, tv_trend_over_particles
from emdiff.rewards import (LinearReward, ModePreferenceReward,
                            MotifCountReward, NegSquaredDistReward,
                            make_reward)
from emdiff.schedules import make_continuous_schedule, make_discrete_schedule
from emdiff.softq import ExactSoftTables, SoftQConfig, check_bounds

MASK = mask_token(2)

TINY = {
    "world": {"kind": "discrete", "length": 2, "vocab": 2,
              "alphabet": "AB", "schedule": {"steps": 3},
              "pretrain": {"sequences": ["AA", "BB", "AB", "BA"],
                           "probs": [0.4, 0.4, 0.1, 0.1], "epochs": 400,
                           "lr": 0.05}},
    "reward": {"name": "motif_count", "motif": "AB"},
    "estep": {"alpha": 0.5, "gamma": 1.0, "particles": 10},
    "mstep": {"lr": 0.05, "steps": 2},
    "epochs": 50, "batch": 24, "seed": 0,
    "eval": {"samples": 256}, "checkpoint_every": 50,
}

MIX2D = {
    "world": {"kind": "continuous",
              "mixture": {"weights": [0.25] * 4,
                          "means": [[4, 4], [-4, 4], [-4, -4], [4, -4]],
                          "stds": [0.7] * 4},
              "schedule": {"steps": 50, "beta_min": 0.02, "beta_max": 0.32},
              "residual_widths": [16, 16]},
    "reward": {"name": "mode_preference", "amps": [1.0, 1.0, 1.0, 0.2],
               "centers": [[4, 4], [-4, 4], [-4, -4], [4, -4]], "tau": 1.4},
    "estep": {"alpha": 0.2, "gamma": 0.9, "particles": 8},
    "mstep": {"lr": 5e-3, "steps": 2},
    "epochs": 50, "batch": 96, "seed": 0,
    "eval": {"samples": 400}, "checkpoint_every": 50,
}


def tiny_setup():
    return runner.Setup(runner.resolve_config(copy.deepcopy(TINY)))


@pytest.fixture(scope="session")
def tiny():
    s = tiny_setup()
    tables = s.exact_tables(s.pretrained)
    return s, tables


@pytest.fixture(scope="session")
def tabular_runs(tmp_path_factory):
    """Criterion 5 workhorse: 50-epoch runs x 3 variants x 20 seeds."""
    base = tmp_path_factory.mktemp("tabular_runs")
    series = {}
    ckpt0 = {}
    t_seed0 = None
    for variant in ("dav", "search_and_distill", "reweight"):
        rows = []
        for seed in range(20):
            cfg = copy.deepcopy(TINY)
            cfg["seed"] = seed
            t0 = time.monotonic()
            out = runner.run_align(cfg, str(base / f"{variant}_{seed}"),
                                   variant=variant)
            dt = time.monotonic() - t0
            if variant == "dav" and seed == 0:
                ckpt0["dav"] = out["checkpoint"]
                t_seed0 = dt
            rows.append([r.elbo for r in out["records"]])
        series[variant] = np.mean(np.array(rows), axis=0)
    return {"series": series, "ckpt0": ckpt0, "seed0_time": t_seed0}


@pytest.fixture(scope="session")
def mixture_runs(tmp_path_factory):
    """Criterion 6 workhorse: 50-epoch continuous runs, plus the fixed
    large-M posterior reference on the pretrained model."""
    base = tmp_path_factory.mktemp("mixture_runs")
    dav = runner.run_align(copy.deepcopy(MIX2D), str(base / "dav"))
    klcfg = copy.deepcopy(MIX2D)
    klcfg["mstep"]["kl_coeff"] = 0.01
    kl = runner.run_align(klcfg, str(base / "kl"))
    s = runner.Setup(runner.resolve_config(copy.deepcopy(MIX2D)))
    ref_cfg = EStepConfig(alpha=s.ecfg.alpha, gamma=s.ecfg.gamma,
                          particles=256, guidance=True)
    trs = sample_posterior_batch(s.pretrained, s.reward, ref_cfg,
                                 RngStream(777), 400)
    ref = float(np.mean(trs.rewards))
    return {"dav": dav, "kl": kl, "reference": ref}


def test_criterion_01_oracle_equivalence(tiny):
    t_start = time.monotonic()
    s, tables = tiny
    xt = np.array([MASK, MASK])
    cfg64 = EStepConfig(alpha=0.5, gamma=1.0, particles=64, guidance=True)
    tv = resampled_next_state_tv(s.pretrained, s.reward, tables, xt, 1,
                                 cfg64, RngStream(101), 10_000)
    assert tv < 0.05

    grid, means = tv_trend_over_particles(s.pretrained, s.reward, tables,
                                          xt, 1, s.ecfg, seeds=20,
                                          repeats=2000, seed0=300)
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    assert inversions <= 1, (grid, means)

    elapsed = time.monotonic() - t_start
    assert elapsed < 60
    print(f"ACCEPTANCE 1 oracle-equivalence: PASS "
          f"(tv@M64={tv:.4f}, trend={['%.4f' % m for m in means]}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_soft_bellman_and_bounds(tiny):
    t_start = time.monotonic()
    s, _ = tiny
    for gamma in (0.8, 1.0):
        tables = ExactSoftTables(s.schedule, s.pretrained.denoiser, s.reward,
                                 SoftQConfig(0.5, gamma))
        resid = tables.bellman_residual()
        assert resid <= 1e-10
        assert np.all(tables.V[0] == 0.0)
        for s_ix in range(tables.states.shape[0]):
            sl = tables.edges(1, s_ix)
            r = tables.reward_vec[tables.dst[1][sl]]
            np.testing.assert_array_equal(tables.q[1][sl], r)
        report = check_bounds(tables)
        assert report["ok"], report["violations"]
    elapsed = time.monotonic() - t_start
    assert elapsed < 10
    print(f"ACCEPTANCE 2 soft-bellman-and-bounds: PASS "
          f"(residual={resid:.2e}, bounds ok at gamma 0.8 and 1.0, "
          f"{elapsed:.1f}s)")


def test_criterion_03_discounted_elbo_reduction(tiny):
    t_start = time.monotonic()
    s, _ = tiny
    tables = ExactSoftTables(s.schedule, s.pretrained.denoiser, s.reward,
                             SoftQConfig(0.5, 1.0))
    dp = elbo_exact_tabular(tables)
    paths = elbo_by_path_enumeration(s.pretrained, tables, 0.5)
    assert abs(dp - paths) <= 1e-10
    elapsed = time.monotonic() - t_start
    assert elapsed < 5
    print(f"ACCEPTANCE 3 discounted-elbo-reduction: PASS "
          f"(|dp-paths|={abs(dp - paths):.2e}, {elapsed:.1f}s)")


def _fd_params(params, f, h=1e-5):
    worst = 0.0
    base_grads = f(None)
    for gi, p in enumerate(params):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            up = f("loss")
            p[ix] = old - h
            dn = f("loss")
            p[ix] = old
            fd = (up - dn) / (2 * h)
            g = base_grads[gi][ix]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    return worst


def test_criterion_04_gradient_suite(tiny):
    t_start = time.monotonic()
    worst = 0.0
    s_base, _ = tiny
    pristine = s_base.policy.denoiser.table.copy()
    for seed in range(20):
        rng = RngStream(seed)
        # MLP backward
        net = Mlp([3, 6, 2], rng=rng)
        x = rng.normal(3)
        up = rng.normal(2)
        grads, _ = net.backward(net.forward_cache(x)[1], up)

        def f_mlp(mode):
            if mode is None:
                return grads
            return float(up @ net.forward(x))

        worst = max(worst, _fd_params(net.params(), f_mlp))

        # reward gradients
        for r in (LinearReward(rng.normal(2)),
                  NegSquaredDistReward(rng.normal(2)),
                  ModePreferenceReward([1.0, 0.4], rng.normal((2, 2)) * 2,
                                       1.3)):
            pt = rng.normal(2)
            g = r.grad(pt)
            for j in range(2):
                e = np.zeros(2)
                e[j] = 1e-5
                fd = (r.value(pt + e) - r.value(pt - e)) / 2e-5
                worst = max(worst,
                            abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8))
        rr = MotifCountReward(np.array([0, 1]), 2)
        p = rng.uniform((4, 3)) + 0.05
        g = rr.relaxed_grad(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + 1e-5
            u_ = float(rr.relaxed_value(p))
            p[ix] = old - 1e-5
            d_ = float(rr.relaxed_value(p))
            p[ix] = old
            fd = (u_ - d_) / 2e-5
            worst = max(worst, abs(fd - g[ix]) / max(abs(fd), abs(g[ix]),
                                                     1e-8))

        # total losses, both worlds (policy log-prob gradients included)
        sched = make_continuous_schedule(5, 0.05, 0.35)
        mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]],
                              [0.7, 0.7])
        pol = ContinuousPolicy(sched, mix, residual_widths=(5,), rng=rng)
        pre = pol.pretrained_copy()
        for prm in pol.params():
            prm += 0.1 * rng.normal(prm.shape)
        ecfg = EStepConfig(alpha=0.3, gamma=0.9, particles=3, guidance=True)
        batch = sample_posterior_batch(pol, LinearReward([1.0, 0.0]), ecfg,
                                       RngStream(seed, 1), 2)
        mcfg = MStepConfig(kl_coeff=0.4)
        _, _, _, grads_c = loss_and_grads(pol, pre, batch, mcfg)

        def f_cont(mode):
            if mode is None:
                return grads_c
            return loss_and_grads(pol, pre, batch, mcfg)[0]

        worst = max(worst, _fd_params(pol.params(), f_cont))

        s = s_base
        s.policy.denoiser.table[...] = pristine + 0.2 * rng.normal(
            pristine.shape)
        batch_d = sample_posterior_batch(s.policy, s.reward, s.ecfg,
                                         RngStream(seed, 2), 3)
        _, _, _, grads_d = loss_and_grads(s.policy, s.pretrained, batch_d,
                                          mcfg)

        def f_disc(mode):
            if mode is None:
                return grads_d
            return loss_and_grads(s.policy, s.pretrained, batch_d, mcfg)[0]

        worst = max(worst, _fd_params(s.policy.params(), f_disc))
    s_base.policy.denoiser.table[...] = pristine
    assert worst < 1e-4
    elapsed = time.monotonic() - t_start
    assert elapsed < 30
    print(f"ACCEPTANCE 4 gradient-suite: PASS "
          f"(worst rel err={worst:.2e}, 20 seeds, {elapsed:.1f}s)")


def test_criterion_05_elbo_improvement(tabular_runs):
    series = tabular_runs["series"]
    dav = series["dav"]
    drops = [(i, dav[i + 1] - dav[i]) for i in range(len(dav) - 1)
             if dav[i + 1] < dav[i]]
    assert len(drops) <= 2, drops
    assert all(abs(d) < 0.05 for _, d in drops), drops
    assert dav[-1] >= series["search_and_distill"][-1]
    assert dav[-1] >= series["reweight"][-1]
    assert tabular_runs["seed0_time"] < 120  # the laptop budget
    print(f"ACCEPTANCE 5 elbo-improvement: PASS "
          f"(dav {dav[0]:.3f}->{dav[-1]:.3f}, drops={len(drops)}, "
          f"sd={series['search_and_distill'][-1]:.3f}, "
          f"rw={series['reweight'][-1]:.3f})")


def test_criterion_06_reward_vs_diversity(mixture_runs):
    dav_rec = mixture_runs["dav"]["records"][-1]
    kl_rec = mixture_runs["kl"]["records"][-1]
    ref = mixture_runs["reference"]
    assert dav_rec.mean_reward >= 0.9 * ref, (dav_rec.mean_reward, ref)
    assert dav_rec.mode_coverage >= 0.75
    assert kl_rec.mode_coverage >= dav_rec.mode_coverage
    print(f"ACCEPTANCE 6 reward-vs-diversity: PASS "
          f"(dav reward={dav_rec.mean_reward:.3f} vs 0.9*ref="
          f"{0.9 * ref:.3f}, coverage dav={dav_rec.mode_coverage:.2f} "
          f"kl={kl_rec.mode_coverage:.2f})")


def _posterior_vs_amortized(ckpt_path, n=64, seeds=20):
    post, amor = [], []
    for i in range(seeds):
        res = runner.run_eval(ckpt_path, n, posterior=True, seed=2000 + i)
        post.append(res["posterior"]["mean_reward"])
        amor.append(res["amortized"]["mean_reward"])
    return float(np.mean(post)), float(np.mean(amor))


def test_criterion_07_posterior_beats_amortized(tabular_runs, mixture_runs):
    p_d, a_d = _posterior_vs_amortized(tabular_runs["ckpt0"]["dav"])
    assert p_d >= a_d, (p_d, a_d)
    p_c, a_c = _posterior_vs_amortized(mixture_runs["dav"]["checkpoint"])
    assert p_c >= a_c, (p_c, a_c)
    print(f"ACCEPTANCE 7 posterior-beats-amortized: PASS "
          f"(discrete {p_d:.3f}>={a_d:.3f}, continuous {p_c:.3f}>={a_c:.3f})")


def test_criterion_08_black_box_pathway(tiny, tmp_path):
    s, tables = tiny
    xt = np.array([MASK, MASK])
    cfg64 = EStepConfig(alpha=0.5, gamma=1.0, particles=64, guidance=False)
    black_box = make_reward(dict(TINY["reward"], differentiable=False),
                            vocab=TINY["world"]["vocab"],
                            alphabet=TINY["world"]["alphabet"])
    tv = resampled_next_state_tv(s.pretrained, black_box, tables, xt, 1,
                                 cfg64, RngStream(888), 10_000)
    assert tv < 0.05
    cfg = copy.deepcopy(TINY)
    cfg["reward"]["differentiable"] = False
    cfg["estep"]["guidance"] = "off"
    out = runner.run_align(cfg, str(tmp_path / "bb"))
    elbos = [r.elbo for r in out["records"]]
    assert elbos[-1] > elbos[0]
    print(f"ACCEPTANCE 8 black-box-pathway: PASS "
          f"(tv={tv:.4f}, elbo {elbos[0]:.3f}->{elbos[-1]:.3f})")


def test_criterion_09_process_checks():
    # continuous forward marginals: mean and variance at 3 sigma, 1e5 draws
    sched = make_continuous_schedule(50, 0.02, 0.32)
    x0 = np.array([2.0, -1.0])
    n = 100_000
    X = forward_marginal_sample(sched, np.tile(x0, (n, 1)), 37, RngStream(1))
    ab = sched.alpha_bar[37]
    mean_err = np.abs(X.mean(axis=0) - np.sqrt(ab) * x0)
    assert np.all(mean_err < 3 * np.sqrt((1 - ab) / n))
    var_err = np.abs(X.var(axis=0) - (1 - ab))
    assert np.all(var_err < 3 * (1 - ab) * np.sqrt(2.0 / n))

    # discrete carry-over: 1e5 reverse steps, zero violations
    sched_d = make_discrete_schedule(4)
    den = TabularDenoiser(4, 2)
    den.table[:] = RngStream(2).normal(den.table.shape)
    policy = DiscretePolicy(sched_d, den)
    trs = policy.rollout(RngStream(3), 25_000)
    steps = 0
    violations = 0
    X_t, X_prev, _ = trs.transitions()
    for xt, xprev in zip(X_t[:8000], X_prev[:8000]):  # 2000 trajectories
        observed = xt != mask_token(2)
        violations += int(np.any(xprev[observed] != xt[observed]))
        violations += int(np.any((xprev == mask_token(2)) & observed))
    # bulk check vectorized over all trajectories
    S = [trs.states[:, i] for i in range(5)]
    for i in range(4):
        observed = S[i] != mask_token(2)
        violations += int(np.any(S[i + 1][observed] != S[i][observed]))
        steps += S[i].size
    assert steps >= 100_000
    assert violations == 0

    # substitution rows sum to one for every (s, t) pair on a 5-step grid
    sched5 = make_discrete_schedule(5)
    den5 = TabularDenoiser(2, 2)
    den5.table[:] = RngStream(4).normal(den5.table.shape)
    worst = 0.0
    for t in range(1, 6):
        for s_ in range(t):
            rows = subs_position_probs(sched5, den5, np.array([MASK, 0]),
                                       s_, t)
            worst = max(worst, float(np.max(np.abs(rows.sum(-1) - 1.0))))
    assert worst <= 1e-12
    print(f"ACCEPTANCE 9 process-checks: PASS "
          f"(marginals 3sigma ok, {steps} carry-over steps clean, "
          f"row-sum err={worst:.1e})")


def test_criterion_10_determinism(tmp_path):
    for name, cfg in (("tiny", TINY), ("mix", MIX2D)):
        short = copy.deepcopy(cfg)
        short["epochs"] = 4
        short["batch"] = min(short["batch"], 16)
        short["eval"]["samples"] = 32
        short["checkpoint_every"] = 2
        a = runner.run_align(copy.deepcopy(short), str(tmp_path / f"{name}_a"))
        runner.run_align(copy.deepcopy(short), str(tmp_path / f"{name}_b"))
        csv_a = open(tmp_path / f"{name}_a" / "metrics.csv", "rb").read()
        csv_b = open(tmp_path / f"{name}_b" / "metrics.csv", "rb").read()
        assert csv_a == csv_b
        # interrupted-and-resumed equals uninterrupted, byte for byte
        half = copy.deepcopy(short)
        half["epochs"] = 2
        runner.run_align(half, str(tmp_path / f"{name}_h"))
        resume_dir = str(tmp_path / f"{name}_r")
        shutil.copytree(str(tmp_path / f"{name}_h"), resume_dir)
        runner.run_align(copy.deepcopy(short), resume_dir,
                         resume=os.path.join(resume_dir,
                                             "ckpt_epoch0002.json"))
        csv_r = open(os.path.join(resume_dir, "metrics.csv"), "rb").read()
        assert csv_r == csv_a
    print("ACCEPTANCE 10 determinism: PASS "
          "(byte-identical reruns and bit-exact resume, both worlds)")
