import numpy as np
import pytest

from emdiff import continuous as cont_mod
from emdiff.continuous import ContinuousPolicy, GaussianMixture
from emdiff.discrete import (DiscretePolicy, MlpDenoiser, TabularDenoiser,
                             mask_token, pretrain)
from emdiff.errors import (ConfigError, RunAbortedError,
                           UnreachableTransitionError)
from emdiff.estep import EStepConfig, sample_posterior_batch
from emdiff.metrics import elbo_surrogate
from emdiff.mstep import MStepConfig, loss_and_grads, update
from emdiff.numkit import Mlp, RngStream
from emdiff.optim import Adam
from emdiff.rewards import LinearReward, MotifCountReward
from emdiff.schedules import make_continuous_schedule, make_discrete_schedule
from emdiff.trajectory import TrajectoryBatch

MASK = mask_token(2)


def cont_setup(seed=0, T=6):
    sched = make_continuous_schedule(T, 0.05, 0.35)
    mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.7, 0.7])
    policy = ContinuousPolicy(sched, mix, residual_widths=(6,),
                              rng=RngStream(seed))
    pretrained = policy.pretrained_copy()
    reward = LinearReward([1.0, 0.0])
    return policy, pretrained, reward


def disc_setup(seed=0, T=3):
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(2, 2)
    seqs = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
    pretrain(den, sched, seqs, weights=[0.4, 0.4, 0.1, 0.1], epochs=300,
             lr=0.05)
    policy = DiscretePolicy(sched, den)
    return policy, policy.pretrained_copy(), MotifCountReward(np.array([0, 1]), 2)


def make_batch(policy, reward, n, seed=1, alpha=0.3, gamma=1.0, particles=4,
               guidance=True):
    cfg = EStepConfig(alpha=alpha, gamma=gamma, particles=particles,
                      guidance=guidance)
    return sample_posterior_batch(policy, reward, cfg, RngStream(seed), n)


def fd_check(policy, pretrained, batch, mcfg, h=1e-5):
    total, _, _, grads = loss_and_grads(policy, pretrained, batch, mcfg)
    worst = 0.0
    for gi, p in enumerate(policy.params()):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            up, *_ = loss_and_grads(policy, pretrained, batch, mcfg)
            p[ix] = old - h
            dn, *_ = loss_and_grads(policy, pretrained, batch, mcfg)
            p[ix] = old
            fd = (up - dn) / (2 * h)
            g = grads[gi][ix]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    return worst


@pytest.mark.parametrize("seed", range(3))
def test_continuous_loss_gradients_fd(seed):
    policy, pretrained, reward = cont_setup(seed)
    rng = np.random.default_rng(seed)
    for p in policy.params():
        p += 0.1 * rng.standard_normal(p.shape)
    batch = make_batch(policy, reward, 3, seed=seed + 10, gamma=0.9)
    mcfg = MStepConfig(kl_coeff=0.5, kl_weighting="discounted", gamma=0.9)
    assert fd_check(policy, pretrained, batch, mcfg) < 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_discrete_loss_gradients_fd(seed):
    policy, pretrained, reward = disc_setup(seed)
    rng = np.random.default_rng(seed)
    policy.denoiser.table += 0.2 * rng.standard_normal(policy.denoiser.table.shape)
    batch = make_batch(policy, reward, 4, seed=seed + 20)
    mcfg = MStepConfig(kl_coeff=0.25)
    assert fd_check(policy, pretrained, batch, mcfg) < 1e-4


def test_zero_kl_coeff_equals_pure_mle():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 4)
    t0, nll0, _, g0 = loss_and_grads(policy, pretrained, batch,
                                     MStepConfig(kl_coeff=0.0))
    assert t0 == nll0
    t1, nll1, kl1, _ = loss_and_grads(policy, pretrained, batch,
                                      MStepConfig(kl_coeff=2.0))
    assert nll1 == nll0
    assert t1 == nll1 + 2.0 * kl1


def test_kl_vanishes_at_pretrained_anchor():
    for setup in (cont_setup, disc_setup):
        policy, pretrained, reward = setup()
        batch = make_batch(policy, reward, 3)
        _, nll, kl, _ = loss_and_grads(policy, pretrained, batch,
                                       MStepConfig(kl_coeff=1.0))
        assert kl == pytest.approx(0.0, abs=1e-12)


def test_gaussian_kl_hand_value():
    # mean gap of one sigma in one coordinate costs exactly 0.5 per step
    policy, pretrained, reward = cont_setup()
    sched = policy.schedule
    # bias-only residual: raw output (1/sig_t, 0) would vary per t; instead
    # check a single-transition batch at fixed t
    t = 3
    sig = np.sqrt(sched.sig2[t])
    net = policy.residual
    for p in net.params():
        p[...] = 0.0
    net.biases[-1][...] = 0.0
    # out = W h + b with zero W: set bias so sig2 * raw = (sig, 0)
    net.biases[-1][0] = 1.0 / sig
    x_t = np.array([0.5, -0.5])
    x_prev = policy.analytic_mean(x_t, t)
    # a trajectory of t steps, so that one of its steps is at timestep t
    tr = TrajectoryBatch(states=np.array([[x_t] + [x_prev] * t]))
    _, _, kl, _ = loss_and_grads(policy, pretrained, tr,
                                 MStepConfig(kl_coeff=1.0))
    # only the step at timestep t has the bias shift; earlier steps have the
    # same residual bias, so subtract their contributions analytically
    expected = 0.0
    for step_t in range(1, t + 1):
        gap = policy.schedule.sig2[step_t] * np.array([1.0 / sig, 0.0])
        expected += 0.5 * gap @ gap / policy.schedule.sig2[step_t]
    assert kl == pytest.approx(expected, abs=1e-12)
    # the step at t itself contributes exactly 0.5
    gap_t = policy.schedule.sig2[t] * np.array([1.0 / sig, 0.0])
    assert 0.5 * gap_t @ gap_t / policy.schedule.sig2[t] == pytest.approx(0.5)


def test_score_function_mean_zero_on_prior_rollouts():
    # rollouts from the pretrained policy scored under identical parameters:
    # the residual gradient is mean zero; check each coordinate within 3 SE
    policy, pretrained, reward = cont_setup()
    n = 800
    trs = policy.rollout(RngStream(33), n)
    mcfg = MStepConfig()
    per_traj = []
    for states in trs.states:
        one = TrajectoryBatch(states=states[None])
        _, _, _, grads = loss_and_grads(policy, pretrained, one, mcfg)
        per_traj.append(np.concatenate([g.ravel() for g in grads]))
    G = np.stack(per_traj)
    mean = G.mean(axis=0)
    se = G.std(axis=0) / np.sqrt(n)
    # a few coordinates may graze the boundary; require 99% inside 3 SE
    inside = np.abs(mean) <= 3 * se + 1e-12
    assert inside.mean() > 0.95


def test_loss_decreases_over_fixed_batch():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 8)
    mcfg = MStepConfig(lr=0.05, steps=1)
    opt = Adam(policy.params(), lr=0.05)
    losses = []
    for _ in range(50):
        total, *_ = loss_and_grads(policy, pretrained, batch, mcfg)
        losses.append(total)
        _, _, _, grads = loss_and_grads(policy, pretrained, batch, mcfg)
        opt.step(grads)
    assert losses[-1] < losses[0]
    assert losses[-1] < min(losses[:5])


def test_anchor_dominance_pins_policy_to_pretrained():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 6)
    mcfg = MStepConfig(lr=0.05, steps=100, kl_coeff=1e6)
    opt = Adam(policy.params(), lr=mcfg.lr)
    update(policy, pretrained, batch, mcfg, opt,
           expected_snapshot=policy.version - 0)
    _, _, kl, _ = loss_and_grads(policy, pretrained, batch,
                                 MStepConfig(kl_coeff=1.0))
    n_steps = batch.T
    assert kl / n_steps < 1e-4


def test_update_reports_and_lr_zero_is_identity():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 5)
    before = [p.copy() for p in policy.params()]
    mcfg = MStepConfig(lr=0.0, steps=3)
    opt = Adam(policy.params(), lr=0.0)
    report = update(policy, pretrained, batch, mcfg, opt)
    for p, b in zip(policy.params(), before):
        np.testing.assert_array_equal(p, b)
    assert report["loss_before"] == pytest.approx(report["loss_after"])
    assert policy.version == 3


@pytest.mark.parametrize("setup", [cont_setup, disc_setup])
@pytest.mark.parametrize("kl_coeff", [0.0, 0.3])
def test_loss_without_grads_is_the_same_loss(setup, kl_coeff):
    # the loss update() reports after its last step skips the backward
    # pass; its value and pieces are the full call's, bit for bit, and its
    # log-likelihoods are the updated policy's, which the surrogate ELBO
    # reads in place of a logprob pass of its own
    policy, pretrained, reward = setup()
    batch = make_batch(policy, reward, 6)
    mcfg = MStepConfig(lr=0.02, steps=2, kl_coeff=kl_coeff)
    report = update(policy, pretrained, batch, mcfg,
                    Adam(policy.params(), lr=mcfg.lr))
    total, nll, kl, grads = loss_and_grads(policy, pretrained, batch, mcfg)
    assert grads is not None
    assert (report["loss_after"], report["nll"], report["kl"]) == \
        (total, nll, kl)
    np.testing.assert_array_equal(report["log_p"],
                                  policy.logprob(*batch.transitions()))


@pytest.mark.parametrize("setup", [cont_setup, disc_setup])
@pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0, 0.0],
                                     [np.inf, 1.0, 1.0, 1.0],
                                     [np.nan, 1.0, 1.0, 1.0]])
def test_bad_trajectory_weights_fail_before_any_step(setup, weights):
    policy, pretrained, reward = setup()
    batch = make_batch(policy, reward, 4)
    before = [p.copy() for p in policy.params()]
    batch.weights = weights
    with pytest.raises(ConfigError):
        update(policy, pretrained, batch, MStepConfig(lr=0.1, steps=2),
               Adam(policy.params(), lr=0.1))
    assert policy.version == 0
    for p, b in zip(policy.params(), before):
        np.testing.assert_array_equal(p, b)


class PassCounter:
    """Counts calls of the MLP's forward and backward passes and of the
    mixture-statistics pass."""

    def __init__(self, monkeypatch):
        self.counts = {"forward": 0, "backward": 0, "mixture_stats": 0}
        for owner, attr, key in ((Mlp, "forward_cache", "forward"),
                                 (Mlp, "backward", "backward"),
                                 (cont_mod, "mixture_stats",
                                  "mixture_stats")):
            monkeypatch.setattr(owner, attr, self._spy(getattr(owner, attr),
                                                       key))

    def _spy(self, fn, key):
        def spy(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return spy

    def take(self):
        out = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return out


def mlp_setup(seed=0, T=3, L=3, K=3):
    sched = make_discrete_schedule(T)
    den = MlpDenoiser(L, K, T, widths=(8,), rng=RngStream(seed))
    policy = DiscretePolicy(sched, den)
    reward = MotifCountReward(np.array([0, 1]), K)
    return policy, policy.pretrained_copy(), reward


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_each_distill_pass_runs_each_network_once(monkeypatch, steps):
    # S steps: one forward and backward each, one forward for the report
    # and one of the twin; the surrogate ELBO then evaluates no network
    policy, pretrained, reward = mlp_setup()
    batch = make_batch(policy, reward, 5, alpha=1.0)
    mcfg = MStepConfig(lr=0.01, steps=steps, kl_coeff=0.1)
    passes = PassCounter(monkeypatch)
    report = update(policy, pretrained, batch, mcfg,
                    Adam(policy.params(), lr=mcfg.lr))
    assert passes.take() == {"forward": steps + 2, "backward": steps,
                             "mixture_stats": 0}
    elbo_surrogate(batch, report["log_p"], 1.0, 1.0)
    assert passes.take() == {"forward": 0, "backward": 0, "mixture_stats": 0}

    cpolicy, cpretrained, creward = cont_setup()
    cbatch = make_batch(cpolicy, creward, 3, gamma=0.9)
    passes.take()
    report = update(cpolicy, cpretrained, cbatch, mcfg,
                    Adam(cpolicy.params(), lr=mcfg.lr))
    assert passes.take() == {"forward": steps + 1, "backward": steps,
                             "mixture_stats": 1}
    elbo_surrogate(cbatch, report["log_p"], 1.0, 0.9)
    assert passes.take() == {"forward": 0, "backward": 0, "mixture_stats": 0}

    # pretraining: one forward and one backward per epoch
    den = policy.denoiser
    pretrain(den, policy.schedule, np.array([[0, 1, 2], [2, 1, 0]]),
             epochs=4, lr=0.01, rng=RngStream(2), batch_size=4)
    assert passes.take() == {"forward": 4, "backward": 4, "mixture_stats": 0}


def test_update_rejects_stale_snapshot():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 3)
    batch.snapshot = 99
    mcfg = MStepConfig()
    with pytest.raises(ConfigError):
        update(policy, pretrained, batch, mcfg, Adam(policy.params()))


def test_update_aborts_on_nonfinite():
    policy, pretrained, reward = cont_setup()
    batch = make_batch(policy, reward, 3, gamma=0.9)
    batch.states[0, 2, 0] = np.nan
    with pytest.raises(RunAbortedError):
        update(policy, pretrained, batch, MStepConfig(),
               Adam(policy.params()))


def test_discrete_batch_carry_over_violation_is_data_error():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 3)
    # flip an unmasked token mid-trajectory
    batch.states[0, -2, 0] = 0
    batch.states[0, -1, 0] = 1
    with pytest.raises(UnreachableTransitionError):
        loss_and_grads(policy, pretrained, batch, MStepConfig())


def test_reweight_style_trajectory_weights():
    policy, pretrained, reward = disc_setup()
    batch = make_batch(policy, reward, 4)
    w = np.array([1.0, 0.0, 0.0, 0.0])
    first = TrajectoryBatch(states=batch.states[:1])
    t_all, *_ = loss_and_grads(policy, pretrained, first, MStepConfig())
    batch.weights = w
    t_w, *_ = loss_and_grads(policy, pretrained, batch, MStepConfig())
    assert t_w == pytest.approx(t_all, abs=1e-12)
    batch.weights = np.array([0.5, 0.5])
    with pytest.raises(ConfigError):
        loss_and_grads(policy, pretrained, batch, MStepConfig())


def test_training_loss_decreases_within_most_epochs():
    # default-config sanity statistics on the tabular task
    policy, pretrained, reward = disc_setup()
    mcfg = MStepConfig(lr=0.05, steps=2)
    opt = Adam(policy.params(), lr=mcfg.lr)
    ecfg = EStepConfig(alpha=0.3, gamma=1.0, particles=8, guidance=True)
    wins = 0
    epochs = 20
    for e in range(epochs):
        batch = sample_posterior_batch(policy, reward, ecfg,
                                       RngStream(50).child(e), 24)
        report = update(policy, pretrained, batch, mcfg, opt)
        wins += report["loss_after"] < report["loss_before"]
    assert wins >= 0.9 * epochs


@pytest.mark.parametrize("world", ["continuous", "discrete"])
def test_columnar_loss_matches_per_transition_reference(world):
    # the batched NLL against a loop of single-transition log-probabilities
    rng = np.random.default_rng(7)
    if world == "continuous":
        policy, pretrained, reward = cont_setup(3)
        for p in policy.params():
            p += 0.1 * rng.standard_normal(p.shape)
    else:
        policy, pretrained, reward = disc_setup(3)
        policy.denoiser.table += 0.2 * rng.standard_normal(
            policy.denoiser.table.shape)
    batch = make_batch(policy, reward, 5, seed=40, gamma=0.9)
    total, nll, kl, _ = loss_and_grads(policy, pretrained, batch,
                                       MStepConfig())
    ref = 0.0
    for states in batch.states:
        for i in range(batch.T):
            ref -= policy.logprob(states[i], states[i + 1],
                                  batch.T - i) / batch.n
    assert nll == pytest.approx(ref, abs=1e-12)
    assert total == nll
