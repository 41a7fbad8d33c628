import numpy as np
import pytest

from emdiff import discrete as disc
from emdiff.continuous import ContinuousPolicy, GaussianMixture
from emdiff.discrete import (DiscretePolicy, MlpDenoiser, TabularDenoiser,
                             mask_token, pretrain, state_index)
from emdiff.errors import ConfigError, UnreachableTransitionError
from emdiff.estep import (EStepConfig, sample_posterior_batch,
                          search_step_batch)
from emdiff.numkit import RngStream
from emdiff.oracle import resampled_next_state_tv
from emdiff.rewards import (LinearReward, MotifCountReward, Reward,
                            TokenCountReward)
from emdiff.schedules import make_continuous_schedule, make_discrete_schedule
from emdiff.softq import ExactSoftTables, SoftQConfig, x0hat_reward

MASK = mask_token(2)

CHI2_99_DF3 = 11.344866730144373


def rows(x, n):
    """n copies of one state, as a batch of search rows."""
    x = np.asarray(x)
    return np.broadcast_to(x, (n,) + x.shape).copy()


@pytest.fixture
def cont_policy():
    sched = make_continuous_schedule(8, 0.05, 0.3)
    mix = GaussianMixture([1.0], [[0.0, 0.0]], [0.8])
    return ContinuousPolicy(sched, mix, rng=RngStream(0))


def tiny_discrete(T=3):
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(2, 2)
    seqs = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
    pretrain(den, sched, seqs, weights=[0.4, 0.4, 0.1, 0.1], epochs=400,
             lr=0.05)
    return DiscretePolicy(sched, den), MotifCountReward(np.array([0, 1]), 2)


class ScaledMotif(MotifCountReward):
    def __init__(self, motif, vocab, scale):
        super().__init__(motif, vocab)
        self.scale = scale

    def value(self, x0):
        return self.scale * super().value(x0)

    def relaxed_value(self, probs):
        return self.scale * super().relaxed_value(probs)

    def relaxed_grad(self, probs):
        return self.scale * super().relaxed_grad(probs)


def test_config_validation():
    with pytest.raises(ConfigError):
        EStepConfig(alpha=0.1, particles=0)
    cfg = EStepConfig(alpha=0.1, guidance=True)
    with pytest.raises(ConfigError):
        cfg.validate_against(LinearReward([1.0]).as_black_box())


def test_zero_gradient_proposal_equals_prior(cont_policy):
    reward = LinearReward([0.0, 0.0])
    cfg = EStepConfig(alpha=0.1, gamma=0.9, particles=6, guidance=True)
    _, info = search_step_batch(cont_policy, reward,
                                rows([0.4, -0.2], 50), 5, cfg, RngStream(1))
    np.testing.assert_array_equal(info.log_proposal, info.log_prior)


def test_guidance_off_log_ratio_bit_exact_zero(cont_policy):
    reward = LinearReward([0.7, -0.3])
    cfg = EStepConfig(alpha=0.1, gamma=0.9, particles=6, guidance=False)
    _, info = search_step_batch(cont_policy, reward, rows([1.0, 0.5], 50), 4,
                                cfg, RngStream(2))
    assert np.all(info.log_proposal - info.log_prior == 0.0)


def test_continuous_shift_affine_hand_value(cont_policy):
    # single Gaussian: x0hat affine, shift = (sig2/alpha) gamma^(t-1) J^T c.
    # One particle per row, so the kept states are the proposal draws.
    c = np.array([0.5, -1.0])
    reward = LinearReward(c)
    cfg = EStepConfig(alpha=0.2, gamma=0.9, particles=1, guidance=True)
    x = np.array([0.3, 0.9])
    t = 4
    n = 2000
    sched = cont_policy.schedule
    nxt, _ = search_step_batch(cont_policy, reward, rows(x, n), t, cfg,
                               RngStream(3))
    ab = sched.alpha_bar[t]
    s2 = 0.8**2
    v = ab * s2 + 1 - ab
    slope = np.sqrt(ab) * s2 / v
    shift = sched.sig2[t] / 0.2 * 0.9 ** (t - 1) * slope * c
    emp = nxt.mean(axis=0) - cont_policy.mean(x, t)
    se = 3 * np.sqrt(sched.sig2[t] / n)
    assert np.all(np.abs(emp - shift) < se)


def test_alpha_doubling_halves_shift_exactly(cont_policy):
    from emdiff.continuous import reward_state_grad

    reward = LinearReward([0.5, -1.0])
    x = np.array([0.3, 0.9])
    t = 4
    sched = cont_policy.schedule
    _, g = reward_state_grad(cont_policy.mixture, reward, x,
                             sched.alpha_bar[t])

    def shift(alpha):
        return (sched.sig2[t] / alpha) * 0.9 ** (t - 1) * g

    np.testing.assert_array_equal(shift(0.2), 2.0 * shift(0.4))
    # end to end: same rng gives same noise, so the single-particle draws
    # differ by a constant offset equal to the shift difference
    out = {}
    for alpha in (0.2, 0.4):
        cfg = EStepConfig(alpha=alpha, gamma=0.9, particles=1, guidance=True)
        out[alpha], _ = search_step_batch(cont_policy, reward, rows(x, 3), t,
                                          cfg, RngStream(4))
    diff = out[0.2] - out[0.4]
    np.testing.assert_allclose(diff, np.broadcast_to(shift(0.4), diff.shape),
                               atol=1e-12)


def test_alpha_reward_joint_scaling_bit_exact(cont_policy):
    # doubling both alpha and the reward leaves weights bit-identical
    x = np.array([0.2, -0.6])
    outs = []
    for kappa in (1.0, 2.0):
        reward = LinearReward(kappa * np.array([0.7, 0.1]))
        cfg = EStepConfig(alpha=kappa * 0.2, gamma=0.9, particles=8,
                          guidance=True)
        outs.append(search_step_batch(cont_policy, reward, rows(x, 20), 5,
                                      cfg, RngStream(6)))
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    for field in ("log_weight_corr", "entropy"):
        np.testing.assert_array_equal(getattr(outs[0][1], field),
                                      getattr(outs[1][1], field))


def test_alpha_reward_joint_scaling_bit_exact_discrete():
    policy, _ = tiny_discrete()
    xt = np.array([MASK, MASK])
    outs = []
    for kappa in (1.0, 2.0):
        reward = ScaledMotif(np.array([0, 1]), 2, kappa)
        cfg = EStepConfig(alpha=kappa * 0.3, gamma=1.0, particles=8,
                          guidance=True)
        outs.append(search_step_batch(policy, reward, rows(xt, 20), 2, cfg,
                                      RngStream(7)))
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    for field in ("log_weight_corr", "entropy"):
        np.testing.assert_array_equal(getattr(outs[0][1], field),
                                      getattr(outs[1][1], field))


def test_discrete_guidance_doubles_target_token_odds():
    # uniform prior over {a, b, MASK} at s/t = 1/3; a log-2 logit bump on
    # token a doubles its odds against b. One particle per row, so the kept
    # states are the proposal draws.
    sched = make_discrete_schedule(3)
    den = TabularDenoiser(1, 2)
    policy = DiscretePolicy(sched, den)
    alpha = 0.4
    scale = alpha * np.log(2.0)  # gamma = 1, so coefficient is exactly log 2
    reward = ScaledTokenRewardForGuidance(0, 2, scale)
    cfg = EStepConfig(alpha=alpha, gamma=1.0, particles=1, guidance=True)
    nxt, info = search_step_batch(policy, reward, rows([MASK], 60_000), 3,
                                  cfg, RngStream(8))
    counts = np.bincount(nxt[:, 0], minlength=3)
    ratio = counts[0] / counts[1]
    assert abs(ratio - 2.0) < 0.12
    # prior untouched by guidance
    prior_rows = np.exp(info.log_prior)
    assert prior_rows.shape == (60_000,)


class ScaledTokenRewardForGuidance(TokenCountReward):
    def __init__(self, token, vocab, scale):
        super().__init__(token, vocab)
        self.scale = scale

    def relaxed_value(self, probs):
        return self.scale * super().relaxed_value(probs)

    def relaxed_grad(self, probs):
        return self.scale * super().relaxed_grad(probs)

    def value(self, x0):
        return self.scale * super().value(x0)


def test_discrete_guidance_off_matches_prior_rows():
    policy, reward = tiny_discrete()
    xt = np.array([MASK, 0])
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=12, guidance=False)
    nxt, info = search_step_batch(policy, reward, rows(xt, 40), 2, cfg,
                                  RngStream(9))
    np.testing.assert_array_equal(info.log_proposal, info.log_prior)
    assert np.all(nxt[:, 1] == 0)  # carry-over position fixed


def _each_row_distinct(tokens, K):
    """distinct_rows as if no two rows were equal: the row-by-row reference
    that evaluating each distinct row once must reproduce."""
    tokens = np.asarray(tokens, dtype=np.int64)
    n = tokens.shape[0]
    return tokens, np.arange(n), np.ones(n, dtype=np.int64)


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_distinct_row_evaluation_matches_row_by_row(kind, monkeypatch):
    # a batch full of duplicates: 60 rows drawn from three states. A table
    # lookup is row-independent, so the tabular outputs agree bit for bit;
    # a matmul over fewer rows may round differently, within 1e-12
    sched = make_discrete_schedule(4)
    if kind == "tabular":
        den = TabularDenoiser(3, 2)
        den.table[:] = RngStream(30).normal(den.table.shape)
    else:
        den = MlpDenoiser(3, 2, 4, widths=(16,), rng=RngStream(30))
    policy = DiscretePolicy(sched, den)
    reward = MotifCountReward(np.array([0, 1]), 2)
    pool = np.array([[MASK, MASK, MASK], [0, MASK, MASK], [0, 1, MASK]])
    X = pool[RngStream(31).gen.integers(0, 3, 60)]
    cfg = EStepConfig(alpha=0.5, gamma=0.9, particles=8, guidance=True)

    def outputs():
        nxt, info = search_step_batch(policy, reward, X, 3, cfg,
                                      RngStream(32))
        return [x0hat_reward(policy, reward, X, 2), nxt,
                *(v for f, v in info._asdict().items() if f != "stats"),
                policy.rollout(RngStream(33), 60).states]

    fast = outputs()
    monkeypatch.setattr(disc, "distinct_rows", _each_row_distinct)
    for got, want in zip(fast, outputs()):
        if kind == "tabular" or got.dtype != float:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_importance_weights_uniform_for_constant_reward():
    class Const(Reward):
        def __init__(self):
            super().__init__("const", "discrete")

        def value(self, x0):
            x0 = np.asarray(x0)
            return 0.7 if x0.ndim == 1 else np.full(x0.shape[0], 0.7)

        def relaxed_value(self, probs):
            p = np.asarray(probs)
            return 0.7 if p.ndim == 2 else np.full(p.shape[0], 0.7)

    policy, _ = tiny_discrete()
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=5, guidance=False)
    _, info = search_step_batch(policy, Const(), rows([MASK, MASK], 30), 2,
                                cfg, RngStream(10))
    # the kept particle's weight is exp(corr) / M
    np.testing.assert_allclose(np.exp(info.log_weight_corr) / 5, 0.2,
                               atol=1e-15)
    np.testing.assert_allclose(info.entropy, np.log(5.0), atol=1e-14)


class LogThreeOnTokenOne(Reward):
    """r = log 3 on token 1 and 0 on token 0 (length-1 sequences)."""

    def __init__(self):
        super().__init__("log3", "discrete")

    def value(self, x0):
        return np.log(3.0) * (np.asarray(x0)[..., 0] == 1)

    def relaxed_value(self, probs):
        return np.log(3.0) * np.asarray(probs)[..., 0, 1]


def test_importance_weights_hand_normalization():
    # two particles per row at t = 1 (every mask must resolve); a row that
    # drew one of each token has weights (1/4, 3/4) at alpha = 1
    policy = DiscretePolicy(make_discrete_schedule(3), TabularDenoiser(1, 2))
    cfg = EStepConfig(alpha=1.0, gamma=1.0, particles=2, guidance=False)
    nxt, info = search_step_batch(policy, LogThreeOnTokenOne(),
                                  rows([MASK], 400), 1, cfg, RngStream(11))
    w_kept = np.exp(info.log_weight_corr) / 2
    mixed = np.abs(w_kept - 0.5) > 1e-9
    assert 100 < mixed.sum() < 300
    np.testing.assert_allclose(w_kept[mixed],
                               np.where(nxt[mixed, 0] == 1, 0.75, 0.25),
                               atol=1e-12)
    h = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
    np.testing.assert_allclose(info.entropy[mixed], h, atol=1e-12)


def test_search_step_falls_back_to_uniform_on_degenerate():
    class MinusInf(Reward):
        def __init__(self):
            super().__init__("minusinf", "discrete")

        def value(self, x0):
            x0 = np.asarray(x0)
            return -np.inf if x0.ndim == 1 else np.full(x0.shape[0], -np.inf)

        def relaxed_value(self, probs):
            p = np.asarray(probs)
            return -np.inf if p.ndim == 2 else np.full(p.shape[0], -np.inf)

    policy, _ = tiny_discrete()
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=4, guidance=False)
    _, info = search_step_batch(policy, MinusInf(), rows([MASK, MASK], 20), 2,
                                cfg, RngStream(11))
    assert np.all(info.fallback)
    np.testing.assert_allclose(np.exp(info.log_weight_corr) / 4, 0.25,
                               atol=1e-15)
    np.testing.assert_allclose(info.entropy, np.log(4.0), atol=1e-15)


def test_resample_point_mass_and_chi2():
    # length-1 sequences at t = 1: every particle resolves to a token
    sched = make_discrete_schedule(3)
    # token 0 has -inf reward, so every row that drew a token-1 particle
    # keeps it; rows without one fall back
    policy = DiscretePolicy(sched, TabularDenoiser(1, 2))
    cfg = EStepConfig(alpha=1.0, gamma=1.0, particles=4, guidance=False)

    class OnlyTokenOne(Reward):
        def __init__(self):
            super().__init__("only1", "discrete")

        def value(self, x0):
            return np.where(np.asarray(x0)[..., 0] == 1, 0.0, -np.inf)

        def relaxed_value(self, probs):
            with np.errstate(divide="ignore"):
                return np.log(np.asarray(probs)[..., 0, 1])

    nxt, info = search_step_batch(policy, OnlyTokenOne(), rows([MASK], 200),
                                  1, cfg, RngStream(12))
    assert np.all(nxt[~info.fallback, 0] == 1)
    assert (~info.fallback).sum() > 150
    # uniform weights over a uniform 4-token proposal: kept tokens uniform
    policy4 = DiscretePolicy(sched, TabularDenoiser(1, 4))
    const = MotifCountReward(np.array([0, 0]), 4)  # longer than L: always 0
    flat = EStepConfig(alpha=1.0, gamma=1.0, particles=4, guidance=False)
    draws, _ = search_step_batch(policy4, const, rows([4], 20_000), 1, flat,
                                 RngStream(13))
    counts = np.bincount(draws[:, 0], minlength=4)
    chi2 = np.sum((counts - 5000.0) ** 2 / 5000.0)
    assert chi2 < CHI2_99_DF3
    # determinism
    a, _ = search_step_batch(policy4, const, rows([4], 10), 1, flat,
                             RngStream(14))
    b, _ = search_step_batch(policy4, const, rows([4], 10), 1, flat,
                             RngStream(14))
    np.testing.assert_array_equal(a, b)


def test_single_particle_no_selection_pressure():
    policy, reward = tiny_discrete()
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=1, guidance=False)
    T = policy.schedule.T
    batch = sample_posterior_batch(policy, reward, cfg, RngStream(15), 10)
    assert np.all(batch.log_weight_corr == 0.0)
    for t in range(T, 0, -1):
        _, info = search_step_batch(policy, reward, batch.states[:, T - t],
                                    t, cfg, RngStream(15).child(t))
        assert np.all(info.log_weight_corr == 0.0)
        np.testing.assert_array_equal(info.log_proposal, info.log_prior)
    # statistically a prior rollout: mean reward matches within 3 sigma
    n = 600
    search_r = sample_posterior_batch(policy, reward, cfg, RngStream(16),
                                      n).rewards
    prior_r = reward.value(policy.rollout(RngStream(17), n).terminals)
    se = np.sqrt(search_r.var() / n + prior_r.var() / n)
    assert abs(search_r.mean() - prior_r.mean()) < 3 * se + 1e-9


def test_trajectory_shape_and_reward():
    policy, reward = tiny_discrete()
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=6, guidance=True)
    T = policy.schedule.T
    batch = sample_posterior_batch(policy, reward, cfg, RngStream(18), 5)
    assert batch.states.shape == (5, T + 1, 2)
    assert np.all(batch.states[:, 0] == MASK)
    assert np.all(batch.terminals != MASK)
    np.testing.assert_array_equal(batch.rewards,
                                  reward.value(batch.terminals))
    for col in (batch.log_proposal, batch.log_weight_corr,
                batch.weight_entropy):
        assert col.shape == (5, T) and col.flags.c_contiguous
    assert batch.fallbacks.shape == (5,)
    assert batch.snapshot == policy.version


def test_resampled_matches_exact_tilted_policy_at_t1():
    # quick version of the oracle-equivalence check (full run in acceptance)
    policy, reward = tiny_discrete()
    tables = ExactSoftTables(policy.schedule, policy.denoiser, reward,
                             SoftQConfig(0.3, 1.0))
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=32, guidance=True)
    tv = resampled_next_state_tv(policy, reward, tables,
                                 np.array([MASK, MASK]), 1, cfg,
                                 RngStream(19), repeats=3000)
    assert tv < 0.08


def test_resampled_row_outside_exact_support_raises(monkeypatch):
    # at t = 1 every successor is fully unmasked, so a search step that
    # returns its masked input lies outside the exact tilted support
    policy, reward = tiny_discrete()
    tables = ExactSoftTables(policy.schedule, policy.denoiser, reward,
                             SoftQConfig(0.3, 1.0))
    monkeypatch.setattr("emdiff.oracle.search_step_batch",
                        lambda policy, reward, X, t, cfg, rng: (X, None))
    cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=4, guidance=True)
    with pytest.raises(UnreachableTransitionError):
        resampled_next_state_tv(policy, reward, tables,
                                np.array([MASK, MASK]), 1, cfg,
                                RngStream(19), repeats=10)


def test_mean_reward_nondecreasing_in_particles():
    # brute-force check on the tiny instance, averaged over seeds
    policy, reward = tiny_discrete()
    means = []
    for m in (1, 16):
        vals = []
        for s in range(20):
            cfg = EStepConfig(alpha=0.3, gamma=1.0, particles=m,
                              guidance=True)
            batch = sample_posterior_batch(policy, reward, cfg,
                                           RngStream(100 + s), 40)
            vals.append(np.mean(batch.rewards))
        means.append(np.mean(vals))
    assert means[1] >= means[0]


def test_trajectory_distribution_tightens_with_particles():
    # Product pretraining distribution (positions independent, P(a) = 0.7),
    # so the factorized denoiser is exact and the only approximation left in
    # the per-step soft-Q tilt is its Jensen gap; at alpha = 1 that gap sits
    # below the selection noise and more particles genuinely pull the
    # trajectory distribution toward the exact tilted chain. (On correlated
    # data the factorized expected reward biases the tilt and both particle
    # counts share that floor.)
    sched = make_discrete_schedule(3)
    den = TabularDenoiser(2, 2)
    seqs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    pretrain(den, sched, seqs, weights=[0.49, 0.21, 0.21, 0.09], epochs=400,
             lr=0.05)
    policy = DiscretePolicy(sched, den)
    reward = MotifCountReward(np.array([0, 1]), 2)
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(1.0, 1.0))

    # a path x_3..x_0 is indexed by its states' indices in base S
    S = tables.states.shape[0]
    place = S ** np.arange(4, dtype=np.int64)

    def path_index(paths):
        return state_index(paths, 2) @ place

    exact = np.zeros(S**4)

    def walk(tokens, t, prob, path):
        if t == 0:
            exact[path_index(np.array(path))] += prob
            return
        succ, probs = tables.tilted_policy(tokens, t)
        for row, p in zip(succ, probs):
            walk(row, t - 1, prob * p, path + [row])

    start = np.full(2, MASK, dtype=np.int64)
    walk(start, 3, 1.0, [start])

    tv = {}
    for m in (4, 64):
        cfg_m = EStepConfig(alpha=1.0, gamma=1.0, particles=m, guidance=True)
        vals = []
        for seed in range(20):
            batch = sample_posterior_batch(policy, reward, cfg_m,
                                           RngStream(500 + seed), 2000)
            ids, counts = np.unique(path_index(batch.states),
                                    return_counts=True)
            emp = np.zeros(S**4)
            emp[ids] = counts / batch.n
            vals.append(0.5 * np.sum(np.abs(exact - emp)))
        tv[m] = float(np.mean(vals))
    assert tv[64] < tv[4], tv
