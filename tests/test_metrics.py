import numpy as np
import pytest

from emdiff.continuous import GaussianMixture
from emdiff.discrete import DiscretePolicy, TabularDenoiser, pretrain
from emdiff.errors import ConfigError
from emdiff.estep import EStepConfig, sample_posterior_batch
from emdiff.metrics import (diversity, elbo_by_path_enumeration,
                            elbo_exact_tabular, elbo_surrogate, levenshtein,
                            mode_coverage, ngram_frequency_correlation)
from emdiff.numkit import RngStream
from emdiff.rewards import MotifCountReward, Reward
from emdiff.schedules import make_discrete_schedule
from emdiff.softq import ExactSoftTables, SoftQConfig
from emdiff.trajectory import TrajectoryBatch


def tiny_policy(T=3, skew=True):
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(2, 2)
    seqs = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
    w = [0.4, 0.4, 0.1, 0.1] if skew else None
    pretrain(den, sched, seqs, weights=w, epochs=400, lr=0.05)
    return DiscretePolicy(sched, den), MotifCountReward(np.array([0, 1]), 2)


class ConstReward(Reward):
    def __init__(self, c):
        super().__init__("const", "discrete")
        self.c = c

    def value(self, x0):
        x0 = np.asarray(x0)
        return self.c if x0.ndim == 1 else np.full(x0.shape[0], self.c)

    def relaxed_value(self, probs):
        p = np.asarray(probs)
        return self.c if p.ndim == 2 else np.full(p.shape[0], self.c)


def test_levenshtein_cases():
    assert levenshtein(np.array([0, 1]), np.array([0, 1])) == 0
    assert levenshtein(np.array([0, 1, 1]), np.array([0, 0, 1])) == 1
    # dynamic-programming oracle check: "AB" vs "BA" needs two edits
    assert levenshtein(np.array([0, 1]), np.array([1, 0])) == 2
    assert levenshtein(np.array([0, 1, 0]), np.array([1, 0])) == 1


def test_diversity_identical_and_single_edit():
    seqs = np.array([[0, 1, 0], [0, 1, 0], [0, 1, 0]])
    assert diversity(seqs) == 0.0
    seqs2 = np.array([[0, 1, 0], [0, 0, 0]])
    assert diversity(seqs2) == 1.0


def test_diversity_euclidean_scale_covariant_and_permutation_invariant():
    rng = RngStream(0)
    X = rng.normal((6, 3))
    d1 = diversity(X)
    assert diversity(3.0 * X) == pytest.approx(3.0 * d1, rel=1e-12)
    perm = X[::-1]
    assert diversity(perm) == pytest.approx(d1, rel=1e-12)
    with pytest.raises(ConfigError):
        diversity(X[:1])


def test_mode_coverage_counts_hit_components():
    mix = GaussianMixture([0.25] * 4,
                          [[4, 4], [-4, 4], [-4, -4], [4, -4]],
                          [0.5] * 4)
    all_means = np.array(mix.means)
    assert mode_coverage(all_means, mix) == 1.0
    one = np.tile(np.array([[4.0, 4.0]]), (10, 1))
    assert mode_coverage(one, mix) == 0.25
    none = np.zeros((5, 2))
    assert mode_coverage(none, mix) == 0.0


def test_mode_coverage_pretrained_rollouts():
    from emdiff.continuous import ContinuousPolicy
    from emdiff.schedules import make_continuous_schedule

    mix = GaussianMixture([0.25] * 4,
                          [[4, 4], [-4, 4], [-4, -4], [4, -4]],
                          [0.7] * 4)
    sched = make_continuous_schedule(50, 0.02, 0.32)
    pol = ContinuousPolicy(sched, mix, rng=RngStream(1))
    X = pol.rollout(RngStream(2), 1000).terminals
    assert mode_coverage(X, mix, radius_scale=2.0) == 1.0


def test_elbo_gamma1_matches_path_enumeration():
    policy, reward = tiny_policy()
    alpha = 0.4
    tables = ExactSoftTables(policy.schedule, policy.denoiser, reward,
                             SoftQConfig(alpha, 1.0))
    dp = elbo_exact_tabular(tables)
    paths = elbo_by_path_enumeration(policy, tables, alpha)
    assert abs(dp - paths) < 1e-10


def test_elbo_policy_equals_tilted_drops_kl_term():
    # when p_theta is the exact tilted policy the log-ratio vanishes, so the
    # ELBO is the expected discounted reward over alpha; verify at gamma=1
    # by comparing against the reward expectation under the tilted chain
    policy, reward = tiny_policy()
    alpha = 0.5
    tables = ExactSoftTables(policy.schedule, policy.denoiser, reward,
                             SoftQConfig(alpha, 1.0))
    # expected reward under the tilted chain, by direct path enumeration
    def walk(s_ix, t, weight):
        if t == 0:
            return weight * tables.reward_vec[s_ix]
        sl = tables.edges(t, s_ix)
        log_eta = (tables.logp[t][sl]
                   + tables.q[t][sl] / alpha - tables.logZ[t, s_ix])
        return sum(walk(int(u), t - 1, weight * np.exp(le))
                   for u, le in zip(tables.dst[t][sl], log_eta))

    start = tables.state_ix(np.array([2, 2]))
    expected_reward = walk(start, policy.schedule.T, 1.0)
    # KL(eta || eta) = 0 exactly, so J = E_eta[r]/alpha; realize "p = eta*"
    # through the identity J = V(x_T)/alpha at gamma = 1 as well
    v_over_alpha = tables.V[policy.schedule.T, start] / alpha
    j_at_prior = elbo_exact_tabular(tables)
    assert j_at_prior <= v_over_alpha + 1e-12
    assert expected_reward / alpha >= j_at_prior - 1e-12


def test_elbo_constant_reward_reduces_to_constant():
    # constant reward c, p = prior, alpha = 1, gamma = 1: tilt is flat so
    # eta = prior, log-ratio terms vanish, ELBO = c
    policy, _ = tiny_policy()
    c = 0.9
    tables = ExactSoftTables(policy.schedule, policy.denoiser,
                             ConstReward(c), SoftQConfig(1.0, 1.0))
    val = elbo_exact_tabular(tables)
    assert val == pytest.approx(c, abs=1e-10)


def test_surrogate_matches_exact_on_tabular_instance():
    policy, reward = tiny_policy()
    alpha, gamma = 0.5, 1.0
    tables = ExactSoftTables(policy.schedule, policy.denoiser, reward,
                             SoftQConfig(alpha, gamma))
    exact = elbo_exact_tabular(tables)
    cfg = EStepConfig(alpha=alpha, gamma=gamma, particles=64, guidance=True)
    batch = sample_posterior_batch(policy, reward, cfg, RngStream(5), 10_000)
    sur = elbo_surrogate(policy, batch, alpha, gamma)
    assert abs(sur - exact) <= 0.05 * abs(exact)


def test_surrogate_prior_policy_single_particle_reduces_to_reward_term():
    policy, reward = tiny_policy()
    alpha, gamma = 0.5, 0.9
    cfg = EStepConfig(alpha=alpha, gamma=gamma, particles=1, guidance=False)
    batch = sample_posterior_batch(policy, reward, cfg, RngStream(6), 50)
    sur = elbo_surrogate(policy, batch, alpha, gamma)
    expect = np.mean(gamma ** (batch.T - 1) * batch.rewards / alpha)
    assert sur == pytest.approx(expect, abs=1e-12)


def test_surrogate_matches_per_transition_reference():
    from emdiff.continuous import ContinuousPolicy
    from emdiff.rewards import LinearReward
    from emdiff.schedules import make_continuous_schedule

    mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.7, 0.7])
    cont = ContinuousPolicy(make_continuous_schedule(6, 0.05, 0.35), mix,
                            residual_widths=(6,), rng=RngStream(3))
    for p in cont.params():
        p += 0.1 * RngStream(4).normal(p.shape)
    disc_policy, motif = tiny_policy()
    alpha, gamma = 0.5, 0.9
    cfg = EStepConfig(alpha=alpha, gamma=gamma, particles=4, guidance=True)
    for policy, reward in ((cont, LinearReward([1.0, 0.0])),
                           (disc_policy, motif)):
        batch = sample_posterior_batch(policy, reward, cfg, RngStream(9), 6)
        T = batch.T
        ref = 0.0
        for i, states in enumerate(batch.states):
            acc = gamma ** (T - 1) * batch.rewards[i] / alpha
            for j in range(T):
                t = T - j
                log_p = policy.logprob(states[j], states[j + 1], t)
                log_eta = batch.log_proposal[i, j] + batch.log_weight_corr[i, j]
                acc += gamma ** (T - t) * (log_p - log_eta)
            ref += acc / batch.n
        sur = elbo_surrogate(policy, batch, alpha, gamma)
        assert sur == pytest.approx(ref, abs=1e-12)


def test_surrogate_needs_batch():
    policy, _ = tiny_policy()
    with pytest.raises(ConfigError):
        elbo_surrogate(policy, TrajectoryBatch(
            states=np.zeros((0, 4, 2), dtype=np.int64)), 0.5, 1.0)
    rollouts = policy.rollout(RngStream(8), 4)  # no search logs
    with pytest.raises(ConfigError):
        elbo_surrogate(policy, rollouts, 0.5, 1.0)


def test_ngram_correlation_self_is_one():
    rng = RngStream(7)
    seqs = rng.gen.integers(0, 2, size=(50, 8))
    c = ngram_frequency_correlation(seqs, seqs, K=2, n=2)
    assert c == pytest.approx(1.0, abs=1e-12)
    other = 1 - seqs
    c2 = ngram_frequency_correlation(seqs, other, K=2, n=1)
    assert c2 < 1.0
