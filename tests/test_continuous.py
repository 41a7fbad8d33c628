import numpy as np
import pytest

from emdiff.continuous import (ContinuousPolicy, GaussianMixture,
                               forward_marginal_sample, reward_state_grad,
                               x0hat, x0hat_jacobian)
from emdiff.errors import ConfigError
from emdiff.numkit import RngStream, log_sum_exp
from emdiff.rewards import LinearReward, ModePreferenceReward
from emdiff.schedules import make_continuous_schedule


@pytest.fixture
def schedule():
    return make_continuous_schedule(50, 0.02, 0.32)


def single_gauss(mu=(0.0, 0.0), s=1.0):
    return GaussianMixture([1.0], [list(mu)], [s])


def test_forward_marginal_no_noise_at_full_signal():
    # alpha_bar = 1 at the t = 0 convention; use a near-1 synthetic step
    sc = make_continuous_schedule(4, 1e-12, 1e-12)
    x0 = np.array([1.0, -2.0])
    out = forward_marginal_sample(sc, x0, 1, RngStream(0))
    np.testing.assert_allclose(out, x0, atol=1e-5)


def test_forward_marginal_moments(schedule):
    # 3-sigma CLT band on mean and variance at the terminal step
    x0 = np.array([2.0, -1.0])
    n = 100_000
    rng = RngStream(1)
    draws = np.stack([forward_marginal_sample(schedule, x0, schedule.T, rng)
                      for _ in range(200)])
    # vectorized draws for the big sample
    ab = schedule.alpha_bar[schedule.T]
    eps = rng.normal((n, 2))
    big = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
    mean_tol = 3 * np.sqrt((1 - ab) / n)
    assert np.all(np.abs(big.mean(axis=0) - np.sqrt(ab) * x0) < mean_tol)
    var = big.var(axis=0)
    var_tol = 3 * (1 - ab) * np.sqrt(2.0 / n)
    assert np.all(np.abs(var - (1 - ab)) < var_tol)
    assert draws.shape == (200, 2)


def test_x0hat_identity_at_t0_convention():
    mix = GaussianMixture([0.4, 0.6], [[3.0, 0.0], [-3.0, 0.0]], [0.5, 1.0])
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(x0hat(mix, x, 1.0), x, atol=1e-12)


def test_x0hat_single_component_hand_value():
    # mu=0, s=1, abar=0.5, x=(2,0): posterior mean = sqrt(0.5)*2 / 1
    mix = single_gauss()
    out = x0hat(mix, np.array([2.0, 0.0]), 0.5)
    np.testing.assert_allclose(out, [np.sqrt(0.5) * 2.0, 0.0], atol=1e-12)


def test_x0hat_single_component_monte_carlo_oracle():
    # bin x_t near (2, 0) and average the x0 that produced it
    mix = single_gauss()
    ab = 0.5
    rng = RngStream(3)
    n = 2_000_000
    x0 = rng.normal((n, 2))
    xt = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * rng.normal((n, 2))
    target = np.array([2.0, 0.0])
    sel = np.linalg.norm(xt - target, axis=1) < 0.08
    assert sel.sum() > 500
    mc = x0[sel].mean(axis=0)
    np.testing.assert_allclose(mc, x0hat(mix, target, ab), atol=0.08)


def test_x0hat_symmetry_cancels():
    mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.8, 0.8])
    out = x0hat(mix, np.zeros(2), 0.3)
    np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)


def test_x0hat_prior_limit():
    mix = GaussianMixture([0.3, 0.7], [[4.0, 1.0], [-2.0, -1.0]], [0.5, 0.9])
    out = x0hat(mix, np.array([0.4, 0.2]), 1e-8)
    assert np.linalg.norm(out - mix.mean()) < 1e-3


def test_x0hat_jacobian_matches_finite_differences():
    mix = GaussianMixture([0.3, 0.7], [[2.0, -1.0], [-1.5, 0.5]], [0.6, 1.1])
    rng = RngStream(4)
    for _ in range(10):
        x = rng.normal(2) * 2
        ab = float(rng.uniform()) * 0.9 + 0.05
        _, jac = x0hat_jacobian(mix, x, ab)
        h = 1e-6
        for b in range(2):
            dx = np.zeros(2)
            dx[b] = h
            fd = (x0hat(mix, x + dx, ab) - x0hat(mix, x - dx, ab)) / (2 * h)
            np.testing.assert_allclose(jac[:, b], fd, rtol=1e-5, atol=1e-7)


def test_reward_state_grad_affine_case():
    # single component: x0hat affine in x_t, so grad = J^T c exactly
    mix = single_gauss(s=0.8)
    c = np.array([0.7, -0.2])
    reward = LinearReward(c)
    ab = 0.4
    x = np.array([1.0, 2.0])
    v = ab * 0.8**2 + (1 - ab)
    slope = np.sqrt(ab) * 0.8**2 / v
    xhat, g = reward_state_grad(mix, reward, x, ab)
    np.testing.assert_allclose(g, slope * c, atol=1e-12)
    np.testing.assert_array_equal(xhat, x0hat(mix, x, ab))


def test_reward_state_grad_matches_fd_through_x0hat():
    mix = GaussianMixture([0.5, 0.5], [[3.0, 3.0], [-3.0, -3.0]], [0.7, 0.7])
    reward = ModePreferenceReward([1.0, 0.4], [[3.0, 3.0], [-3.0, -3.0]], 1.5)
    rng = RngStream(5)
    for _ in range(5):
        x = rng.normal(2) * 2
        ab = 0.55
        _, g = reward_state_grad(mix, reward, x, ab)
        h = 1e-6
        fd = np.zeros(2)
        for b in range(2):
            dx = np.zeros(2)
            dx[b] = h
            fd[b] = (reward.value(x0hat(mix, x + dx, ab))
                     - reward.value(x0hat(mix, x - dx, ab))) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)
    xhat_st, st = reward_state_grad(mix, reward, x, ab,
                                    mode="straight_through")
    np.testing.assert_allclose(st, reward.grad(x0hat(mix, x, ab)), atol=1e-12)
    # both modes return the same posterior mean, bit for bit
    np.testing.assert_array_equal(xhat_st, reward_state_grad(mix, reward, x,
                                                             ab)[0])


def test_policy_mean_equals_analytic_at_zero_residual(schedule):
    mix = GaussianMixture([0.5, 0.5], [[2.0, 2.0], [-2.0, -2.0]], [0.6, 0.6])
    pol = ContinuousPolicy(schedule, mix, rng=RngStream(6))
    x = np.array([0.5, -1.0])
    np.testing.assert_array_equal(pol.mean(x, 10), pol.analytic_mean(x, 10))


def test_policy_mean_at_t1_equals_x0hat(schedule):
    # direct substitution: with abar_0 = 1 the posterior-mean formula
    # collapses to x0hat at t = 1
    mix = single_gauss(s=0.7)
    pol = ContinuousPolicy(schedule, mix, rng=RngStream(7))
    x = np.array([1.2, 0.3])
    np.testing.assert_allclose(pol.analytic_mean(x, 1),
                               x0hat(mix, x, schedule.alpha_bar[1]),
                               atol=1e-12)


def test_frozen_policy_ignores_residual(schedule):
    mix = single_gauss()
    pol = ContinuousPolicy(schedule, mix, rng=RngStream(8))
    for p in pol.params():
        p += 0.5
    frozen = pol.pretrained_copy()
    x = np.array([0.4, 0.4])
    assert not np.allclose(pol.mean(x, 5), pol.analytic_mean(x, 5))
    np.testing.assert_array_equal(frozen.mean(x, 5), frozen.analytic_mean(x, 5))


def test_policy_logprob_peak_and_offset(schedule):
    mix = single_gauss()
    pol = ContinuousPolicy(schedule, mix, rng=RngStream(9))
    x = np.array([0.3, -0.8])
    t = 7
    mu = pol.mean(x, t)
    sig2 = schedule.sig2[t]
    peak = pol.logprob(x, mu, t)
    assert peak == pytest.approx(-np.log(2 * np.pi * sig2), abs=1e-12)
    # d = 1 world: unit offset at sigma = 1 costs exactly 0.5
    sc1 = make_continuous_schedule(2, 0.99999999, 0.99999999)
    mix1 = GaussianMixture([1.0], [[0.0]], [1.0])
    pol1 = ContinuousPolicy(sc1, mix1, rng=RngStream(10))
    mu1 = pol1.mean(np.array([0.2]), 1)
    base = pol1.logprob(np.array([0.2]), mu1, 1)
    off = pol1.logprob(np.array([0.2]), mu1 + np.sqrt(sc1.sig2[1]), 1)
    assert base - off == pytest.approx(0.5, abs=1e-9)


def test_policy_logprob_normalizes_gauss_hermite(schedule):
    # 1-d slice: integrate exp(logprob) over xprev with Gauss-Hermite
    mix = GaussianMixture([1.0], [[0.0]], [1.0])
    pol = ContinuousPolicy(schedule, mix, rng=RngStream(11))
    x = np.array([0.7])
    t = 3
    mu = pol.mean(x, t)
    sig = np.sqrt(schedule.sig2[t])
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    pts = mu[0] + np.sqrt(2) * sig * nodes
    logp = np.array([pol.logprob(x, np.array([p]), t) for p in pts])
    integral = np.exp(log_sum_exp(np.log(weights) + logp + nodes**2
                                  + np.log(np.sqrt(2) * sig)))
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_rollout_matches_single_gaussian_marginal(schedule):
    # moment-matching oracle: unit-variance data chain is exact
    mix = single_gauss(mu=(2.0, -1.0), s=1.0)
    pol = ContinuousPolicy(schedule, mix, rng=RngStream(12))
    n = 10_000
    X = pol.rollout(RngStream(13), n).terminals
    se_mean = 3.0 / np.sqrt(n)
    assert np.all(np.abs(X.mean(axis=0) - [2.0, -1.0]) < se_mean)
    se_var = 3.0 * np.sqrt(2.0 / n)
    assert np.all(np.abs(X.var(axis=0) - 1.0) < se_var)


def test_rollout_rejects_nonpositive_n(schedule):
    pol = ContinuousPolicy(schedule, single_gauss(), rng=RngStream(14))
    with pytest.raises(ConfigError):
        pol.rollout(RngStream(0), 0)


def test_rollout_deterministic_under_seed(schedule):
    pol = ContinuousPolicy(schedule, single_gauss(), rng=RngStream(15))
    a = pol.rollout(RngStream(44), 5).terminals
    b = pol.rollout(RngStream(44), 5).terminals
    np.testing.assert_array_equal(a, b)


def test_mixture_validation():
    with pytest.raises(ConfigError):
        GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [1.0, 1.0])
    with pytest.raises(ConfigError):
        GaussianMixture([1.0], [[0.0]], [0.0])
