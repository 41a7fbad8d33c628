"""The continuous world's kernels against their references in
continuous_reference.py, bit for bit: per-timestep constants served from
the memo (scalar abar or t, a second call, two mixtures at one abar) and
built per row, the residual input, the MLP pass, the stacked Gaussian
log-densities of a search proposal, and float diversity."""

import continuous_reference as ref
import numpy as np
import pytest

from emdiff.continuous import (ContinuousPolicy, GaussianMixture,
                               mixture_stats, x0hat_jacobian)
from emdiff.estep import EStepConfig
from emdiff.metrics import diversity
from emdiff.numkit import Mlp, RngStream
from emdiff.rewards import LinearReward
from emdiff.schedules import make_continuous_schedule

SCHED = make_continuous_schedule(20, 0.02, 0.3)
SIZES = pytest.mark.parametrize("n", [1, 2, 96, 769])
DIMS = pytest.mark.parametrize("d", [1, 2, 3, 7])


def _bits(got, want):
    """Same shapes, dtypes and bytes, array by array."""
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()


def _mixtures(d, seed):
    """Two mixtures with the same weights and means but different stds."""
    rng = RngStream(seed)
    means, stds = 2.0 * rng.normal((3, d)), 0.3 + rng.uniform(3)
    return (GaussianMixture([0.2, 0.3, 0.5], means, stds),
            GaussianMixture([0.2, 0.3, 0.5], means, 1.7 * stds))


def _policy(mixture, seed):
    """A policy whose residual is nonzero in every layer."""
    policy = ContinuousPolicy(SCHED, mixture, rng=RngStream(seed))
    last = policy.residual.weights[-1]
    last[:] = RngStream(seed, 1).normal(last.shape)
    return policy


def _rows(n, d, seed):
    rng = RngStream(seed)
    return 2.0 * rng.normal((n, d)), rng.gen.integers(1, SCHED.T + 1, n)


@SIZES
@DIMS
def test_mixture_kernels_match_reference(n, d):
    x, t_rows = _rows(n, d, 1000 * n + d)
    x3 = x[:, None, :] + np.array([0.0, 0.5])[:, None]        # (n, 2, d)
    mixtures = _mixtures(d, d)
    for t in (7, 7, 3, t_rows):    # the second 7 is served from the memo
        abar = SCHED.alpha_bar[t]
        for xt in ((x, x3) if np.ndim(t) == 0 else (x,)):
            for mix in mixtures:    # one abar, different stds
                stats = ref.mixture_stats(mix, xt, abar)
                _bits(mixture_stats(mix, xt, abar), stats)
                _bits(x0hat_jacobian(mix, xt, abar),
                      ref.x0hat_jacobian(mix, xt, abar))
                _bits(x0hat_jacobian(mix, xt, abar, stats),
                      ref.x0hat_jacobian(mix, xt, abar, stats))


@SIZES
@DIMS
def test_policy_kernels_match_reference(n, d):
    x, t_rows = _rows(n, d, 2000 * n + d)
    x3 = x[:, None, :] + np.array([0.0, 0.5])[:, None]
    for mix in _mixtures(d, d):
        policy = _policy(mix, d)
        for t in (5, 5, 1, t_rows):
            xhat = ref.mixture_stats(mix, x, SCHED.alpha_bar[t])[1]
            _bits([policy.analytic_mean(x, t)],
                  [ref.analytic_mean(policy, x, t)])
            _bits([policy.analytic_mean(x, t, xhat)],
                  [ref.analytic_mean(policy, x, t, xhat)])
            inputs = ref.residual_input(policy, x, t)
            _bits([policy.residual_input(x, t)], [inputs])
            shift = ref.mlp_forward_cache(policy.residual, inputs)[0]
            _bits([policy.mean(x, t)],
                  [ref.analytic_mean(policy, x, t)
                   + np.asarray(SCHED.sig2[t])[..., None] * shift])
        _bits([policy.residual_input(x3, 4)],
              [ref.residual_input(policy, x3, 4)])


@pytest.mark.parametrize("n", [1, 2, 96])
@DIMS
@pytest.mark.parametrize("guidance", [True, False])
def test_propose_matches_reference(n, d, guidance):
    mix = _mixtures(d, d)[1]
    policy = _policy(mix, d)
    reward = LinearReward(np.linspace(1.0, -0.5, d))
    cfg = EStepConfig(alpha=0.3, gamma=0.9, particles=4, guidance=guidance)
    X, _ = _rows(n, d, 3000 * n + d)
    t, sig2 = 6, SCHED.sig2[6]
    states, log_prop, log_prior, qhat, (table, kept) = policy.propose(
        reward, X, t, cfg, RngStream(5))

    stats = ref.mixture_stats(mix, X, SCHED.alpha_bar[t])
    shift = ref.mlp_forward_cache(policy.residual,
                                  ref.residual_input(policy, X, t))[0]
    mu_prior = ref.analytic_mean(policy, X, t, stats[1]) + sig2 * shift
    mu_prop = mu_prior
    if guidance:
        xhat, jac = ref.x0hat_jacobian(mix, X, SCHED.alpha_bar[t], stats)
        grad = np.einsum("...ab,...a->...b", jac, reward.grad(xhat))
        mu_prop = mu_prior + (sig2 / cfg.alpha) * cfg.gamma ** (t - 1) * grad
    want = (mu_prop[:, None, :]
            + np.sqrt(sig2) * RngStream(5).normal((n, cfg.particles, d)))
    resp, xhat = ref.mixture_stats(mix, want, SCHED.alpha_bar[t - 1])
    _bits([states, log_prop, log_prior, qhat, *table],
          [want, ref.gauss_logpdf(want, mu_prop[:, None, :], sig2),
           ref.gauss_logpdf(want, mu_prior[:, None, :], sig2),
           reward.value(xhat), resp.reshape(n * cfg.particles, -1),
           xhat.reshape(n * cfg.particles, d)])


@SIZES
@DIMS
def test_mlp_forward_matches_reference(n, d):
    net = Mlp([d + 1, 16, 16, d], rng=RngStream(d))
    x = RngStream(n).normal((n, d + 1))
    out, (acts, single) = net.forward_cache(x)
    want, want_acts = ref.mlp_forward_cache(net, x)
    assert not single
    _bits([out, *acts], [want, *want_acts])
    _bits([net.forward(x[0])], [ref.mlp_forward_cache(net, x[:1])[0][0]])


@pytest.mark.parametrize("n", [2, 96, 769])
@DIMS
def test_float_diversity_matches_reference(n, d):
    x = RngStream(n, d).normal((n, d)) * np.logspace(-3, 3, d)
    _bits([diversity(x)], [ref.diversity(x)])
