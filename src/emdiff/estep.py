"""Posterior exploration: guided proposals, importance weighting, resampling.

One search step draws M candidate next-states from a proposal (the current
policy, optionally tilted by the reward gradient), weights them by
prior/proposal ratio times exp(qhat/alpha), and keeps one by categorical
resampling. Chaining steps from the terminal noise state yields approximate
samples from the reward-tilted posterior over denoising trajectories.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import continuous as cont
from . import discrete as disc
from .errors import ConfigError
from .numkit import log_sum_exp
from .softq import SoftQConfig, approx_soft_q, x0hat_reward
from .trajectory import TrajectoryBatch


@dataclass
class EStepConfig:
    alpha: float
    gamma: float = 1.0
    particles: int = 4
    guidance: bool = True
    grad_mode: str = "exact"

    def __post_init__(self):
        if self.particles < 1:
            raise ConfigError("particle count must be >= 1")
        if self.grad_mode not in ("exact", "straight_through"):
            raise ConfigError(f"unknown guidance gradient mode {self.grad_mode!r}")
        self.softq = SoftQConfig(self.alpha, self.gamma)

    def validate_against(self, reward):
        if self.guidance and not reward.differentiable:
            raise ConfigError(
                "gradient guidance requires a differentiable reward; "
                "set guidance off for black-box rewards")


class StepInfo(NamedTuple):
    """Per-row bookkeeping of one search step, at the kept candidate."""
    log_prior: np.ndarray         # log p_theta of the kept state
    log_proposal: np.ndarray      # log density of the proposal that drew it
    log_weight_corr: np.ndarray   # log(w / mean w) of its importance weight
    qhat: np.ndarray              # its approximate soft Q
    entropy: np.ndarray           # entropy of the row's normalized weights
    fallback: np.ndarray          # True where no weight was finite
    stats: tuple | None           # kept rows' mixture statistics (continuous)


def _propose_continuous_batch(policy, reward, X, t, cfg, rng, stats):
    """Vectorized proposal for a batch of states: (n, d) -> (n, M, d).

    One mixture-statistics pass per state: stats (the (resp, xhat) of X at
    alpha_bar[t], or None) serve the policy mean and the guidance gradient,
    and the candidates' pass at alpha_bar[t - 1] scores them and is
    returned for the kept rows to carry into the next step.
    """
    sc = policy.schedule
    mix = policy.mixture
    sig2 = sc.sig2[t]
    if stats is None:
        stats = cont.mixture_stats(mix, X, sc.alpha_bar[t])
    mu_prior = policy.mean(X, t, stats[1])
    mu_prop = mu_prior
    if cfg.guidance:
        cfg.validate_against(reward)
        _, grad = cont.reward_state_grad(mix, reward, X, sc.alpha_bar[t],
                                         cfg.grad_mode, stats)
        mu_prop = mu_prior + (sig2 / cfg.alpha) * cfg.gamma ** (t - 1) * grad
    n, d = X.shape
    eps = rng.normal((n, cfg.particles, d))
    states = mu_prop[:, None, :] + np.sqrt(sig2) * eps
    log_prop = cont.gauss_logpdf(states, mu_prop[:, None, :], sig2)
    log_prior = cont.gauss_logpdf(states, mu_prior[:, None, :], sig2)
    cand = cont.mixture_stats(mix, states, sc.alpha_bar[t - 1])
    qhat = approx_soft_q(cfg.softq, t, reward.value(cand[1]))
    return states, log_prop, log_prior, qhat, cand


def _propose_discrete_batch(policy, reward, X, t, cfg, rng):
    """Vectorized proposal for (n, L) token states -> (n, M, L).

    The denoiser, the substitution rows and the guidance shift are
    evaluated once per distinct row of X and gathered back by row.
    """
    den = policy.denoiser
    n, L = X.shape
    M = cfg.particles
    U, inverse, _ = disc.distinct_rows(X, den.K)
    nu = U.shape[0]
    p0 = disc.x0_probs(den, U, np.full(nu, t))             # (nu, L, K)
    rows = disc.subs_position_probs(policy.schedule, den, U, t - 1, t, x0=p0)
    with np.errstate(divide="ignore"):
        log_rows = np.log(rows)
    if cfg.guidance:
        cfg.validate_against(reward)
        g = reward.relaxed_grad(disc.relaxed_x0(den, U, t, x0=p0))
        # per-position logit shifts over the K+1 classes; the mask class
        # takes the denoiser-averaged token gradient, since keeping the mask
        # keeps the denoiser's prediction in play
        shift = np.concatenate(
            [g[..., :den.K], np.sum(p0 * g[..., :den.K], axis=-1)[..., None]],
            axis=-1)
        prop_logits = log_rows + cfg.gamma ** (t - 1) / cfg.alpha * shift
        prop_logp = prop_logits - log_sum_exp(prop_logits, axis=-1)[..., None]
    else:
        prop_logp = log_rows
    states = disc.draw_successors(X, np.exp(prop_logp), inverse,
                                  rng.uniform((n, M, L)))
    # the log-probabilities of the drawn classes, gathered by flat index into
    # the (nu, L, K+1) tables: states is offset to that index in place and
    # back, so no (n, M, L) index array is made. The masked sum adds each
    # run of masked positions on its own; keep it, it fixes the rounding
    masked = (X == disc.mask_token(den.K))[:, None, :]
    offset = ((inverse * L)[:, None] + np.arange(L)) * (den.K + 1)
    states += offset[:, None, :]
    log_prop = np.sum(np.take(prop_logp, states), axis=-1, where=masked)
    log_prior = np.sum(np.take(log_rows, states), axis=-1, where=masked)
    states -= offset[:, None, :]
    r_hat = x0hat_reward(policy, reward, states, t - 1)
    return states, log_prop, log_prior, approx_soft_q(cfg.softq, t, r_hat)


def search_step_batch(policy, reward, X, t, cfg, rng, stats=None):
    """One propose/weight/resample step for a whole batch of states.

    Returns the resampled next states and a StepInfo of per-row bookkeeping
    (its stats, the next states' mixture statistics, are None in the
    discrete world).
    stats, the mixture statistics of X that the previous step returned,
    saves recomputing them; results agree with a fresh pass to rounding.
    """
    if isinstance(policy, cont.ContinuousPolicy):
        states, log_prop, log_prior, qhat, cand = _propose_continuous_batch(
            policy, reward, X, t, cfg, rng, stats)
    else:
        states, log_prop, log_prior, qhat = _propose_discrete_batch(
            policy, reward, X, t, cfg, rng)
        cand = None
    n = X.shape[0]
    logw = log_prior - log_prop + qhat / cfg.alpha
    finite = np.isfinite(logw)
    fallback_rows = ~finite.any(axis=1)
    safe = np.where(finite, logw, -np.inf)
    safe[fallback_rows] = 0.0
    lse = log_sum_exp(safe, axis=1)
    weights = np.exp(safe - lse[:, None])
    weights /= weights.sum(axis=1, keepdims=True)
    corr = safe - (lse - np.log(cfg.particles))[:, None]
    u = rng.uniform(n)
    cdf = np.cumsum(weights, axis=1)
    cdf[:, -1] = 1.0
    k = (u[:, None] > cdf).sum(axis=1)
    rows = np.arange(n)
    nz = weights > 0
    ent = -np.sum(np.where(nz, weights * np.log(
        np.where(nz, weights, 1.0)), 0.0), axis=1)
    kept = None if cand is None else tuple(a[rows, k] for a in cand)
    info = StepInfo(log_prior[rows, k], log_prop[rows, k], corr[rows, k],
                    qhat[rows, k], ent, fallback_rows, kept)
    return states[rows, k], info


def sample_posterior_batch(policy, reward, cfg, rng, n):
    """Vectorized search: n trajectories marched through t = T..1 at once.

    The chains start at policy.start(rng, n), as rollouts do, and
    rng.child(t) drives step t, so the result depends only on (rng, n), not
    on how the caller schedules work.
    """
    X = policy.start(rng, n)
    states = [X]
    infos = []
    stats = None
    for t in range(policy.schedule.T, 0, -1):
        X, info = search_step_batch(policy, reward, X, t, cfg, rng.child(t),
                                    stats)
        stats = info.stats
        states.append(X)
        infos.append(info)

    def column(field):
        return np.stack([getattr(i, field) for i in infos], axis=1)

    return TrajectoryBatch(
        states=np.stack(states, axis=1), snapshot=policy.version,
        rewards=np.atleast_1d(reward.value(X)).astype(float),
        log_proposal=column("log_proposal"),
        log_weight_corr=column("log_weight_corr"),
        weight_entropy=column("entropy"),
        fallbacks=column("fallback").sum(axis=1))
