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

from .errors import ConfigError
from .numkit import log_sum_exp
from .softq import SoftQConfig, approx_soft_q
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
    carry: tuple                  # (table, rows) of the kept states


def search_step_batch(policy, reward, X, t, cfg, rng, carry=None):
    """One propose/weight/resample step for a whole batch of states.

    policy.propose returns the candidates and their carry (table, inverse):
    what its next proposal reads of a state (mixture statistics, or
    clean-token probabilities) as table rows, with the (n, M) inverse
    naming each candidate's row. Returns the resampled next states and a
    StepInfo; its carry, (table, inverse[kept]), passed back with those
    states saves the next step's statistics pass and agrees with a fresh
    one to rounding.
    """
    cfg.validate_against(reward)
    states, log_prop, log_prior, qhat, (table, inverse) = policy.propose(
        reward, X, t, cfg, rng, carry)
    qhat = approx_soft_q(cfg.softq, t, qhat)  # of the reward at x0hat
    n = X.shape[0]
    # the (n, M) temporaries are updated in place and dropped when done:
    # on a wide step they set the peak memory
    logw = log_prior - log_prop
    logw += qhat / cfg.alpha
    finite = np.isfinite(logw)
    fallback_rows = ~finite.any(axis=1)
    logw[~finite] = -np.inf
    logw[fallback_rows] = 0.0
    lse = log_sum_exp(logw, axis=1)
    weights = logw - lse[:, None]
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    u = rng.uniform(n)
    cdf = np.cumsum(weights, axis=1)
    cdf[:, -1] = 1.0
    k = (u[:, None] > cdf).sum(axis=1)
    del cdf
    rows = np.arange(n)
    # w log w, with 0 log 0 = 0: the log reads 0 where w is 0
    ent = -np.sum(np.log(weights, out=np.zeros_like(weights),
                         where=weights > 0) * weights, axis=1)
    corr = logw[rows, k] - (lse - np.log(cfg.particles))
    info = StepInfo(log_prior[rows, k], log_prop[rows, k], corr,
                    qhat[rows, k], ent, fallback_rows,
                    (table, inverse[rows, k]))
    return states[rows, k], info


def sample_posterior_batch(policy, reward, cfg, rng, n):
    """Vectorized search: n trajectories marched through t = T..1 at once.

    The chains start at policy.start(rng, n), as rollouts do, and
    rng.child(t) drives step t, so the result depends only on (rng, n), not
    on how the caller schedules work. The batch's steps holds every field
    of the step infos but the carry as an (n, T) column, by the infos' own
    field names.
    """
    X = policy.start(rng, n)
    states = [X]
    infos = []
    carry = None
    for t in range(policy.schedule.T, 0, -1):
        X, info = search_step_batch(policy, reward, X, t, cfg, rng.child(t),
                                    carry)
        carry = info.carry
        states.append(X)
        infos.append(info._replace(carry=None))  # the logs, not the tables
    columns = {f: np.stack([getattr(i, f) for i in infos], axis=1)
               for f in type(info)._fields if f != "carry"}
    return TrajectoryBatch(
        states=np.stack(states, axis=1), snapshot=policy.version,
        rewards=np.atleast_1d(reward.value(X)).astype(float),
        steps=type(info)(carry=None, **columns))
