"""Amortization: maximum-likelihood distillation of searched trajectories
into the policy, optionally anchored to the pretrained policy by a
closed-form per-step KL penalty.

Losses are averaged per trajectory (optionally with trajectory weights) and
differentiated by hand into the policy's parameter arrays; updates use the
adaptive-moment optimizer owned by the caller so moments persist across
epochs.
"""

from dataclasses import dataclass

import numpy as np

from . import continuous as cont
from . import discrete as disc
from .errors import ConfigError, RunAbortedError
from .numkit import normalized_weights, softmax


@dataclass
class MStepConfig:
    lr: float = 1e-3
    steps: int = 1
    kl_coeff: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    kl_weighting: str = "uniform"  # or "discounted"
    gamma: float = 1.0             # used by discounted KL weighting only

    def __post_init__(self):
        if not self.lr >= 0:
            raise ConfigError("learning rate must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("Adam betas must lie in [0, 1)")
        if self.kl_coeff < 0:
            raise ConfigError("KL coefficient must be >= 0")
        if self.steps < 1:
            raise ConfigError("need at least one distillation step")
        if self.kl_weighting not in ("uniform", "discounted"):
            raise ConfigError(f"unknown kl_weighting {self.kl_weighting!r}")


def _row_weights(batch, mcfg, weights):
    """Per-transition NLL and KL weights, aligned with batch.transitions()."""
    n, T = batch.n, batch.T
    w = normalized_weights(weights, n, "trajectory weights")
    row_w = np.repeat(w, T)
    gamma = mcfg.gamma if mcfg.kl_weighting == "discounted" else 1.0
    step_w = np.array([gamma ** (T - t) for t in range(T, 0, -1)])
    return row_w, row_w * np.tile(step_w, n)


def _twin(pretrained, batch):
    """The frozen pretrained twin at the batch transitions: its (analytic)
    reverse mean, or its unforced clean-token probabilities."""
    X_t, _, t = batch.transitions()
    if isinstance(pretrained, cont.ContinuousPolicy):
        return pretrained.mean(X_t, t)
    return softmax(pretrained.denoiser.logits(X_t, t), axis=-1)


def _loss(policy, batch, mcfg, traj_weights, twin):
    """One forward pass: (total, nll, kl, log_p of batch.transitions(),
    backward), where backward() returns loss_and_grads' gradients."""
    if isinstance(policy, cont.ContinuousPolicy):
        return _continuous_loss(policy, batch, mcfg, traj_weights, twin)
    return _discrete_loss(policy, batch, mcfg, traj_weights, twin)


def loss_and_grads(policy, pretrained, batch, mcfg, traj_weights=None,
                   twin=None):
    """Total loss, its pieces, and gradients wrt policy parameters.

    total = nll + kl_coeff * kl, where nll is the weighted negative
    log-likelihood of the batch transitions under the policy and kl the
    per-step KL to the pretrained policy evaluated at the batch states.
    twin optionally supplies the pretrained twin at the batch transitions
    (see _twin), which update() computes once per batch.
    """
    if twin is None:
        twin = _twin(pretrained, batch)
    total, nll, kl, _, backward = _loss(policy, batch, mcfg, traj_weights,
                                        twin)
    return total, nll, kl, backward()


def _continuous_loss(policy, batch, mcfg, traj_weights, mu_twin):
    if policy.frozen:
        raise ConfigError("cannot distill into a frozen policy")
    X_t, X_prev, T_arr = batch.transitions()
    row_w, kl_w = _row_weights(batch, mcfg, traj_weights)
    sig2 = policy.schedule.sig2[T_arr]

    inputs = policy.residual_input(X_t, T_arr)
    raw, cache = policy.residual.forward_cache(inputs)
    # the shift from the frozen twin's mean, which is the KL's mean gap
    delta = sig2[:, None] * raw
    mu = mu_twin + delta
    log_p = cont.gauss_logpdf(X_prev, mu, sig2)
    nll = -float(row_w @ log_p)
    kl_rows = 0.5 * np.sum(delta * delta, axis=-1) / sig2
    kl = float(kl_w @ kl_rows)
    total = nll + mcfg.kl_coeff * kl

    def backward():
        up = row_w[:, None] * (mu - X_prev) / sig2[:, None]
        if mcfg.kl_coeff > 0:
            up = up + mcfg.kl_coeff * kl_w[:, None] * delta / sig2[:, None]
        # chain rule through the sig2 scaling of the residual shift
        grads, _ = policy.residual.backward(cache, up * sig2[:, None])
        return grads

    return total, nll, kl, log_p, backward


def _discrete_loss(policy, batch, mcfg, traj_weights, p0_pre):
    den = policy.denoiser
    m = disc.mask_token(den.K)
    rows_xt, rows_prev, rows_t = batch.transitions()
    row_w, kl_w = _row_weights(batch, mcfg, traj_weights)

    logits, cache = den.forward_cache(rows_xt, rows_t)      # (N, L, K)
    p0 = softmax(logits, axis=-1)
    logp = disc.transition_logprob(policy.schedule, den, rows_xt, rows_prev,
                                   rows_t, x0=p0)
    nll = -float(row_w @ logp)

    # KL(p_theta || p_pre) per masked position, scaled by the emit mass
    masked = rows_xt == m
    logratio = np.log(p0) - np.log(p0_pre)
    kl_pos = np.sum(p0 * logratio, axis=-1)
    _, emit = disc.stay_emit(policy.schedule, rows_t - 1, rows_t)
    kl_rows = np.where(masked, emit[:, None] * kl_pos, 0.0)
    kl = float(kl_w @ kl_rows.sum(axis=1))
    total = nll + mcfg.kl_coeff * kl

    def backward():
        emit_pos = masked & (rows_prev != m)
        onehot = disc.one_hot(np.where(emit_pos, rows_prev, 0), den.K)
        dlogits = np.where(emit_pos[..., None], p0 - onehot, 0.0) \
            * row_w[:, None, None]
        if mcfg.kl_coeff > 0:
            dkl = p0 * (logratio - kl_pos[..., None])
            dlogits = dlogits + mcfg.kl_coeff * np.where(
                masked[..., None], (kl_w * emit)[:, None, None] * dkl, 0.0)
        return den.backward(cache, dlogits)

    return total, nll, kl, logp, backward


def update(policy, pretrained, batch, mcfg, opt, traj_weights=None,
           expected_snapshot=None):
    """Run the configured number of distillation steps on one batch.

    Asserts the batch was generated at `expected_snapshot` (defaults to the
    policy's current version) before any update; aborts on non-finite
    gradients. Each step is one forward and one backward pass; the twin is
    evaluated once. Returns a report with losses before and after, and the
    updated policy's log-likelihoods "log_p" (see metrics.elbo_surrogate).
    """
    if batch.n < 1:
        raise ConfigError("M-step needs a non-empty batch")
    want = policy.version if expected_snapshot is None else expected_snapshot
    if batch.snapshot != want:
        raise ConfigError(
            f"stale batch: snapshot {batch.snapshot} does not match expected "
            f"{want}")
    twin = _twin(pretrained, batch)
    loss_before = None
    for _ in range(mcfg.steps):
        total, nll, kl, grads = loss_and_grads(policy, pretrained, batch,
                                               mcfg, traj_weights, twin)
        if loss_before is None:
            loss_before = total
        if not all(np.all(np.isfinite(g)) for g in grads):
            raise RunAbortedError(
                f"non-finite gradient at policy version {policy.version} "
                f"(loss={total!r}, nll={nll!r}, kl={kl!r})")
        opt.step(grads)
        policy.version += 1
    total, nll, kl, log_p, _ = _loss(policy, batch, mcfg, traj_weights, twin)
    return {"loss_before": float(loss_before), "loss_after": float(total),
            "nll": float(nll), "kl": float(kl), "log_p": log_p}
