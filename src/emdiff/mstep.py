"""Amortization: maximum-likelihood distillation of searched trajectories
into the policy, optionally anchored to the pretrained policy by a
closed-form per-step KL penalty.

Losses are averaged per trajectory (weighted by batch.weights if set) and
differentiated by hand into the policy's parameter arrays; updates use the
adaptive-moment optimizer owned by the caller so moments persist across
epochs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RunAbortedError
from .numkit import normalized_weights


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


def _loss(policy, batch, mcfg, twin):
    """One forward pass of the policy's loss: (total, nll, kl, log_p of
    batch.transitions(), backward), where backward() returns
    loss_and_grads' gradients. twin is the pretrained twin's anchor."""
    n, T = batch.n, batch.T
    row_w = np.repeat(normalized_weights(batch.weights, n,
                                         "trajectory weights"), T)
    gamma = mcfg.gamma if mcfg.kl_weighting == "discounted" else 1.0
    step_w = np.array([gamma ** (T - t) for t in range(T, 0, -1)])
    return policy.distill_loss(batch, row_w, row_w * np.tile(step_w, n),
                               mcfg.kl_coeff, twin)


def loss_and_grads(policy, pretrained, batch, mcfg, twin=None):
    """Total loss, its pieces, and gradients wrt policy parameters.

    total = nll + kl_coeff * kl, where nll is the weighted negative
    log-likelihood of the batch transitions under the policy and kl the
    per-step KL to the pretrained policy evaluated at the batch states.
    twin optionally supplies the pretrained twin's anchor at the batch
    transitions, which update() computes once per batch.
    """
    if twin is None:
        twin = pretrained.anchor(batch)
    total, nll, kl, _, backward = _loss(policy, batch, mcfg, twin)
    return total, nll, kl, backward()


def update(policy, pretrained, batch, mcfg, opt, expected_snapshot=None):
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
    twin = pretrained.anchor(batch)
    loss_before = None
    for _ in range(mcfg.steps):
        total, nll, kl, grads = loss_and_grads(policy, pretrained, batch,
                                               mcfg, twin)
        if loss_before is None:
            loss_before = total
        if not all(np.all(np.isfinite(g)) for g in grads):
            raise RunAbortedError(
                f"non-finite gradient at policy version {policy.version} "
                f"(loss={total!r}, nll={nll!r}, kl={kl!r})")
        opt.step(grads)
        policy.version += 1
    total, nll, kl, log_p, _ = _loss(policy, batch, mcfg, twin)
    return {"loss_before": float(loss_before), "loss_after": float(total),
            "nll": float(nll), "kl": float(kl), "log_p": log_p}
