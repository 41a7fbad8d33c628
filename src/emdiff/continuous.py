"""Continuous diffusion world: Gaussian-mixture data with an analytic
denoiser, plus a fine-tunable reverse policy whose mean is the analytic
posterior mean shifted by a small residual network.

The data distribution is known in closed form, so the "pretrained" model is
exact: the posterior mean E[x0 | x_t] and its Jacobian have analytic
expressions, and a policy with zero residual reproduces the data
distribution up to the coarseness of the chain.
"""

import numpy as np

from .errors import ConfigError
from .numkit import Mlp, softmax
from .trajectory import TrajectoryBatch


class GaussianMixture:
    """Isotropic Gaussian mixture: weights w_k, means mu_k, stds s_k."""

    def __init__(self, weights, means, stds):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.stds = np.asarray(stds, dtype=float)
        if self.means.ndim != 2:
            raise ConfigError("means must be (K, d)")
        k = self.means.shape[0]
        if self.weights.shape != (k,) or self.stds.shape != (k,):
            raise ConfigError("weights/stds must match the component count")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConfigError("mixture weights must sum to 1")
        if np.any(self.stds <= 0):
            raise ConfigError("component stds must be positive")

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.weights.shape[0]

    def mean(self):
        return self.weights @ self.means

    def sample(self, rng, n):
        comp = rng.gen.choice(self.n_components, size=n, p=self.weights)
        eps = rng.normal((n, self.dim))
        return self.means[comp] + self.stds[comp, None] * eps


def forward_marginal_sample(schedule, x0, t, rng):
    """Draw x_t | x_0 = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps in one shot."""
    schedule.check_t(t)
    x0 = np.asarray(x0, dtype=float)
    ab = schedule.alpha_bar[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * rng.normal(x0.shape)


def _mixture_stats(mixture, xt, abar):
    xt = np.asarray(xt, dtype=float)
    ab = np.asarray(abar, dtype=float)
    sqrt_ab = np.sqrt(ab)[..., None, None]
    v = ab[..., None] * mixture.stds**2 + (1.0 - ab[..., None])  # (..., K)
    diff = xt[..., None, :] - sqrt_ab * mixture.means            # (..., K, d)
    d = mixture.dim
    loglik = (np.log(mixture.weights)
              - 0.5 * d * np.log(2.0 * np.pi * v)
              - 0.5 * np.sum(diff * diff, axis=-1) / v)
    resp = softmax(loglik, axis=-1)                              # (..., K)
    m = (sqrt_ab * mixture.stds[:, None] ** 2 * xt[..., None, :]
         + (1.0 - ab[..., None, None]) * mixture.means) / v[..., None]
    return v, diff, resp, m


def x0hat(mixture, xt, abar):
    """Posterior mean E[x0 | x_t] when x_t = sqrt(abar) x0 + noise.

    abar may be a scalar or an array matching xt's leading shape. At
    abar = 1 this returns xt exactly (t = 0 convention).
    """
    _, _, resp, m = _mixture_stats(mixture, xt, abar)
    return np.sum(resp[..., None] * m, axis=-2)


def x0hat_jacobian(mixture, xt, abar):
    """x0hat and its Jacobian d x0hat / d x_t, shape (..., d, d)."""
    xt = np.asarray(xt, dtype=float)
    ab = np.asarray(abar, dtype=float)
    v, diff, resp, m = _mixture_stats(mixture, xt, abar)
    xhat = np.sum(resp[..., None] * m, axis=-2)
    g = -diff / v[..., None]                       # dloglik_k/dxt, (..., K, d)
    gbar = np.sum(resp[..., None] * g, axis=-2)    # (..., d)
    centered = g - gbar[..., None, :]
    jac = np.einsum("...k,...ka,...kb->...ab", resp, m, centered)
    slope = np.sum(resp * np.sqrt(ab)[..., None] * mixture.stds**2 / v, axis=-1)
    eye = np.eye(mixture.dim)
    jac = jac + slope[..., None, None] * eye
    return xhat, jac


def reward_state_grad(mixture, reward, xt, abar, mode="exact"):
    """x0hat(x_t) and the gradient of r(x0hat(x_t)) wrt x_t, as (xhat, grad).

    mode "exact" chains the closed-form posterior-mean Jacobian;
    "straight_through" treats x0hat as the identity map (the usual
    stop-gradient shortcut) and is kept for comparison runs.
    """
    if mode == "straight_through":
        xhat = x0hat(mixture, xt, abar)
        return xhat, reward.grad(xhat)
    if mode != "exact":
        raise ConfigError(f"unknown guidance gradient mode {mode!r}")
    xhat, jac = x0hat_jacobian(mixture, xt, abar)
    return xhat, np.einsum("...ab,...a->...b", jac, reward.grad(xhat))


def gauss_logpdf(x, mean, sig2):
    """log N(x; mean, sig2 I) over the last axis, the reverse-transition
    density; sig2 is a scalar or broadcasts against x's leading shape."""
    if np.any(sig2 <= 0):
        raise ConfigError("sampling variance must be positive")
    diff = np.asarray(x, dtype=float) - mean
    d = diff.shape[-1]
    return (-0.5 * d * np.log(2.0 * np.pi * sig2)
            - 0.5 * np.sum(diff * diff, axis=-1) / sig2)


class ContinuousPolicy:
    """Reverse policy p(x_{t-1} | x_t) = N(mu_analytic + sig2_t * residual,
    sig2_t I).

    The residual MLP maps (x_t, t/T) to a mean shift and is zero-initialized,
    so a fresh policy equals the analytic pretrained one exactly. Scaling the
    shift by the step variance matches the size of the reward-guidance shift
    the network has to represent and keeps the terminal distribution well
    conditioned in the parameters; an unscaled shift compounds over the chain
    and swamps the learning signal with parameter noise. `frozen` pins the
    residual to zero regardless of its parameters.
    """

    def __init__(self, schedule, mixture, residual_widths=(16, 16),
                 frozen=False, rng=None):
        self.schedule = schedule
        self.mixture = mixture
        d = mixture.dim
        self.residual = Mlp([d + 1, *residual_widths, d], activation="tanh",
                            rng=rng, zero_last=True)
        self.frozen = frozen
        self.version = 0

    @property
    def dim(self):
        return self.mixture.dim

    def params(self):
        return self.residual.params()

    def pretrained_copy(self):
        twin = ContinuousPolicy(self.schedule, self.mixture,
                                frozen=True)
        twin.residual = self.residual.copy()
        return twin

    def residual_input(self, xt, t):
        xt = np.asarray(xt, dtype=float)
        frac = np.asarray(t, dtype=float) / self.schedule.T
        frac = np.broadcast_to(frac, xt.shape[:-1])[..., None]
        return np.concatenate([xt, frac], axis=-1)

    def posterior_mean_from_x0hat(self, xt, t, xhat):
        """DDPM posterior mean given a precomputed clean-sample estimate."""
        xt = np.asarray(xt, dtype=float)
        t_arr = np.asarray(t)
        sc = self.schedule
        ab_t = sc.alpha_bar[t_arr]
        ab_prev = sc.alpha_bar[t_arr - 1]
        beta = sc.beta[t_arr]
        alpha = sc.alpha[t_arr]
        num = (np.sqrt(ab_prev) * beta)[..., None] * xhat \
            + (np.sqrt(alpha) * (1.0 - ab_prev))[..., None] * xt
        return num / (1.0 - ab_t)[..., None]

    def analytic_mean(self, xt, t):
        """DDPM posterior mean with the analytic x0hat plugged in.

        t may be an int or an int array matching xt's leading shape.
        """
        xhat = x0hat(self.mixture, xt,
                     self.schedule.alpha_bar[np.asarray(t)])
        return self.posterior_mean_from_x0hat(xt, t, xhat)

    def residual_shift(self, xt, t):
        raw = self.residual.forward(self.residual_input(xt, t))
        sig2 = self.schedule.sig2[np.asarray(t)]
        return np.asarray(sig2)[..., None] * raw

    def mean(self, xt, t):
        mu = self.analytic_mean(xt, t)
        if not self.frozen:
            mu = mu + self.residual_shift(xt, t)
        return mu

    def logprob(self, xt, xprev, t):
        """Gaussian log density of xprev under the policy at (xt, t)."""
        return gauss_logpdf(xprev, self.mean(xt, t),
                            self.schedule.sig2[np.asarray(t)])

    def step(self, xt, t, rng):
        mu = self.mean(xt, t)
        sig = np.sqrt(self.schedule.sig2[t])
        return mu + sig * rng.normal(mu.shape)

    def rollout(self, rng, n):
        """n independent reverse chains from x_T ~ N(0, I)."""
        if n < 1:
            raise ConfigError("rollout needs n >= 1")
        T = self.schedule.T
        x = rng.child(0).normal((n, self.dim))
        states = [x]
        for t in range(T, 0, -1):
            x = self.step(x, t, rng.child(t))
            states.append(x)
        return TrajectoryBatch(states=np.stack(states, axis=1),
                               snapshot=self.version)
