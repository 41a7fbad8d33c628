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
from .numkit import Mlp, float_array, softmax, sq_dist
from .trajectory import TrajectoryBatch


class GaussianMixture:
    """Isotropic Gaussian mixture: weights w_k, means mu_k, stds s_k."""

    def __init__(self, weights, means, stds):
        self.weights = float_array(weights, 1, "mixture weights")
        self.means = float_array(means, 2, "mixture means (K, d)")
        self.stds = float_array(stds, 1, "mixture stds")
        k = self.means.shape[0]
        if self.weights.shape != (k,) or self.stds.shape != (k,):
            raise ConfigError("weights/stds must match the component count")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConfigError("mixture weights must be positive and sum to 1")
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


def _flat(mixture, xt, abar):
    """x_t as (n, d) rows and its leading shape; sqrt(abar) and 1 - abar as
    (1, n) rows and the component variances v_k = abar s_k^2 + 1 - abar of
    x_t | k as a (K, n) array (one column for a scalar abar)."""
    xt = np.asarray(xt, dtype=float)
    ab = np.asarray(abar, dtype=float).reshape(1, -1)
    v = mixture.stds[:, None] ** 2 * ab + (1.0 - ab)
    return (xt.reshape(-1, mixture.dim), xt.shape[:-1], np.sqrt(ab),
            1.0 - ab, v)


def mixture_stats(mixture, xt, abar):
    """Responsibilities resp (..., K) and posterior mean xhat (..., d) of x_t
    when x_t = sqrt(abar) x0 + noise and x0 follows the mixture.

    abar may be a scalar or an array matching xt's leading shape. The
    squared distances |x_t - sqrt(abar) mu_k|^2 come in expanded form and
        xhat = sqrt(abar) (sum_k resp_k s_k^2 / v_k) x_t
               + (1 - abar) (resp / v) @ mu,
    so every product is a matmul over components and no (n, K, d) array is
    built. The work runs component-major, (K, n).
    """
    x, lead, sab, b, v = _flat(mixture, xt, abar)
    loglik = (np.log(mixture.weights)[:, None]
              - 0.5 * mixture.dim * np.log(2.0 * np.pi * v)
              - 0.5 * sq_dist(x, mixture.means, sab) / v)
    resp = softmax(loglik, axis=0)
    rv = resp / v
    xhat = (sab * (mixture.stds**2 @ rv)).T * x + b.T * (rv.T @ mixture.means)
    return resp.T.reshape(lead + (-1,)), xhat.reshape(lead + (-1,))


def x0hat(mixture, xt, abar):
    """Posterior mean E[x0 | x_t] when x_t = sqrt(abar) x0 + noise.

    abar may be a scalar or an array matching xt's leading shape. At
    abar = 1 this returns xt (to rounding; t = 0 convention).
    """
    return mixture_stats(mixture, xt, abar)[1]


def x0hat_jacobian(mixture, xt, abar, stats=None):
    """x0hat and its Jacobian d x0hat / d x_t, shape (..., d, d), for
    abar in (0, 1].

    stats, the (resp, xhat) of xt at abar from mixture_stats, saves the
    statistics pass. By Tweedie's formula, sqrt(abar) x0hat = x +
    (1 - abar) grad log p(x), so the Jacobian is
    (I + (1 - abar) H) / sqrt(abar) with H the Hessian of log p. With
    c_k = 1 / v_k, C = c - sum_k resp_k c_k, u = (resp c) @ mu and
    z = (resp C c) @ mu, that is
        slope I + (1 - abar) / sqrt(abar) (sum_k resp_k C_k^2) x x^T
        - (1 - abar) (x z^T + z x^T)
        + sqrt(abar) (1 - abar) ((resp c^2) @ mu mu^T - u u^T),
    slope = sqrt(abar) sum_k resp_k s_k^2 c_k, all built from (K, n)
    responsibilities by matmuls over components. The x x^T coefficient is
    a spread of the c_k, so nothing cancels at |x| >> |mu|.
    """
    resp, xhat = mixture_stats(mixture, xt, abar) if stats is None else stats
    x, lead, sab, b, v = _flat(mixture, xt, abar)
    K, d = mixture.n_components, mixture.dim
    mu = mixture.means
    r = np.ascontiguousarray(resp.reshape(-1, K).T)              # (K, n)
    c = 1.0 / v
    rc = r * c
    C = c - rc.sum(axis=0)
    rC = r * C
    bz, u = b.T * ((rC * c).T @ mu), rc.T @ mu                   # (n, d)
    xx = (b / sab * (rC * C).sum(axis=0)).T * x
    outer = (mu[:, :, None] * mu[:, None, :]).reshape(K, d * d)
    spread = (((rc * c).T @ outer).reshape(-1, d, d)
              - u[:, :, None] * u[:, None, :])
    jac = (x[:, :, None] * (xx - bz)[:, None, :]
           - bz[:, :, None] * x[:, None, :]
           + (sab * b).T[:, :, None] * spread)
    slope = sab[0] * (mixture.stds**2 @ rc)
    jac.reshape(-1, d * d)[:, ::d + 1] += slope[:, None]      # diagonal
    return xhat, jac.reshape(lead + (d, d))


def reward_state_grad(mixture, reward, xt, abar, mode="exact", stats=None):
    """x0hat(x_t) and the gradient of r(x0hat(x_t)) wrt x_t, as (xhat, grad).

    mode "exact" chains the closed-form posterior-mean Jacobian;
    "straight_through" treats x0hat as the identity map (the usual
    stop-gradient shortcut) and is kept for comparison runs. stats, the
    (resp, xhat) of xt at abar from mixture_stats, saves the statistics
    pass.
    """
    if mode == "straight_through":
        xhat = x0hat(mixture, xt, abar) if stats is None else stats[1]
        return xhat, reward.grad(xhat)
    if mode != "exact":
        raise ConfigError(f"unknown guidance gradient mode {mode!r}")
    xhat, jac = x0hat_jacobian(mixture, xt, abar, stats)
    return xhat, np.einsum("...ab,...a->...b", jac, reward.grad(xhat))


def gauss_logpdf(x, mean, sig2):
    """log N(x; mean, sig2 I) over the last axis, the reverse-transition
    density; sig2 is a scalar or broadcasts against x's leading shape."""
    if np.any(sig2 <= 0):
        raise ConfigError("sampling variance must be positive")
    diff = np.asarray(x, dtype=float) - mean
    d = diff.shape[-1]
    return (-0.5 * d * np.log(2.0 * np.pi * sig2)
            - 0.5 * np.einsum("...i,...i->...", diff, diff) / sig2)


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
        self.residual = Mlp([d + 1, *residual_widths, d], rng=rng,
                            zero_last=True)
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
