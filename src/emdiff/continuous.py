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
from .numkit import Mlp, float_array, softmax
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
        self._memo = {}

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.weights.shape[0]

    def mean(self):
        return self.weights @ self.means

    def constants(self, abar):
        """The constants of x_t | k at abar, as (1, n) rows and (K, n)
        arrays (one column for a scalar abar, memoised per value):
        sqrt(abar), 1 - abar, the component variances
        v_k = abar s_k^2 + 1 - abar, the log-normaliser
        log w_k - d/2 log(2 pi v_k), and the expanded distance's
        2 sqrt(abar) and sqrt(abar)^2 |mu_k|^2."""
        return _per_step(self._memo, abar, self._constants)

    def _constants(self, abar):
        ab = np.asarray(abar, dtype=float).reshape(1, -1)
        sab = np.sqrt(ab)
        v = self.stds[:, None] ** 2 * ab + (1.0 - ab)
        lognorm = (np.log(self.weights)[:, None]
                   - 0.5 * self.dim * np.log(2.0 * np.pi * v))
        mu2 = np.einsum("ki,ki->k", self.means, self.means)[:, None]
        return sab, 1.0 - ab, v, lognorm, 2.0 * sab, sab**2 * mu2

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


def _per_step(memo, key, build):
    """build(key), kept in memo by value when key is a scalar (a timestep
    or its alpha_bar) and read-only there; a per-row key array is built
    afresh. Only left-associated prefixes of the callers' expressions are
    built, so every float operation stays the same."""
    if np.ndim(key):
        return build(key)
    value = memo.get(float(key))
    if value is None:
        value = memo[float(key)] = build(key)
        for a in value:
            a.flags.writeable = False
    return value


def _flat(mixture, xt, abar):
    """x_t as (n, d) rows, its leading shape and mixture.constants(abar)."""
    xt = np.asarray(xt, dtype=float)
    return xt.reshape(-1, mixture.dim), xt.shape[:-1], mixture.constants(abar)


def mixture_stats(mixture, xt, abar):
    """Responsibilities resp (..., K) and posterior mean xhat (..., d) of x_t
    when x_t = sqrt(abar) x0 + noise and x0 follows the mixture.

    abar may be a scalar or an array matching xt's leading shape. The
    squared distances |x_t - sqrt(abar) mu_k|^2 come in expanded form,
    |x_t|^2 - 2 sqrt(abar) mu_k.x_t + abar |mu_k|^2, and
        xhat = sqrt(abar) (sum_k resp_k s_k^2 / v_k) x_t
               + (1 - abar) (resp / v) @ mu,
    so every product is a matmul over components and no (n, K, d) array is
    built. The work runs component-major, (K, n).
    """
    x, lead, (sab, b, v, lognorm, two_sab, mu2) = _flat(mixture, xt, abar)
    sq = (np.einsum("ni,ni->n", x, x) - two_sab * (mixture.means @ x.T)
          + mu2)
    loglik = lognorm - 0.5 * sq / v
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
    x, lead, (sab, b, v, *_) = _flat(mixture, xt, abar)
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
        self._memo = {}

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
        """The residual MLP's input rows (x_t, t/T)."""
        xt = np.asarray(xt, dtype=float)
        out = np.empty(xt.shape[:-1] + (xt.shape[-1] + 1,))
        out[..., :-1] = xt
        out[..., -1] = np.asarray(t, dtype=float) / self.schedule.T
        return out

    def _mean_coeffs(self, t):
        """analytic_mean's coefficients of xhat and x_t and its divisor,
        each with a trailing axis: sqrt(ab_prev) beta,
        sqrt(alpha) (1 - ab_prev) and 1 - ab_t."""
        sc = self.schedule
        ab_prev = sc.alpha_bar[t - 1]
        return ((np.sqrt(ab_prev) * sc.beta[t])[..., None],
                (np.sqrt(sc.alpha[t]) * (1.0 - ab_prev))[..., None],
                (1.0 - sc.alpha_bar[t])[..., None])

    def analytic_mean(self, xt, t, xhat=None):
        """DDPM posterior mean with the analytic x0hat plugged in.

        t may be an int or an int array matching xt's leading shape; xhat
        optionally supplies x0hat(mixture, xt, alpha_bar[t]).
        """
        xt = np.asarray(xt, dtype=float)
        t = np.asarray(t)
        if xhat is None:
            xhat = x0hat(self.mixture, xt, self.schedule.alpha_bar[t])
        c_hat, c_x, den = _per_step(self._memo, t, self._mean_coeffs)
        return (c_hat * xhat + c_x * xt) / den

    def mean(self, xt, t, xhat=None):
        """The reverse mean: analytic_mean(xt, t, xhat) plus, unless frozen,
        the residual shift sig2_t * residual(x_t, t/T)."""
        mu = self.analytic_mean(xt, t, xhat)
        if not self.frozen:
            sig2 = self.schedule.sig2[np.asarray(t)]
            raw = self.residual.forward(self.residual_input(xt, t))
            mu = mu + np.asarray(sig2)[..., None] * raw
        return mu

    def logprob(self, xt, xprev, t):
        """Gaussian log density of xprev under the policy at (xt, t)."""
        return gauss_logpdf(xprev, self.mean(xt, t),
                            self.schedule.sig2[np.asarray(t)])

    def start(self, rng, n):
        """n chain start states x_T ~ N(0, I), drawn from rng.child(0)."""
        if n < 1:
            raise ConfigError("a chain batch needs n >= 1")
        return rng.child(0).normal((n, self.dim))

    def rollout(self, rng, n):
        """n independent reverse chains from start(rng, n)."""
        x = self.start(rng, n)
        states = [x]
        for t in range(self.schedule.T, 0, -1):
            mu = self.mean(x, t)
            sig = np.sqrt(self.schedule.sig2[t])
            x = mu + sig * rng.child(t).normal(mu.shape)
            states.append(x)
        return TrajectoryBatch(states=np.stack(states, axis=1),
                               snapshot=self.version)

    def propose(self, reward, X, t, cfg, rng, carry=None):
        """Search candidates (n, M, d) from X (n, d) at t, their proposal
        and prior log-densities, r(x0hat) and their carry (see
        estep.search_step_batch): (resp, xhat) at alpha_bar[t - 1], a row
        per candidate. X's statistics (its carry, if given) serve the mean
        and the guidance gradient."""
        sc = self.schedule
        sig2 = sc.sig2[t]
        if carry is None:
            stats = mixture_stats(self.mixture, X, sc.alpha_bar[t])
        else:
            table, kept = carry
            stats = tuple(a[kept] for a in table)
        mu_prior = self.mean(X, t, stats[1])
        mu_prop = mu_prior
        if cfg.guidance:
            _, grad = reward_state_grad(self.mixture, reward, X,
                                        sc.alpha_bar[t], cfg.grad_mode, stats)
            mu_prop = (mu_prior
                       + (sig2 / cfg.alpha) * cfg.gamma ** (t - 1) * grad)
        n, d = X.shape
        M = cfg.particles
        states = mu_prop[:, None, :] + np.sqrt(sig2) * rng.normal((n, M, d))
        log_prop, log_prior = gauss_logpdf(
            states, np.stack([mu_prop, mu_prior])[:, :, None, :], sig2)
        resp, xhat = mixture_stats(self.mixture, states, sc.alpha_bar[t - 1])
        table = (resp.reshape(n * M, -1), xhat.reshape(n * M, d))
        return (states, log_prop, log_prior, reward.value(xhat),
                (table, np.arange(n * M).reshape(n, M)))

    def anchor(self, batch):
        """As the frozen twin, the KL anchor at batch.transitions(): the
        reverse mean."""
        X_t, _, t = batch.transitions()
        return self.mean(X_t, t)

    def distill_loss(self, batch, row_w, kl_w, kl_coeff, mu_twin):
        """One forward pass of the distillation loss (see mstep._loss);
        mu_twin is the twin's anchor."""
        if self.frozen:
            raise ConfigError("cannot distill into a frozen policy")
        X_t, X_prev, T_arr = batch.transitions()
        sig2 = self.schedule.sig2[T_arr]
        inputs = self.residual_input(X_t, T_arr)
        raw, cache = self.residual.forward_cache(inputs)
        # the shift from the frozen twin's mean, which is the KL's mean gap
        delta = sig2[:, None] * raw
        mu = mu_twin + delta
        log_p = gauss_logpdf(X_prev, mu, sig2)
        nll = -float(row_w @ log_p)
        kl = float(kl_w @ (0.5 * np.sum(delta * delta, axis=-1) / sig2))
        total = nll + kl_coeff * kl

        def backward():
            up = row_w[:, None] * (mu - X_prev) / sig2[:, None]
            if kl_coeff > 0:
                up = up + kl_coeff * kl_w[:, None] * delta / sig2[:, None]
            # chain rule through the sig2 scaling of the residual shift
            grads, _ = self.residual.backward(cache, up * sig2[:, None])
            return grads

        return total, nll, kl, log_p, backward
