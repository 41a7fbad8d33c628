"""Reference forms of the continuous world's kernels that the shipped ones
are tested against bit for bit: each call rebuilds every constant of its
timestep, the residual input is a concatenation, the MLP allocates a new
array per operation, and float diversity gathers whole (pairs, d) rows and
sums their short last axis."""

import numpy as np


def sq_dist(x, centers, scale=1.0):
    """|x - scale * c_k|^2 for every row c_k of centers, (K, ...)."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    sq = (np.einsum("ni,ni->n", flat, flat) - 2.0 * scale * (centers @ flat.T)
          + scale**2 * np.einsum("ki,ki->k", centers, centers)[:, None])
    return sq.reshape(centers.shape[:1] + x.shape[:-1])


def _flat(mixture, xt, abar):
    xt = np.asarray(xt, dtype=float)
    ab = np.asarray(abar, dtype=float).reshape(1, -1)
    v = mixture.stds[:, None] ** 2 * ab + (1.0 - ab)
    return (xt.reshape(-1, mixture.dim), xt.shape[:-1], np.sqrt(ab),
            1.0 - ab, v)


def mixture_stats(mixture, xt, abar):
    """Responsibilities (..., K) and posterior mean (..., d) of x_t."""
    from emdiff.numkit import softmax

    x, lead, sab, b, v = _flat(mixture, xt, abar)
    loglik = (np.log(mixture.weights)[:, None]
              - 0.5 * mixture.dim * np.log(2.0 * np.pi * v)
              - 0.5 * sq_dist(x, mixture.means, sab) / v)
    resp = softmax(loglik, axis=0)
    rv = resp / v
    xhat = (sab * (mixture.stds**2 @ rv)).T * x + b.T * (rv.T @ mixture.means)
    return resp.T.reshape(lead + (-1,)), xhat.reshape(lead + (-1,))


def x0hat_jacobian(mixture, xt, abar, stats=None):
    """x0hat and its Jacobian d x0hat / d x_t, (..., d, d)."""
    resp, xhat = mixture_stats(mixture, xt, abar) if stats is None else stats
    x, lead, sab, b, v = _flat(mixture, xt, abar)
    K, d = mixture.n_components, mixture.dim
    mu = mixture.means
    r = np.ascontiguousarray(resp.reshape(-1, K).T)
    c = 1.0 / v
    rc = r * c
    C = c - rc.sum(axis=0)
    rC = r * C
    bz, u = b.T * ((rC * c).T @ mu), rc.T @ mu
    xx = (b / sab * (rC * C).sum(axis=0)).T * x
    outer = (mu[:, :, None] * mu[:, None, :]).reshape(K, d * d)
    spread = (((rc * c).T @ outer).reshape(-1, d, d)
              - u[:, :, None] * u[:, None, :])
    jac = (x[:, :, None] * (xx - bz)[:, None, :]
           - bz[:, :, None] * x[:, None, :]
           + (sab * b).T[:, :, None] * spread)
    slope = sab[0] * (mixture.stds**2 @ rc)
    jac.reshape(-1, d * d)[:, ::d + 1] += slope[:, None]
    return xhat, jac.reshape(lead + (d, d))


def analytic_mean(policy, xt, t, xhat=None):
    """The policy's DDPM posterior mean with the analytic x0hat."""
    xt = np.asarray(xt, dtype=float)
    t_arr = np.asarray(t)
    sc = policy.schedule
    ab_t = sc.alpha_bar[t_arr]
    if xhat is None:
        xhat = mixture_stats(policy.mixture, xt, ab_t)[1]
    ab_prev = sc.alpha_bar[t_arr - 1]
    beta = sc.beta[t_arr]
    alpha = sc.alpha[t_arr]
    num = (np.sqrt(ab_prev) * beta)[..., None] * xhat \
        + (np.sqrt(alpha) * (1.0 - ab_prev))[..., None] * xt
    return num / (1.0 - ab_t)[..., None]


def residual_input(policy, xt, t):
    """The residual MLP's input rows (x_t, t/T)."""
    xt = np.asarray(xt, dtype=float)
    frac = np.asarray(t, dtype=float) / policy.schedule.T
    frac = np.broadcast_to(frac, xt.shape[:-1])[..., None]
    return np.concatenate([xt, frac], axis=-1)


def gauss_logpdf(x, mean, sig2):
    """log N(x; mean, sig2 I) over the last axis."""
    diff = np.asarray(x, dtype=float) - mean
    d = diff.shape[-1]
    return (-0.5 * d * np.log(2.0 * np.pi * sig2)
            - 0.5 * np.einsum("...i,...i->...", diff, diff) / sig2)


def mlp_forward_cache(net, x):
    """net's output and every layer's activations for an (n, in) batch."""
    h = np.asarray(x, dtype=float)
    acts = [h]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T + b
        h = np.tanh(z) if i < n_layers - 1 else z
        acts.append(h)
    return h, acts


def diversity(samples):
    """Mean pairwise Euclidean distance of (n, d) float rows."""
    arr = np.asarray(samples)
    iu, ju = np.triu_indices(arr.shape[0], k=1)
    diff = arr[iu] - arr[ju]
    return float(np.sqrt(np.sum(diff * diff, axis=-1)).mean())
