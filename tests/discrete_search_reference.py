"""Reference forms of the discrete sampling kernels that ``emdiff.discrete``
is tested against, byte for byte: the inverse-cdf draw as one broadcast
comparison over every class, the proposal's log-probability gathers by
three index arrays, and the distinct rows by a sort of their keys. The
proposal and the rollout are written out on top of them."""

import numpy as np

from emdiff import discrete as disc
from emdiff.numkit import log_sum_exp


def draw_classes(cdf, u):
    """The first class whose cdf reaches u, by an (..., K+1) comparison."""
    return (np.asarray(u)[..., None] > cdf).sum(axis=-1)


def distinct_rows(tokens, K):
    """Distinct rows by np.unique over the state keys (or the rows, where
    the keys would leave the int64 range)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    L = tokens.shape[-1]
    if (K + 1) ** L > 2**63:
        unique, inverse, counts = np.unique(tokens, axis=0,
                                            return_inverse=True,
                                            return_counts=True)
        return unique, inverse.reshape(-1), counts
    keys, inverse, counts = np.unique(disc.state_index(tokens, K),
                                      return_inverse=True, return_counts=True)
    radix = (K + 1) ** np.arange(L, dtype=np.int64)
    return keys[:, None] // radix % (K + 1), inverse, counts


def propose(policy, reward, X, t, cfg, rng, carry=None):
    """DiscretePolicy.propose on the reference kernels, with X's clean-token
    probabilities computed afresh (a carry is not read)."""
    den = policy.denoiser
    n, L = X.shape
    M = cfg.particles
    U, inverse, _ = distinct_rows(X, den.K)
    nu = U.shape[0]
    p0 = disc.x0_probs(den, U, np.full(nu, t))
    rows = disc.subs_position_probs(policy.schedule, den, U, t - 1, t, x0=p0)
    with np.errstate(divide="ignore"):
        log_rows = np.log(rows)
    if cfg.guidance:
        relaxed = np.concatenate([p0, np.zeros((nu, L, 1))], axis=-1)
        g = reward.relaxed_grad(relaxed)
        shift = np.concatenate(
            [g[..., :den.K], np.sum(p0 * g[..., :den.K], axis=-1)[..., None]],
            axis=-1)
        prop_logits = log_rows + cfg.gamma ** (t - 1) / cfg.alpha * shift
        prop_logp = prop_logits - log_sum_exp(prop_logits, axis=-1)[..., None]
    else:
        prop_logp = log_rows
    cdf = np.cumsum(np.exp(prop_logp), axis=-1)
    cdf[..., -1] = 1.0
    masked = (X == disc.mask_token(den.K))[:, None, :]
    states = draw_classes(cdf[inverse][:, None], rng.uniform((n, M, L)))
    np.copyto(states, X[:, None, :], where=~masked)
    pick = (inverse[:, None, None], np.arange(L), states)
    log_prop = np.sum(prop_logp[pick], axis=-1, where=masked)
    log_prior = np.sum(log_rows[pick], axis=-1, where=masked)
    S, inv_s, _ = distinct_rows(states.reshape(-1, L), den.K)
    p0_s = disc.x0_probs(den, S, t - 1)
    r = reward.relaxed_value(disc.relaxed_x0(den, S, t - 1))
    inv_s = inv_s.reshape(n, M)
    return states, log_prop, log_prior, r[inv_s], (p0_s, inv_s)


def rollout(policy, rng, n):
    """DiscretePolicy.rollout's states on the reference kernels."""
    K = policy.K
    X = np.full((n, policy.L), disc.mask_token(K), dtype=np.int64)
    states = [X]
    for t in range(policy.schedule.T, 0, -1):
        U, inverse, _ = distinct_rows(X, K)
        rows = disc.subs_position_probs(policy.schedule, policy.denoiser, U,
                                        t - 1, t)
        cdf = np.cumsum(rows, axis=-1)
        cdf[..., -1] = 1.0
        choice = draw_classes(cdf[inverse], rng.child(t).uniform(X.shape))
        X = np.where(X == disc.mask_token(K), choice, X).astype(np.int64)
        states.append(X)
    return np.stack(states, axis=1)
