"""Run metrics: the discounted trajectory ELBO (exact on enumerable
instances, importance-sampled elsewhere), reward statistics, diversity, and
mode coverage.

ELBO values are reported per trajectory, not per step.
"""

from dataclasses import dataclass

import numpy as np

from . import discrete as disc
from .errors import ConfigError


@dataclass
class ElboRecord:
    """One metrics.csv row, its fields in column order."""
    epoch: int
    elbo: float
    estimator: str       # "exact-tabular" | "surrogate-is" | "none"
    mean_reward: float
    reward_std: float
    diversity: float
    mode_coverage: float = float("nan")
    weight_entropy: float = float("nan")
    fallbacks: int = 0
    loss_before: float = float("nan")
    loss_after: float = float("nan")


def elbo_exact_tabular(tables):
    """Discounted trajectory bound of the tables' own denoiser under the
    exact tilted policy, by forward DP over the chain (no sampling, no
    Monte-Carlo error).

    Terms: sum over steps of gamma^(T-t) (r_t/alpha + log p_theta - log eta*)
    with alpha, gamma, p_theta and eta* all read from the tables.
    """
    a, g = tables.cfg.alpha, tables.cfg.gamma
    den = tables.denoiser
    T = tables.schedule.T
    start = np.full(den.L, disc.mask_token(den.K), dtype=np.int64)
    nu = np.zeros(tables.states.shape[0])
    nu[tables.state_ix(start)] = 1.0
    total = 0.0
    for t in range(T, 0, -1):
        dst = tables.dst[t]
        log_eta = tables.log_eta(t)
        flow = nu[tables.src[t]] * np.exp(log_eta)
        r_term = tables.reward_vec[dst] / a if t == 1 else 0.0
        total += g ** (T - t) * float(
            flow @ (r_term + tables.logp[t] - log_eta))
        nu = np.bincount(dst, weights=flow, minlength=nu.size)
    return total


def elbo_by_path_enumeration(policy, tables, alpha):
    """Undiscounted ELBO by brute-force enumeration of whole trajectories.

    Independent of the forward-DP routine: recomputes log p_theta of every
    edge at t with one `policy.logprob` call over the edges' end states,
    then walks every trajectory of the tilted chain and accumulates
    eta(tau) * [sum_t (r_t/alpha + log p/eta)].
    """
    T = policy.schedule.T
    start = np.full(policy.L, disc.mask_token(policy.K), dtype=np.int64)
    log_eta = [None] + [tables.log_eta(t) for t in range(1, T + 1)]
    log_p = [None] + [policy.logprob(tables.states[tables.src[t]],
                                     tables.states[tables.dst[t]], t).tolist()
                      for t in range(1, T + 1)]

    def walk(s_ix, t, weight, acc):
        if t == 0:
            return weight * acc
        sl = tables.edges(t, s_ix)
        total = 0.0
        for u_ix, le, lp in zip(tables.dst[t][sl], log_eta[t][sl],
                                log_p[t][sl]):
            term = (lp - le
                    + (tables.reward_vec[u_ix] / alpha if t == 1 else 0.0))
            total += walk(int(u_ix), t - 1, weight * np.exp(le), acc + term)
        return total

    return walk(tables.state_ix(start), T, 1.0, 0.0)


def elbo_surrogate(policy, batch, alpha, gamma):
    """Importance-sampled ELBO from a posterior-search batch.

    Per step, log eta* is approximated by the proposal log density plus the
    self-normalized weight correction log(w / mean w); log p_theta is
    re-evaluated under `policy` (vectorized over the whole batch), so the
    batch can score an updated model.
    """
    if batch.n < 1 or not batch.searched:
        raise ConfigError("surrogate ELBO needs a non-empty search batch")
    n, T = batch.n, batch.T
    X_t, X_prev, t_rows = batch.transitions()
    log_p = policy.logprob(X_t, X_prev, t_rows)
    log_eta = batch.log_proposal + batch.log_weight_corr
    disc_w = gamma ** (T - t_rows.reshape(n, T))
    per_traj = np.sum(disc_w * (log_p.reshape(n, T) - log_eta), axis=1) \
        + gamma ** (T - 1) * batch.rewards / alpha
    return float(per_traj.mean())


def levenshtein(a, b):
    """Edit distance between two token arrays (insert/delete/substitute)."""
    a = np.asarray(a)
    b = np.asarray(b)
    prev = np.arange(b.size + 1)
    for i in range(1, a.size + 1):
        cur = np.empty(b.size + 1, dtype=np.int64)
        cur[0] = i
        for j in range(1, b.size + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return int(prev[-1])


def _pairwise_levenshtein_same_length(A, B):
    """Edit distances for aligned pair arrays (P, L), DP vectorized over P."""
    P, L = A.shape
    prev = np.broadcast_to(np.arange(L + 1), (P, L + 1)).copy()
    for i in range(1, L + 1):
        cur = np.empty((P, L + 1), dtype=np.int64)
        cur[:, 0] = i
        for j in range(1, L + 1):
            cost = (A[:, i - 1] != B[:, j - 1]).astype(np.int64)
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1),
                                   prev[:, j - 1] + cost)
        prev = cur
    return prev[:, -1]


def diversity(samples):
    """Mean pairwise distance: Euclidean for vectors, edit distance for
    token sequences (nonnegative integers).

    Token rows are compared once per pair of distinct rows, each distance
    weighted by how many pairs of rows it stands for; the distances are
    integers, so the mean is exactly the all-pairs one.
    """
    arr = np.asarray(samples)
    n = arr.shape[0]
    if n < 2:
        raise ConfigError("diversity needs at least two samples")
    if np.issubdtype(arr.dtype, np.floating):
        iu, ju = np.triu_indices(n, k=1)
        diff = arr[iu] - arr[ju]
        return float(np.sqrt(np.sum(diff * diff, axis=-1)).mean())
    rows, _, counts = disc.distinct_rows(arr, int(arr.max(initial=0)))
    iu, ju = np.triu_indices(rows.shape[0], k=1)
    dist = _pairwise_levenshtein_same_length(rows[iu], rows[ju])
    return int(np.dot(counts[iu] * counts[ju], dist)) / (n * (n - 1) // 2)


def mode_coverage(samples, mixture, radius_scale=2.0, radii=None):
    """Fraction of mixture components with at least one sample within the
    per-component radius (default twice the component std)."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if radii is None:
        radii = radius_scale * mixture.stds
    hit = 0
    for k in range(mixture.n_components):
        d = np.linalg.norm(x - mixture.means[k], axis=1)
        hit += bool(np.any(d <= radii[k]))
    return hit / mixture.n_components

