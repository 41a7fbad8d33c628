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
    elbo_kind: str       # "exact-tabular" | "surrogate-is" | "none"
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
    # the walk visits every path node, so it reads Python floats and ints:
    # memoryviews of the edge arrays (one np.exp per array) yield them
    # without a numpy scalar per read, and, unlike .tolist(), without an
    # object per edge up front, which fragmented a long process's heap
    dst, log_eta, eta, log_p = [None], [None], [None], [None]
    for t in range(1, T + 1):
        le = tables.log_eta(t)
        dst.append(memoryview(tables.dst[t]))
        log_eta.append(memoryview(le))
        eta.append(memoryview(np.exp(le)))
        log_p.append(memoryview(policy.logprob(
            tables.states[tables.src[t]], tables.states[tables.dst[t]], t)))
    reward = memoryview(tables.reward_vec)

    def walk(s_ix, t, weight, acc):
        if t == 0:
            return weight * acc
        sl = tables.edges(t, s_ix)
        total = 0.0
        for u_ix, le, e, lp in zip(dst[t][sl], log_eta[t][sl], eta[t][sl],
                                   log_p[t][sl]):
            term = lp - le + (reward[u_ix] / alpha if t == 1 else 0.0)
            total += walk(u_ix, t - 1, weight * e, acc + term)
        return total

    return walk(tables.state_ix(start), T, 1.0, 0.0)


def elbo_surrogate(batch, log_p, alpha, gamma):
    """Importance-sampled ELBO from a posterior-search batch.

    log_p is log p_theta of batch.transitions() under the model scored, as
    mstep.update reports it for the updated policy. Per step, log eta* is
    approximated by the proposal log density plus the self-normalized
    weight correction log(w / mean w).
    """
    if batch.n < 1 or not batch.searched:
        raise ConfigError("surrogate ELBO needs a non-empty search batch")
    n, T = batch.n, batch.T
    log_eta = batch.steps.log_proposal + batch.steps.log_weight_corr
    disc_w = gamma ** np.arange(T)      # column i is timestep T - i
    per_traj = np.sum(disc_w * (log_p.reshape(n, T) - log_eta), axis=1) \
        + gamma ** (T - 1) * batch.rewards / alpha
    return float(per_traj.mean())


_ONE, _HIGH = np.uint64(1), np.uint64(63)


def _edit_distances(rows, iu, ju, K):
    """Edit distances between rows[iu] and rows[ju] for equal-length token
    rows over {0..K}, by Hyyro's bit-vector form of Myers' algorithm
    (Nordic J. Computing 2003, after Myers, JACM 1999).

    Column j of the DP table holds D[i, j] for the prefixes rows[iu, :i]
    and rows[ju, :j]. It is kept as two bit vectors over i, VP and VN, the
    positions where D[i, j] - D[i - 1, j] is +1 and -1, so one column costs
    a few word operations per pair instead of L cell updates. A row longer
    than 64 spans W words, low positions first; the carry of
    (Eq & VP) + VP and the top bits of the horizontal +1/-1 vectors, which
    the shift moves up by one position, pass from each word to the next.

    The match masks Eq are built once per distinct row and symbol, as an
    (n_rows, K + 1, W) table, and gathered per pair at each column.
    """
    n_rows, L = rows.shape
    W = -(-L // 64)
    peq = np.zeros((n_rows, K + 1, W), dtype=np.uint64)
    every = np.arange(n_rows)
    for i in range(L):
        peq[every, rows[:, i], i // 64] |= _ONE << np.uint64(i % 64)
    vp = np.full((W, iu.size), ~np.uint64(0))
    vn = np.zeros((W, iu.size), dtype=np.uint64)
    dist = np.full(iu.size, L, dtype=np.uint64)     # D[L, 0]
    last = np.uint64((L - 1) % 64)                  # bit of row L in word W-1
    for j in range(L):
        sym = rows[ju, j]
        # row 0 of the table is D[0, j] = j: its horizontal delta is +1
        hp_in, hn_in, carry = _ONE, np.uint64(0), False
        for w in range(W):
            eq, v, n = peq[iu, sym, w], vp[w], vn[w]
            x = eq & v
            s = x + v + carry
            d0 = (s ^ v) | eq | n
            hp = n | ~(d0 | v)
            hn = d0 & v
            hp_up = (hp << _ONE) | hp_in
            hn_up = (hn << _ONE) | hn_in
            vp[w] = hn_up | ~(d0 | hp_up)
            vn[w] = d0 & hp_up
            if w + 1 < W:       # what the next word takes in
                carry = (s < x) | ((s == x) & carry)
                hp_in, hn_in = hp >> _HIGH, hn >> _HIGH
            else:               # row L of column j
                dist += (hp >> last) & _ONE
                dist -= (hn >> last) & _ONE
    return dist.astype(np.int64)


def diversity(samples):
    """Mean pairwise distance: Euclidean for vectors, edit distance for
    token sequences (nonnegative integers; a negative one is an error).

    Token rows are compared once per pair of distinct rows, each distance
    weighted by how many pairs of rows it stands for; the distances are
    integers, so the mean is exactly the all-pairs one.
    """
    arr = np.asarray(samples)
    n = arr.shape[0]
    if n < 2:
        raise ConfigError("diversity needs at least two samples")
    if np.issubdtype(arr.dtype, np.floating):
        # a column at a time: no (pairs, d) gather and no sum over a short
        # last axis, which numpy adds in order below 8 entries, as here
        iu, ju = np.triu_indices(n, k=1)
        sq = np.zeros(iu.size)
        for col in np.ascontiguousarray(arr.reshape(n, -1).T):
            diff = col.take(iu) - col.take(ju)
            sq += np.multiply(diff, diff, out=diff)
        return float(np.sqrt(sq, out=sq).mean())
    if arr.min(initial=0) < 0:
        raise ConfigError("diversity needs nonnegative tokens")
    K = int(arr.max(initial=0))
    rows, _, counts = disc.distinct_rows(arr, K)
    iu, ju = np.triu_indices(rows.shape[0], k=1)
    dist = _edit_distances(rows, iu, ju, K)
    return int(np.dot(counts[iu] * counts[ju], dist)) / (n * (n - 1) // 2)


def mode_coverage(samples, mixture, radius_scale=2.0):
    """Fraction of mixture components with at least one sample within
    radius_scale component stds."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    radii = radius_scale * mixture.stds
    hit = 0
    for k in range(mixture.n_components):
        d = np.linalg.norm(x - mixture.means[k], axis=1)
        hit += bool(np.any(d <= radii[k]))
    return hit / mixture.n_components

