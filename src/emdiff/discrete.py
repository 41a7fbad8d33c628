"""Masked discrete diffusion over length-L sequences with vocabulary K.

Tokens are 0..K-1 and the mask token is K. The forward process masks each
position independently; the reverse process uses the substitution
parameterization: unmasked tokens carry over deterministically and masked
positions mix between staying masked and emitting the denoiser's clean-token
prediction. Per-position next-state rows are laid out over K+1 classes with
the mask class last, matching the relaxed reward encoding.
"""

import itertools

import numpy as np

from .errors import ConfigError, OracleUnavailableError, UnreachableTransitionError
from .numkit import Mlp, log_sum_exp, normalized_weights, softmax
from .optim import Adam
from .trajectory import TrajectoryBatch

ENUM_CAP = 20_000
# distinct_keys counts its keys when their range is at most this many times
# their number
COUNT_DEDUP_RATIO = 4


def mask_token(K):
    return K


def state_index(tokens, K):
    """Mixed-radix encoding of a token array over {0..K} (little-endian)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    radix = (K + 1) ** np.arange(tokens.shape[-1], dtype=np.int64)
    return tokens @ radix


def distinct_keys(keys, n_keys):
    """Distinct values of the 1-d int64 keys, each in [0, n_keys).

    Returns (keys_u, inverse, counts): keys_u sorted, keys_u[inverse] ==
    keys and counts[i] copies of keys_u[i] among the keys. Where n_keys is
    at most COUNT_DEDUP_RATIO times the number of keys, they are counted
    into a table over every key (O(keys + n_keys), no sort); else they are
    sorted by np.unique. Both return the same arrays with the same dtypes.
    """
    if n_keys <= COUNT_DEDUP_RATIO * keys.size:
        per_key = np.bincount(keys, minlength=n_keys)
        keys_u = np.flatnonzero(per_key)
        slot = np.empty(per_key.size, dtype=np.intp)
        slot[keys_u] = np.arange(keys_u.size)
        return keys_u, slot[keys], per_key[keys_u]
    return np.unique(keys, return_inverse=True, return_counts=True)


def distinct_rows(tokens, K):
    """Distinct rows of an (n, L) token array over {0..K}.

    Returns (unique, inverse, counts) with unique[inverse] == tokens and
    counts[i] copies of unique[i] among the rows. Rows are keyed by
    state_index and deduplicated by distinct_keys over the (K+1)^L keys, so
    unique is ordered by the key. Where (K+1)^L exceeds the int64 range the
    key would wrap, and the rows are compared position by position instead,
    ordered lexicographically. All three paths return the same arrays with
    the same dtypes.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    L = tokens.shape[1]
    n_keys = (K + 1) ** L
    if n_keys > 2**63:
        unique, inverse, counts = np.unique(tokens, axis=0,
                                            return_inverse=True,
                                            return_counts=True)
        return unique, inverse.reshape(-1), counts
    keys_u, inverse, counts = distinct_keys(state_index(tokens, K), n_keys)
    radix = (K + 1) ** np.arange(L, dtype=np.int64)
    return keys_u[:, None] // radix % (K + 1), inverse, counts


def one_hot(tokens, width):
    """Rows of width entries, 1.0 at each token and 0.0 elsewhere:
    (...) -> (..., width)."""
    return (np.asarray(tokens)[..., None] == np.arange(width)).astype(float)


def draw_classes(cdf, u):
    """Inverse-cdf draw over the last axis of cdf: for each uniform u in
    [0, 1), the first class k with u <= cdf[..., k], the count of classes
    whose cdf lies below u. u broadcasts against cdf[..., 0].

    The last column of cdf must be 1 (set it; a cumsum may round below), so
    no u exceeds it and it is never read: classes are counted one column at
    a time over the first K, with no (..., K+1) comparison array. Repeated
    cdf values give a zero-mass class, which no u selects. Up to 256
    classes the count is kept in one byte and widened to int once.
    """
    u = np.asarray(u)
    shape = np.broadcast_shapes(u.shape, cdf.shape[:-1])
    out = np.zeros(shape, dtype=np.uint8 if cdf.shape[-1] <= 256 else int)
    above = np.empty(shape, dtype=bool)
    for k in range(cdf.shape[-1] - 1):
        np.greater(u, cdf[..., k], out=above)
        out += above
    return out.astype(int, copy=False)


def draw_successors(X, probs, inverse, u):
    """Next states of the (n, L) token rows X: masked positions draw from
    probs[inverse], the (nu, L, K+1) next-state rows of X's distinct rows,
    and unmasked ones carry over in place. u, (n, L) or (n, M, L) for M
    candidates per row, holds one uniform per position."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    lead = tuple(range(1, np.ndim(u) - 1))   # the candidate axis, if any
    states = draw_classes(np.expand_dims(cdf[inverse], lead), u)
    np.copyto(states, np.expand_dims(X, lead),
              where=np.expand_dims(X != mask_token(probs.shape[-1] - 1), lead))
    return states


def enumerate_states(L, K, cap=ENUM_CAP):
    """All (K+1)^L token arrays, ordered by state_index."""
    n = (K + 1) ** L
    if n > cap:
        raise OracleUnavailableError(
            f"(K+1)^L = {n} exceeds enumeration cap {cap}")
    states = np.zeros((n, L), dtype=np.int64)
    idx = np.arange(n)
    for pos in range(L):
        states[:, pos] = (idx // (K + 1) ** pos) % (K + 1)
    return states


def forward_mask_sample(schedule, x0, t, rng, K):
    """Mask each position of clean sequences (..., L) independently at
    level t, a scalar or one step per row of x0's leading shape. At t = 0
    nothing is masked and rng is not read."""
    x0 = np.asarray(x0, dtype=np.int64)
    t = np.asarray(t)
    if not t.any():
        return x0.copy()
    schedule.check_t(t.min())
    schedule.check_t(t.max())
    keep = rng.uniform(x0.shape) < schedule.alpha_bar[t][..., None]
    return np.where(keep, x0, mask_token(K))


class TabularDenoiser:
    """Full table of clean-token logits, one (L, K) block per masked state.

    The table is t-independent: under the absorbing forward process the
    clean posterior depends only on which positions are observed.
    """

    kind = "tabular"

    def __init__(self, L, K, cap=ENUM_CAP):
        self.L = int(L)
        self.K = int(K)
        self.n_states = (K + 1) ** L
        if self.n_states > cap:
            raise OracleUnavailableError(
                f"tabular denoiser needs (K+1)^L <= {cap}")
        self.table = np.zeros((self.n_states, self.L, self.K))

    def params(self):
        return [self.table]

    def copy(self):
        other = TabularDenoiser(self.L, self.K)
        other.table = self.table.copy()
        return other

    def logits(self, tokens_batch, t_batch=None):
        return self.forward_cache(tokens_batch, t_batch)[0]

    def forward_cache(self, tokens, t=None):
        """Logits of the rows and, for backward(), their table indices."""
        idx = state_index(tokens, self.K)
        return self.table[idx], idx

    def backward(self, cache, dlogits):
        """Gradient of sum(dlogits * logits) wrt the table, as [grad]."""
        grad = np.zeros_like(self.table)
        np.add.at(grad, cache, dlogits)
        return [grad]


class MlpDenoiser:
    """MLP from the one-hot sequence encoding plus t/T to per-position logits."""

    kind = "mlp"

    def __init__(self, L, K, T, widths=(64,), rng=None):
        self.L = int(L)
        self.K = int(K)
        self.T = int(T)
        self.net = Mlp([L * (K + 1) + 1, *widths, L * K], rng=rng)

    def params(self):
        return self.net.params()

    def copy(self):
        other = MlpDenoiser(self.L, self.K, self.T)
        other.net = self.net.copy()
        return other

    def _encode(self, tokens_batch, t_batch):
        tokens_batch = np.atleast_2d(np.asarray(tokens_batch, dtype=np.int64))
        n = tokens_batch.shape[0]
        onehot = one_hot(tokens_batch, self.K + 1).reshape(n, -1)
        frac = np.broadcast_to(np.asarray(t_batch, dtype=float),
                               (n,))[:, None] / self.T
        return np.concatenate([onehot, frac], axis=1)

    def logits(self, tokens_batch, t_batch):
        return self.forward_cache(tokens_batch, t_batch)[0]

    def forward_cache(self, tokens, t):
        """(..., L, K) logits of rows (..., L) and the cache for backward()."""
        out, cache = self.net.forward_cache(self._encode(tokens, t))
        shape = np.shape(tokens)[:-1] + (self.L, self.K)
        return out.reshape(shape), cache

    def backward(self, cache, dlogits):
        """Gradients of sum(dlogits * logits) wrt params(), in its order."""
        up = np.asarray(dlogits, dtype=float).reshape(-1, self.L * self.K)
        grads, _ = self.net.backward(cache, up)
        return grads


def x0_probs(denoiser, tokens, t):
    """Clean-token distribution per position, (..., L, K).

    Unmasked positions are forced to a point mass on the observed token,
    which is what makes carry-over exact.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    logits = denoiser.logits(tokens, t)
    probs = softmax(logits, axis=-1)
    K = denoiser.K
    observed = tokens != mask_token(K)
    onehot = one_hot(np.where(observed, tokens, 0), K)
    return np.where(observed[..., None], onehot, probs)


def relaxed_x0(denoiser, tokens, t, x0=None):
    """x0 distribution padded with a zero mask column, (..., L, K+1). x0
    optionally supplies x0_probs(denoiser, tokens, t)."""
    p = x0_probs(denoiser, tokens, t) if x0 is None else x0
    pad = np.zeros(p.shape[:-1] + (1,))
    return np.concatenate([p, pad], axis=-1)


def stay_emit(schedule, s, t):
    """Reverse-step mixture weights of a masked position going from t to s:
    it stays masked with probability (1-abar_s)/(1-abar_t) and emits a clean
    token with probability (abar_s-abar_t)/(1-abar_t). s and t may be arrays.
    """
    ab_s, ab_t = schedule.alpha_bar[s], schedule.alpha_bar[t]
    return (1.0 - ab_s) / (1.0 - ab_t), (ab_s - ab_t) / (1.0 - ab_t)


def subs_position_probs(schedule, denoiser, tokens, s, t, x0=None):
    """Per-position reverse-transition rows over K+1 classes, (..., L, K+1):
    the masked reverse kernel that search, rollouts, the exact tables and
    every transition log-probability read.

    Unmasked positions put mass 1 on their token; masked positions keep the
    mask with probability stay and otherwise emit from the denoiser
    prediction (see stay_emit). s and t are scalars or arrays over the
    leading shape of tokens, one step per row. x0 optionally supplies
    x0_probs(denoiser, tokens, t) when the caller already has it.
    """
    s, t = np.asarray(s), np.asarray(t)
    if (s >= t).any():
        raise ConfigError(f"reverse step needs s < t, got s={s} t={t}")
    schedule.check_t(t.min())
    schedule.check_t(t.max())
    tokens = np.asarray(tokens, dtype=np.int64)
    K = denoiser.K
    # one (stay, emit) pair per row, broadcast over positions and classes
    stay, emit = stay_emit(schedule, s[..., None, None], t[..., None, None])
    probs = x0_probs(denoiser, tokens, t) if x0 is None else x0
    rows = np.concatenate([emit * probs,
                           np.full(probs.shape[:-1] + (1,), stay)], axis=-1)
    observed = tokens != mask_token(K)
    onehot = one_hot(np.where(observed, tokens, 0), K + 1)
    return np.where(observed[..., None], onehot, rows)


def transition_logprob(schedule, denoiser, xt, xprev, t, x0=None):
    """log p(x_{t-1} = xprev | x_t = xt) over aligned rows (..., L): the sum
    of the logs of the subs_position_probs entries at xprev, each floored at
    1e-300.

    t is per row (broadcast against the leading shape), and a leading axis
    of length 1 in xt broadcasts against xprev. x0 optionally supplies the
    clean-token probabilities at xt; only their masked positions are read.
    Raises UnreachableTransitionError if an unmasked token changes or a mask
    is kept into s = 0.
    """
    xt = np.asarray(xt, dtype=np.int64)
    xprev = np.asarray(xprev, dtype=np.int64)
    t = np.asarray(t)
    rows = subs_position_probs(schedule, denoiser, xt, t - 1, t, x0=x0)
    m = mask_token(denoiser.K)
    masked = xt == m
    if np.any(~masked & (xprev != xt)):
        raise UnreachableTransitionError(
            "carry-over violated: unmasked token changed")
    p = np.take_along_axis(rows, xprev[..., None], axis=-1)[..., 0]
    if np.any(masked & (xprev == m) & (p <= 0)):
        raise UnreachableTransitionError(
            "mask retained outside schedule support")
    return np.log(np.maximum(p, 1e-300)).sum(axis=-1)


class DiscretePolicy:
    """Denoiser plus schedule, presented with the same surface as the
    continuous policy so the alignment loop is world-agnostic."""

    def __init__(self, schedule, denoiser):
        self.schedule = schedule
        self.denoiser = denoiser
        self.version = 0

    @property
    def L(self):
        return self.denoiser.L

    @property
    def K(self):
        return self.denoiser.K

    def params(self):
        return self.denoiser.params()

    def pretrained_copy(self):
        return DiscretePolicy(self.schedule, self.denoiser.copy())

    def logprob(self, xt, xprev, t):
        return transition_logprob(self.schedule, self.denoiser, xt, xprev, t)

    def start(self, rng, n):
        """n chain start states, each all masks (rng is not read)."""
        if n < 1:
            raise ConfigError("a chain batch needs n >= 1")
        return np.full((n, self.L), mask_token(self.K), dtype=np.int64)

    def rollout(self, rng, n):
        """n reverse chains from start(rng, n), vectorized across n; each
        step's substitution rows are computed once per distinct row."""
        X = self.start(rng, n)
        states = [X]
        for t in range(self.schedule.T, 0, -1):
            U, inverse, _ = distinct_rows(X, self.K)
            rows = subs_position_probs(self.schedule, self.denoiser, U,
                                       t - 1, t)
            X = draw_successors(X, rows, inverse,
                                rng.child(t).uniform(X.shape))
            states.append(X)
        return TrajectoryBatch(states=np.stack(states, axis=1),
                               snapshot=self.version)

    def propose(self, reward, X, t, cfg, rng, carry=None):
        """Search candidates (n, M, L) from token rows X (n, L) at t, their
        proposal and prior log-probabilities, relaxed r(x0hat) and their
        carry (see estep.search_step_batch): x0_probs at t - 1, a row per
        distinct candidate. Each distinct row of X is evaluated once, from
        its carry if given."""
        den = self.denoiser
        n, L = X.shape
        U, inverse, _ = distinct_rows(X, den.K)
        nu = U.shape[0]
        if carry is None:
            p0 = x0_probs(den, U, np.full(nu, t))              # (nu, L, K)
        else:
            table, kept = carry
            slot = np.empty(nu, dtype=np.intp)
            slot[inverse] = kept
            p0 = table[slot]
        rows = subs_position_probs(self.schedule, den, U, t - 1, t, x0=p0)
        with np.errstate(divide="ignore"):
            log_rows = np.log(rows)
        if cfg.guidance:
            g = reward.relaxed_grad(relaxed_x0(den, U, t, x0=p0))
            # per-position logit shifts over the K+1 classes; the mask class
            # takes the denoiser-averaged token gradient, since keeping the
            # mask keeps the denoiser's prediction in play
            shift = np.concatenate(
                [g[..., :den.K],
                 np.sum(p0 * g[..., :den.K], axis=-1)[..., None]], axis=-1)
            prop_logits = log_rows + cfg.gamma ** (t - 1) / cfg.alpha * shift
            prop_logp = prop_logits - log_sum_exp(prop_logits,
                                                  axis=-1)[..., None]
        else:
            prop_logp = log_rows
        states = draw_successors(X, np.exp(prop_logp), inverse,
                                 rng.uniform((n, cfg.particles, L)))
        S, cand, _ = distinct_rows(states.reshape(-1, L), den.K)
        p0_s = x0_probs(den, S, t - 1)
        r_hat = reward.relaxed_value(relaxed_x0(den, S, t - 1, x0=p0_s))
        # the log-probabilities of the drawn classes, gathered by flat index
        # into the (nu, L, K+1) tables and summed once per distinct (parent
        # row, candidate) pair: a pair's row holds the values and mask of
        # every candidate it stands for. The masked sum adds each run of
        # masked positions on its own; keep it, it fixes the rounding
        nS = S.shape[0]
        cand = cand.reshape(states.shape[:-1])
        pairs, pair_inv, _ = distinct_keys(
            (inverse[:, None] * nS + cand).ravel(), nu * nS)
        parent, child = np.divmod(pairs, nS)
        masked = U[parent] == mask_token(den.K)
        flat = ((parent * L)[:, None] + np.arange(L)) * (den.K + 1) + S[child]
        log_prop = np.sum(np.take(prop_logp, flat), axis=-1, where=masked)
        log_prior = np.sum(np.take(log_rows, flat), axis=-1, where=masked)
        return (states, log_prop[pair_inv].reshape(cand.shape),
                log_prior[pair_inv].reshape(cand.shape), r_hat[cand],
                (p0_s, cand))

    def anchor(self, batch):
        """As the frozen twin, the KL anchor at batch.transitions(): the
        unforced clean-token probabilities."""
        X_t, _, t = batch.transitions()
        return softmax(self.denoiser.logits(X_t, t), axis=-1)

    def distill_loss(self, batch, row_w, kl_w, kl_coeff, p0_pre):
        """One forward pass of the distillation loss (see mstep._loss);
        p0_pre is the twin's anchor."""
        den = self.denoiser
        m = mask_token(den.K)
        rows_xt, rows_prev, rows_t = batch.transitions()
        logits, cache = den.forward_cache(rows_xt, rows_t)      # (N, L, K)
        p0 = softmax(logits, axis=-1)
        logp = transition_logprob(self.schedule, den, rows_xt, rows_prev,
                                  rows_t, x0=p0)
        nll = -float(row_w @ logp)

        # KL(p_theta || p_pre) per masked position, scaled by the emit mass
        masked = rows_xt == m
        logratio = np.log(p0) - np.log(p0_pre)
        kl_pos = np.sum(p0 * logratio, axis=-1)
        _, emit = stay_emit(self.schedule, rows_t - 1, rows_t)
        kl_rows = np.where(masked, emit[:, None] * kl_pos, 0.0)
        kl = float(kl_w @ kl_rows.sum(axis=1))
        total = nll + kl_coeff * kl

        def backward():
            emit_pos = masked & (rows_prev != m)
            onehot = one_hot(np.where(emit_pos, rows_prev, 0), den.K)
            dlogits = np.where(emit_pos[..., None], p0 - onehot, 0.0) \
                * row_w[:, None, None]
            if kl_coeff > 0:
                dkl = p0 * (logratio - kl_pos[..., None])
                dlogits = dlogits + kl_coeff * np.where(
                    masked[..., None], (kl_w * emit)[:, None, None] * dkl,
                    0.0)
            return den.backward(cache, dlogits)

        return total, nll, kl, logp, backward


def _mask_patterns(L):
    return np.array(list(itertools.product([False, True], repeat=L)))


def pretrain(denoiser, schedule, sequences, weights=None, epochs=200, lr=0.05,
             rng=None, batch_size=None):
    """Fit the denoiser by the schedule-weighted masked cross-entropy.

    The per-step weight is the emit probability of stay_emit(t - 1, t), and
    loss is taken on masked positions only. With a tabular denoiser and
    small L the expectation over mask patterns is enumerated exactly, making
    the fit deterministic; otherwise patterns are sampled.

    Returns the per-epoch loss history (empty if epochs == 0).
    """
    sequences = np.atleast_2d(np.asarray(sequences, dtype=np.int64))
    if sequences.size == 0:
        raise ConfigError("pretraining needs a non-empty dataset")
    n, L = sequences.shape
    weights = normalized_weights(weights, n, "pretraining weights")
    K = denoiser.K
    T = schedule.T
    exact = denoiser.kind == "tabular" and 2**L <= 1024
    if exact:
        rows = _exact_pretrain_rows(denoiser, schedule, sequences, weights)
    opt = Adam(denoiser.params(), lr=lr)
    history = []
    for epoch in range(epochs):
        if exact:
            loss, grads = _ce_rows(denoiser, *rows)
        else:
            if rng is None:
                raise ConfigError("sampled pretraining needs an rng")
            loss, grads = _pretrain_pass_sampled(denoiser, schedule, sequences,
                                                 weights, rng.child(epoch),
                                                 batch_size or n)
        opt.step(grads)
        history.append(loss)
    return history


def _ce_rows(denoiser, xt_batch, t_batch, x0_batch, row_weights):
    """Weighted cross-entropy on masked positions, with its gradients."""
    logits, cache = denoiser.forward_cache(xt_batch, t_batch)
    probs = softmax(logits, axis=-1)
    masked = xt_batch == mask_token(denoiser.K)
    onehot = one_hot(x0_batch, denoiser.K)
    logp = np.log(np.take_along_axis(probs, x0_batch[..., None], axis=-1))[..., 0]
    w = row_weights[:, None] * masked
    loss = -np.sum(w * logp)
    dlogits = w[..., None] * (probs - onehot)
    return loss, denoiser.backward(cache, dlogits)


def _exact_pretrain_rows(denoiser, schedule, sequences, weights):
    """The rows (xt, t, x0, weight) of the exact pretraining objective: every
    sequence under every nonempty mask pattern at every t, weighted by the
    pattern's probability. They do not change between epochs."""
    L = sequences.shape[1]
    patterns = _mask_patterns(L)
    xt_rows, t_rows, x0_rows, w_rows = [], [], [], []
    for t in range(1, schedule.T + 1):
        ab = schedule.alpha_bar[t]
        _, emit = stay_emit(schedule, t - 1, t)
        # P(pattern) = prod over positions of keep/mask probabilities
        pat_p = np.prod(np.where(patterns, 1.0 - ab, ab), axis=1)
        for pat, pp in zip(patterns, pat_p):
            if pp == 0 or not pat.any():
                continue
            xt = np.where(pat, mask_token(denoiser.K), sequences)
            xt_rows.append(xt)
            t_rows.append(np.full(len(sequences), t))
            x0_rows.append(sequences)
            w_rows.append(weights * emit * pp)
    return tuple(np.concatenate(c) for c in (xt_rows, t_rows, x0_rows,
                                             w_rows))


def _pretrain_pass_sampled(denoiser, schedule, sequences, weights, rng,
                           batch_size):
    n = sequences.shape[0]
    pick = rng.gen.choice(n, size=batch_size, p=weights)
    x0_batch = sequences[pick]
    t_batch = rng.gen.integers(1, schedule.T + 1, size=batch_size)
    xt_batch = forward_mask_sample(schedule, x0_batch, t_batch, rng,
                                   denoiser.K)
    _, emit = stay_emit(schedule, t_batch - 1, t_batch)
    return _ce_rows(denoiser, xt_batch, t_batch, x0_batch,
                    emit / batch_size)
