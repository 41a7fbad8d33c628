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
from .numkit import Mlp, softmax
from .optim import Adam
from .trajectory import TrajectoryBatch

ENUM_CAP = 20_000


def mask_token(K):
    return K


def state_index(tokens, K):
    """Mixed-radix encoding of a token array over {0..K} (little-endian)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    radix = (K + 1) ** np.arange(tokens.shape[-1], dtype=np.int64)
    return tokens @ radix


def distinct_rows(tokens, K):
    """Distinct rows of an (n, L) token array over {0..K}.

    Returns (unique, inverse, counts) with unique[inverse] == tokens and
    counts[i] copies of unique[i] among the rows. Rows are keyed by
    state_index, so unique is ordered by it; where (K+1)^L exceeds the int64
    range the key would wrap, and the rows are compared position by position
    instead, ordered lexicographically.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    L = tokens.shape[-1]
    if (K + 1) ** L > 2**63:
        unique, inverse, counts = np.unique(tokens, axis=0,
                                            return_inverse=True,
                                            return_counts=True)
        return unique, inverse.reshape(-1), counts
    keys, inverse, counts = np.unique(state_index(tokens, K),
                                      return_inverse=True, return_counts=True)
    radix = (K + 1) ** np.arange(L, dtype=np.int64)
    return keys[:, None] // radix % (K + 1), inverse, counts


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
    """Mask each position of a clean sequence independently at level t."""
    x0 = np.asarray(x0, dtype=np.int64)
    if t == 0:
        return x0.copy()
    schedule.check_t(t)
    keep = rng.uniform(x0.shape) < schedule.alpha_bar[t]
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
        idx = state_index(tokens_batch, self.K)
        return self.table[idx]

    def accumulate_logit_grad(self, tokens_batch, t_batch, dlogits):
        grad = np.zeros_like(self.table)
        idx = state_index(tokens_batch, self.K)
        np.add.at(grad, idx, dlogits)
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
        onehot = np.zeros((n, self.L, self.K + 1))
        rows = np.arange(n)[:, None]
        cols = np.arange(self.L)[None, :]
        onehot[rows, cols, tokens_batch] = 1.0
        frac = np.broadcast_to(np.asarray(t_batch, dtype=float),
                               (n,))[:, None] / self.T
        return np.concatenate([onehot.reshape(n, -1), frac], axis=1)

    def logits(self, tokens_batch, t_batch):
        single = np.asarray(tokens_batch).ndim == 1
        x = self._encode(tokens_batch, t_batch)
        out = self.net.forward(x).reshape(-1, self.L, self.K)
        return out[0] if single else out

    def accumulate_logit_grad(self, tokens_batch, t_batch, dlogits):
        x = self._encode(tokens_batch, t_batch)
        _, cache = self.net.forward_cache(x)
        up = np.asarray(dlogits, dtype=float).reshape(x.shape[0], -1)
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
    onehot = np.zeros(probs.shape)
    np.put_along_axis(onehot, np.where(observed, tokens, 0)[..., None], 1.0,
                      axis=-1)
    return np.where(observed[..., None], onehot, probs)


def relaxed_x0(denoiser, tokens, t):
    """x0 distribution padded with a zero mask column, (..., L, K+1)."""
    p = x0_probs(denoiser, tokens, t)
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
    onehot = np.zeros(rows.shape)
    np.put_along_axis(onehot, np.where(observed, tokens, 0)[..., None], 1.0,
                      axis=-1)
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

    def rollout(self, rng, n):
        """n reverse chains from the all-mask state, vectorized across n;
        each step's substitution rows are computed once per distinct row."""
        if n < 1:
            raise ConfigError("rollout needs n >= 1")
        T = self.schedule.T
        X = np.full((n, self.L), mask_token(self.K), dtype=np.int64)
        states = [X]
        for t in range(T, 0, -1):
            U, inverse, _ = distinct_rows(X, self.K)
            rows = subs_position_probs(self.schedule, self.denoiser, U,
                                       t - 1, t)
            cdf = np.cumsum(rows, axis=-1)
            cdf[..., -1] = 1.0
            u = rng.child(t).uniform(X.shape)
            choice = (u[..., None] > cdf[inverse]).sum(axis=-1)
            X = np.where(X == mask_token(self.K), choice, X).astype(np.int64)
            states.append(X)
        return TrajectoryBatch(states=np.stack(states, axis=1),
                               snapshot=self.version)


def _mask_patterns(L):
    return np.array(list(itertools.product([False, True], repeat=L)))


def pretrain_weights(weights, n):
    """Normalized weights of n pretraining sequences, uniform if None. Given
    weights need one finite nonnegative value per sequence, positive sum."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if (w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0)
            or not w.sum() > 0):
        raise ConfigError("pretraining weights need one finite nonnegative "
                          "value per sequence with a positive sum")
    return w / w.sum()


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
    weights = pretrain_weights(weights, n)
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
    """Weighted cross-entropy on masked positions, with logit gradients."""
    logits = denoiser.logits(xt_batch, t_batch)
    probs = softmax(logits, axis=-1)
    masked = xt_batch == mask_token(denoiser.K)
    onehot = np.zeros_like(probs)
    rows = np.arange(xt_batch.shape[0])[:, None]
    cols = np.arange(denoiser.L)[None, :]
    onehot[rows, cols, x0_batch] = 1.0
    logp = np.log(np.take_along_axis(probs, x0_batch[..., None], axis=-1))[..., 0]
    w = row_weights[:, None] * masked
    loss = -np.sum(w * logp)
    dlogits = w[..., None] * (probs - onehot)
    grads = denoiser.accumulate_logit_grad(xt_batch, t_batch, dlogits)
    return loss, grads


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
    ab = schedule.alpha_bar[t_batch][:, None]
    keep = rng.uniform(x0_batch.shape) < ab
    xt_batch = np.where(keep, x0_batch, mask_token(denoiser.K))
    _, emit = stay_emit(schedule, t_batch - 1, t_batch)
    return _ce_rows(denoiser, xt_batch, t_batch, x0_batch,
                    emit / batch_size)
