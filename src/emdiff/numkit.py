"""Minimal numeric kernel: stable reductions, categorical sampling, seeded
counter-based RNG streams, and a small MLP with hand-derived backprop.

Everything here is plain float64 numpy. No autodiff: gradients are chained
by hand where they are needed.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, RunAbortedError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _PhiloxKey(ISeedSequence):
    """Hands a Philox its two 64-bit key words, low word first, as the
    state it asks for. Philox(key=...) sets the same key, but first draws
    OS entropy for a SeedSequence it then ignores, which costs more than
    the rest of a stream's construction."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Identical (seed, stream, call sequence) reproduces identical outputs;
    distinct stream ids give statistically independent streams, so work can
    be scheduled in any order without changing results.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        # the Philox key (seed << 64) | stream, as its two 64-bit words
        key = _PhiloxKey(np.array([self.stream, self.seed], dtype=np.uint64))
        self.gen = np.random.Generator(np.random.Philox(key))

    def child(self, *indices):
        """Derive an independent sub-stream from integer indices."""
        s = self.stream
        for ix in indices:
            s = _splitmix64(s ^ _splitmix64(int(ix) & _MASK64))
        return RngStream(self.seed, s)

    def normal(self, size=None):
        return self.gen.standard_normal(size)

    def uniform(self, size=None):
        return self.gen.random(size)


def log_sum_exp(v, axis=None):
    """Shift-stable log(sum(exp(v))) along `axis` (all entries if None)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of empty input")
    m = np.max(v, axis=axis, keepdims=True)
    # -inf rows would produce nan through exp(-inf - -inf); pin them
    m_safe = np.where(np.isfinite(m), m, 0.0)
    # an all -inf row sums to 0 and logs to -inf, as intended
    with np.errstate(divide="ignore"):
        s = np.log(np.sum(np.exp(v - m_safe), axis=axis,
                          keepdims=True)) + m_safe
    s = np.where(np.isfinite(m), s, m)
    return float(s.reshape(())) if axis is None else np.squeeze(s, axis=axis)


# softmax reduces a short last axis column by column from this many entries on
SHORT_AXIS_MIN_SIZE = 2048


def softmax(v, axis=-1):
    """Exponentiate-and-normalize, invariant to adding a constant.

    numpy reduces a last axis shorter than 8 one entry after another, with
    a per-row cost that dominates at a few classes. From SHORT_AXIS_MIN_SIZE
    entries on, such an axis is reduced one class at a time instead, as
    whole-array operations in the same order: bit-identical, and about twice
    as fast at (320, 8, 4). Smaller inputs, and other axes, which numpy
    reduces by whole rows, keep numpy's reduction.
    """
    v = np.asarray(v, dtype=float)
    if (v.shape[-1] < 8 and v.size >= SHORT_AXIS_MIN_SIZE
            and axis in (-1, v.ndim - 1)):
        def reduce(op, a):
            return _fold(op, a)[..., None]
    else:
        def reduce(op, a):
            return op.reduce(a, axis=axis, keepdims=True)
    m = reduce(np.maximum, v)
    e = np.exp(v - np.where(np.isfinite(m), m, 0.0))
    return e / reduce(np.add, e)


def _fold(op, v):
    """op.reduce(v, axis=-1) as one op per entry along that axis, in order."""
    acc = v[..., 0].copy()
    for k in range(1, v.shape[-1]):
        op(acc, v[..., k], out=acc)
    return acc


def sq_dist(x, centers):
    """|x - c_k|^2 for every row c_k of centers, component-major:
    x (..., d) -> (K, ...).

    Expanded as |x|^2 - 2 c_k.x + |c_k|^2, so the cost is one
    (K, d) @ (d, n) product over the n flattened rows and no (K, n, d)
    difference is built. Component-major keeps sums over components row
    operations, which numpy vectorizes; a reduction along a short last
    axis costs several times more.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    sq = (np.einsum("ni,ni->n", flat, flat) - 2.0 * (centers @ flat.T)
          + np.einsum("ki,ki->k", centers, centers)[:, None])
    return sq.reshape(centers.shape[:1] + x.shape[:-1])


def float_array(value, ndim, what):
    """value as a non-empty float array with ndim axes; anything else (a
    ragged nested list, another rank, a non-number) raises ConfigError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{what} must be a {ndim}-d array of numbers") from e
    if arr.ndim != ndim or arr.size == 0:
        raise ConfigError(f"{what} must be a non-empty {ndim}-d array of "
                          f"numbers, got shape {arr.shape}")
    return arr


def normalized_weights(weights, n, what):
    """weights scaled to sum to 1, uniform if None. Given weights need n
    finite nonnegative values with a positive sum (else ConfigError)."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if (w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0)
            or not w.sum() > 0):
        raise ConfigError(f"{what}: need {n} finite values >= 0, sum > 0")
    return w / w.sum()


def sample_categorical(probs, rng, size=None):
    """Draw index i with probability probs[i].

    probs must be nonnegative and sum to 1 within 1e-9 (renormalized before
    drawing). With `size`, returns an int array of i.i.d. draws.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a non-empty 1-d array")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probs must be finite and nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probs sum to {total!r}, expected 1 within 1e-9")
    cdf = np.cumsum(p / total)
    cdf[-1] = 1.0
    u = rng.gen.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    return int(idx) if size is None else idx.astype(np.int64)


class Mlp:
    """Fully connected net with hand-derived backprop.

    widths = [in, hidden..., out]; tanh is applied between layers only, so
    a single-layer net is purely linear. `zero_last=True` zero-initializes
    the output layer, which makes the net the exact identity perturbation
    at initialization.
    """

    def __init__(self, widths, rng=None, zero_last=False):
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        self.widths = list(int(w) for w in widths)
        self.weights = []
        self.biases = []
        for i in range(len(self.widths) - 1):
            n_in, n_out = self.widths[i], self.widths[i + 1]
            last = i == len(self.widths) - 2
            if rng is None or (zero_last and last):
                w = np.zeros((n_out, n_in))
            else:
                w = rng.normal((n_out, n_in)) / np.sqrt(n_in)
            self.weights.append(w)
            self.biases.append(np.zeros(n_out))

    @property
    def in_width(self):
        return self.widths[0]

    def params(self):
        """Live references to parameter arrays, weights and biases interleaved."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        other = Mlp(self.widths)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def forward(self, x):
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass keeping every layer's activations for backward().

        Accepts a single (in,) vector or a (n, in) batch; output shape
        matches the input convention.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        h = x.reshape(1, -1) if single else x
        if h.shape[-1] != self.in_width:
            raise ValueError(
                f"input width {h.shape[-1]} != declared {self.in_width}")
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T
            h += b
            if i < n_layers - 1:
                np.tanh(h, out=h)
            acts.append(h)
        if not np.all(np.isfinite(h)):
            raise RunAbortedError("non-finite MLP output")
        return (h[0] if single else h), (acts, single)

    def backward(self, cache, upstream):
        """Gradients of sum(upstream * output) wrt parameters and input.

        Returns (param_grads, input_grad); param_grads matches params()
        order, with batch rows summed.
        """
        acts, single = cache
        delta = np.asarray(upstream, dtype=float)
        if single:
            delta = delta.reshape(1, -1)
        n_layers = len(self.weights)
        grads = [None] * (2 * n_layers)
        for i in range(n_layers - 1, -1, -1):
            if i < n_layers - 1:
                # tanh' = 1 - tanh^2, and acts[i + 1] is this layer's tanh
                delta = delta * (1.0 - acts[i + 1] * acts[i + 1])
            grads[2 * i] = delta.T @ acts[i]
            grads[2 * i + 1] = delta.sum(axis=0)
            delta = delta @ self.weights[i]
        dx = delta
        return grads, (dx[0] if single else dx)
