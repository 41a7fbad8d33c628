"""Reward functions over clean samples, for both domains.

Continuous rewards act on vectors and expose analytic gradients. Discrete
rewards act on token arrays and additionally expose a relaxed version
defined on per-position probability rows (the multilinear extension), which
coincides with the exact count on one-hot rows. Relaxed rows have K+1
columns; the last column is the mask class and never matches anything.

Any reward can be flagged non-differentiable to exercise the black-box
pathway, in which case gradient calls raise.
"""

import numpy as np

from .errors import ConfigError

CONTINUOUS = "continuous"
DISCRETE = "discrete"


class Reward:
    def __init__(self, name, domain, differentiable=True):
        self.name = name
        self.domain = domain
        self.differentiable = differentiable

    def value(self, x0):
        raise NotImplementedError

    def grad(self, x0):
        if not self.differentiable:
            raise ConfigError(f"reward {self.name!r} is black-box: no gradient")
        return self._grad(x0)

    def _grad(self, x0):
        raise NotImplementedError

    def as_black_box(self):
        import copy

        other = copy.copy(self)
        other.differentiable = False
        return other


class LinearReward(Reward):
    """r(x) = c . x"""

    def __init__(self, coeffs, differentiable=True):
        super().__init__("linear", CONTINUOUS, differentiable)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def value(self, x0):
        return np.asarray(x0, dtype=float) @ self.coeffs

    def _grad(self, x0):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 1:
            return self.coeffs.copy()
        return np.broadcast_to(self.coeffs, x0.shape).copy()


class NegSquaredDistReward(Reward):
    """r(x) = -|x - g|^2, maximized at the target g."""

    def __init__(self, target, differentiable=True):
        super().__init__("neg_sq_dist", CONTINUOUS, differentiable)
        self.target = np.asarray(target, dtype=float)

    def value(self, x0):
        d = np.asarray(x0, dtype=float) - self.target
        return -np.sum(d * d, axis=-1)

    def _grad(self, x0):
        return -2.0 * (np.asarray(x0, dtype=float) - self.target)


class ModePreferenceReward(Reward):
    """r(x) = sum_k a_k exp(-|x - mu_k|^2 / (2 tau^2))"""

    def __init__(self, amps, centers, tau, differentiable=True):
        super().__init__("mode_preference", CONTINUOUS, differentiable)
        self.amps = np.asarray(amps, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        self.tau = float(tau)
        if self.centers.shape[0] != self.amps.shape[0]:
            raise ConfigError("mode_preference: amps and centers disagree")

    def _bumps(self, x0):
        x0 = np.asarray(x0, dtype=float)
        diff = x0[..., None, :] - self.centers  # (..., K, d)
        sq = np.sum(diff * diff, axis=-1)
        return diff, np.exp(-sq / (2.0 * self.tau**2))

    def value(self, x0):
        _, e = self._bumps(x0)
        return np.sum(self.amps * e, axis=-1)

    def _grad(self, x0):
        diff, e = self._bumps(x0)
        w = (self.amps * e)[..., None]
        return np.sum(w * (-diff / self.tau**2), axis=-2)


class MotifCountReward(Reward):
    """Number of windows matching a fixed motif (overlaps counted).

    Relaxed value is the expected count under independent per-position
    probability rows: sum over windows of the product of matched entries.
    """

    def __init__(self, motif, vocab, differentiable=True):
        super().__init__("motif_count", DISCRETE, differentiable)
        self.motif = np.asarray(motif, dtype=np.int64)
        self.vocab = int(vocab)
        if self.motif.size == 0 or np.any(self.motif < 0) or np.any(self.motif >= vocab):
            raise ConfigError("motif tokens must lie in the vocabulary")

    def value(self, x0):
        x0 = np.asarray(x0, dtype=np.int64)
        m = self.motif.size
        if x0.shape[-1] < m:
            counts = np.zeros(x0.shape[:-1])
        else:
            win = np.lib.stride_tricks.sliding_window_view(x0, m, axis=-1)
            hits = np.all(win == self.motif, axis=-1)
            counts = hits.sum(axis=-1).astype(float)
        return float(counts) if x0.ndim == 1 else counts

    def relaxed_value(self, probs):
        p = np.asarray(probs, dtype=float)
        m = self.motif.size
        L = p.shape[-2]
        if L < m:
            return 0.0 if p.ndim == 2 else np.zeros(p.shape[0])
        total = 0.0
        for start in range(L - m + 1):
            term = 1.0
            for j, tok in enumerate(self.motif):
                term = term * p[..., start + j, tok]
            total = total + term
        return total

    def relaxed_grad(self, probs):
        if not self.differentiable:
            raise ConfigError(f"reward {self.name!r} is black-box: no gradient")
        p = np.asarray(probs, dtype=float)
        g = np.zeros_like(p)
        m = self.motif.size
        L = p.shape[-2]
        for start in range(L - m + 1 if L >= m else 0):
            vals = np.stack([p[..., start + j, tok]
                             for j, tok in enumerate(self.motif)], axis=-1)
            for j, tok in enumerate(self.motif):
                others = np.prod(np.delete(vals, j, axis=-1), axis=-1)
                g[..., start + j, tok] += others
        return g

    def _grad(self, x0):
        raise ConfigError("motif_count gradient is defined on relaxed inputs")


class TokenCountReward(Reward):
    """Number of positions equal to a designated token."""

    def __init__(self, token, vocab, differentiable=True):
        super().__init__("token_count", DISCRETE, differentiable)
        self.token = int(token)
        self.vocab = int(vocab)
        if not 0 <= self.token < vocab:
            raise ConfigError("token outside vocabulary")

    def value(self, x0):
        x0 = np.asarray(x0, dtype=np.int64)
        return np.sum(x0 == self.token, axis=-1).astype(float)

    def relaxed_value(self, probs):
        return np.sum(np.asarray(probs, dtype=float)[..., :, self.token], axis=-1)

    def relaxed_grad(self, probs):
        if not self.differentiable:
            raise ConfigError(f"reward {self.name!r} is black-box: no gradient")
        g = np.zeros_like(np.asarray(probs, dtype=float))
        g[..., :, self.token] = 1.0
        return g

    def _grad(self, x0):
        raise ConfigError("token_count gradient is defined on relaxed inputs")


def tokens_from_string(s, alphabet):
    try:
        return np.array([alphabet.index(ch) for ch in s], dtype=np.int64)
    except ValueError as e:
        raise ConfigError(f"motif {s!r} uses characters outside {alphabet!r}") from e


def make_reward(cfg, vocab=None, alphabet=None):
    """Build a reward from a config mapping (see README for the schema)."""
    name = cfg.get("name")
    diff = bool(cfg.get("differentiable", True))
    if name == "linear":
        return LinearReward(cfg["coeffs"], diff)
    if name == "neg_sq_dist":
        return NegSquaredDistReward(cfg["target"], diff)
    if name == "mode_preference":
        return ModePreferenceReward(cfg["amps"], cfg["centers"], cfg["tau"], diff)
    if name == "motif_count":
        motif = cfg["motif"]
        if isinstance(motif, str):
            motif = tokens_from_string(motif, alphabet)
        return MotifCountReward(motif, vocab, diff)
    if name == "token_count":
        token = cfg["token"]
        if isinstance(token, str):
            token = int(tokens_from_string(token, alphabet)[0])
        return TokenCountReward(token, vocab, diff)
    raise ConfigError(f"unknown reward {name!r}")
