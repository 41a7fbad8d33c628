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
from .numkit import float_array, sq_dist


class Reward:
    def __init__(self, name, differentiable=True):
        self.name = name
        self.differentiable = differentiable

    def value(self, x0):
        raise NotImplementedError

    def grad(self, x0):
        if not self.differentiable:
            raise ConfigError(f"reward {self.name!r} is black-box: no gradient")
        return self._grad(x0)

    def _grad(self, x0):
        raise NotImplementedError

    def relaxed_grad(self, probs):
        """Gradient of relaxed_value wrt the (..., L, K+1) probability
        rows (discrete rewards)."""
        if not self.differentiable:
            raise ConfigError(f"reward {self.name!r} is black-box: no gradient")
        return self._relaxed_grad(probs)


class LinearReward(Reward):
    """r(x) = c . x"""

    def __init__(self, coeffs, differentiable=True):
        super().__init__("linear", differentiable)
        self.coeffs = float_array(coeffs, 1, "linear coeffs")
        self.dim = self.coeffs.size

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
        super().__init__("neg_sq_dist", differentiable)
        self.target = float_array(target, 1, "neg_sq_dist target")
        self.dim = self.target.size

    def value(self, x0):
        d = np.asarray(x0, dtype=float) - self.target
        return -np.sum(d * d, axis=-1)

    def _grad(self, x0):
        return -2.0 * (np.asarray(x0, dtype=float) - self.target)


class ModePreferenceReward(Reward):
    """r(x) = sum_k a_k exp(-|x - mu_k|^2 / (2 tau^2))"""

    def __init__(self, amps, centers, tau, differentiable=True):
        super().__init__("mode_preference", differentiable)
        self.amps = float_array(amps, 1, "mode_preference amps")
        self.centers = float_array(centers, 2, "mode_preference centers")
        self.tau = float(tau)
        self.dim = self.centers.shape[1]
        if self.centers.shape[0] != self.amps.shape[0]:
            raise ConfigError("mode_preference: amps and centers disagree")
        if not self.tau > 0:
            raise ConfigError("mode_preference: tau must be > 0")
        self._two_tau2 = 2.0 * self.tau**2

    def _bumps(self, x0):
        """exp(-|x - mu_k|^2 / (2 tau^2)), component-major: (..., d) ->
        (K, ...)."""
        return np.exp(-sq_dist(x0, self.centers) / self._two_tau2)

    def value(self, x0):
        return np.einsum("k,k...->...", self.amps, self._bumps(x0))

    def _grad(self, x0):
        x0 = np.asarray(x0, dtype=float)
        w = self.amps[:, None] * self._bumps(x0).reshape(self.amps.size, -1)
        g = (self.centers.T @ w).T - np.sum(w, axis=0)[:, None] \
            * x0.reshape(-1, self.dim)
        return g.reshape(x0.shape) / self.tau**2


class MotifCountReward(Reward):
    """Number of windows matching a fixed motif (overlaps counted).

    Relaxed value is the expected count under independent per-position
    probability rows: sum over windows of the product of matched entries.
    """

    def __init__(self, motif, vocab, differentiable=True):
        super().__init__("motif_count", differentiable)
        self.motif = np.asarray(motif, dtype=np.int64)
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

    def _window(self, p, start, skip=None):
        """Product of p[..., start + j, motif[j]] over j != skip, in order."""
        term = 1.0
        for j, tok in enumerate(self.motif):
            if j != skip:
                term = term * p[..., start + j, tok]
        return term

    def relaxed_value(self, probs):
        p = np.asarray(probs, dtype=float)
        m = self.motif.size
        L = p.shape[-2]
        if L < m:
            return 0.0 if p.ndim == 2 else np.zeros(p.shape[0])
        total = 0.0
        for start in range(L - m + 1):
            total = total + self._window(p, start)
        return total

    def _relaxed_grad(self, probs):
        p = np.asarray(probs, dtype=float)
        g = np.zeros_like(p)
        for start in range(p.shape[-2] - self.motif.size + 1):
            for j, tok in enumerate(self.motif):
                g[..., start + j, tok] += self._window(p, start, skip=j)
        return g

    def _grad(self, x0):
        raise ConfigError("motif_count gradient is defined on relaxed inputs")


class TokenCountReward(Reward):
    """Number of positions equal to a designated token."""

    def __init__(self, token, vocab, differentiable=True):
        super().__init__("token_count", differentiable)
        self.token = int(token)
        if not 0 <= self.token < vocab:
            raise ConfigError("token outside vocabulary")

    def value(self, x0):
        x0 = np.asarray(x0, dtype=np.int64)
        return np.sum(x0 == self.token, axis=-1).astype(float)

    def relaxed_value(self, probs):
        return np.sum(np.asarray(probs, dtype=float)[..., :, self.token], axis=-1)

    def _relaxed_grad(self, probs):
        g = np.zeros_like(np.asarray(probs, dtype=float))
        g[..., :, self.token] = 1.0
        return g

    def _grad(self, x0):
        raise ConfigError("token_count gradient is defined on relaxed inputs")


def tokens_from_string(s, alphabet):
    try:
        return np.array([alphabet.index(ch) for ch in s], dtype=np.int64)
    except ValueError as e:
        raise ConfigError(f"{s!r} uses characters outside {alphabet!r}") from e


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
            if len(token) != 1:
                raise ConfigError(f"reward token {token!r} must be one "
                                  f"character of {alphabet!r}")
            token = int(tokens_from_string(token, alphabet)[0])
        return TokenCountReward(token, vocab, diff)
    raise ConfigError(f"unknown reward {name!r}")
