"""Soft Q machinery.

Runtime path: the first-order approximation qhat = gamma^(t-1) * r(x0hat)
of the KL-regularized action value. Oracle path (enumerable discrete
instances only): exact soft value/Q tables built by backward recursion over
the prior chain, the exact tilted policy, and the analytic sandwich bounds
the approximation is meant to sit inside.
"""

from dataclasses import dataclass

import numpy as np

from . import discrete as disc
from .errors import ConfigError


@dataclass
class SoftQConfig:
    alpha: float
    gamma: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")


def approx_soft_q(cfg, t, r_hat):
    """qhat = gamma^(t-1) * r(x0hat(x_{t-1})), exact at t = 1."""
    return cfg.gamma ** (t - 1) * np.asarray(r_hat, dtype=float)


class ExactSoftTables:
    """Backward-recursion tables over an enumerable masked-diffusion instance.

    V[t, s] is the soft value of state s at timestep t and logZ[t, s] the log
    normalizer of the tilted policy at s. The transitions x_t -> x_{t-1} of
    each t >= 1 are flat edge arrays sorted by source state: src[t] and
    dst[t] hold state indices, logp[t] the prior log transition probability
    and q[t] the soft Q value of the successor. The edges of state s are
    start[t][s]:start[t][s + 1], in itertools.product order over positions.
    """

    def __init__(self, schedule, denoiser, reward, cfg, cap=disc.ENUM_CAP):
        self.schedule = schedule
        self.denoiser = denoiser
        self.reward = reward
        self.cfg = cfg
        T = schedule.T
        self.states = disc.enumerate_states(denoiser.L, denoiser.K, cap)
        S = self.states.shape[0]
        unmasked = np.all(self.states != disc.mask_token(denoiser.K), axis=1)
        self.reward_vec = np.full(S, np.nan)
        self.reward_vec[unmasked] = np.asarray(
            reward.value(self.states[unmasked]), dtype=float)
        self.V = np.zeros((T + 1, S))
        self.logZ = np.full((T + 1, S), np.nan)
        self.src, self.dst, self.logp, self.q, self.start = (
            [None] * (T + 1) for _ in range(5))
        a, g = cfg.alpha, cfg.gamma
        for t in range(1, T + 1):
            src, dst, logp = self._transitions(t)
            self.src[t], self.dst[t], self.logp[t] = src, dst, logp
            self.start[t] = np.searchsorted(src, np.arange(S + 1))
            if t == 1:
                self.q[t] = self.reward_vec[dst]
            else:
                self.q[t] = g * self.V[t - 1, dst]
            self.logZ[t] = self._segment_lse(t, logp + self.q[t] / a)
            self.V[t] = a * self.logZ[t]

    def _transitions(self, t):
        """Every positive-probability transition out of every state at t,
        from one batch of substitution rows expanded position by position."""
        K1 = self.denoiser.K + 1
        rows = disc.subs_position_probs(self.schedule, self.denoiser,
                                        self.states, t - 1, t)
        src = np.arange(self.states.shape[0])
        dst = np.zeros_like(src)
        prob = np.ones(src.shape)
        for pos in range(self.denoiser.L):
            r = rows[src, pos]
            e, v = np.nonzero(r > 0)
            src, dst, prob = src[e], dst[e] + v * K1 ** pos, prob[e] * r[e, v]
        return src, dst, np.log(prob)

    def _segment_lse(self, t, v):
        """log_sum_exp of v over the edges of each state at t."""
        seg = self.start[t][:-1]
        m = np.maximum.reduceat(v, seg)
        return np.log(np.add.reduceat(np.exp(v - m[self.src[t]]), seg)) + m

    def state_ix(self, tokens):
        return int(disc.state_index(tokens, self.denoiser.K))

    def edges(self, t, s_ix):
        """Slice of the edge arrays at t holding the transitions of s_ix."""
        return slice(self.start[t][s_ix], self.start[t][s_ix + 1])

    def log_eta(self, t, sl=slice(None)):
        """log eta*(x_{t-1} | x_t) per edge at t: the prior log-probability
        tilted by exp(Q/alpha) and normalized."""
        return (self.logp[t][sl] + self.q[t][sl] / self.cfg.alpha
                - self.logZ[t, self.src[t][sl]])

    def tilted_policy(self, tokens, t):
        """Exact eta*(x_{t-1} | x_t): prior reweighted by exp(Q/alpha)."""
        sl = self.edges(t, self.state_ix(tokens))
        return self.states[self.dst[t][sl]], np.exp(self.log_eta(t, sl))

    def bellman_residual(self):
        """Max deviation when the tables are substituted back into the soft
        Bellman equations and terminal conditions."""
        a, g = self.cfg.alpha, self.cfg.gamma
        worst = 0.0
        for t in range(1, self.schedule.T + 1):
            v = a * self._segment_lse(t, self.logp[t] + self.q[t] / a)
            dst = self.dst[t]
            r_term = self.reward_vec[dst] if t == 1 else 0.0
            q_ref = r_term + g * self.V[t - 1, dst]
            worst = max(worst, float(np.max(np.abs(v - self.V[t]))),
                        float(np.max(np.abs(self.q[t] - q_ref))))
        return worst


def prior_expectation(tables, f0, gamma=1.0):
    """F[t, s] = E[gamma^(t-1) f0(x_0) | x_t = s] under the prior chain, for
    t >= 1; F[0] = f0, a vector over states read at the clean ones. With
    f0 = r and gamma = cfg.gamma this is the alpha -> inf limit of V."""
    F = np.full((tables.schedule.T + 1, tables.states.shape[0]), np.nan)
    F[0] = f0
    for t in range(1, tables.schedule.T + 1):
        seg = tables.start[t][:-1]
        F[t] = np.add.reduceat(
            np.exp(tables.logp[t]) * F[t - 1, tables.dst[t]], seg)
        if t > 1:
            F[t] *= gamma
    return F


def check_bounds(tables, tol=1e-9):
    """Verify the sandwich bounds on the stored soft Q values for t >= 2.

    Expectations over prior rollouts are computed by exact enumeration, so
    the only slack needed is floating point. Returns a report dict whose
    "rows" are columns with one entry per distinct (t, successor, q); any
    row with ok=False is a bound violation.
    """
    a, g = tables.cfg.alpha, tables.cfg.gamma
    r = tables.reward_vec
    up_F = prior_expectation(tables, np.exp(r / a))
    cols = {k: [] for k in ("t", "state", "lower", "q", "upper")}
    for t in range(2, tables.schedule.T + 1):
        lo_F = prior_expectation(tables, np.exp(g ** (t - 2) / a * r))
        pairs = np.unique(np.column_stack([tables.dst[t], tables.q[t]]),
                          axis=0)
        u = pairs[:, 0].astype(np.int64)
        cols["t"].append(np.full(u.size, t))
        cols["state"].append(u)
        cols["q"].append(pairs[:, 1])
        cols["lower"].append(a * g * np.log(lo_F[t - 1, u]))
        cols["upper"].append(a * g ** (t - 1) * np.log(up_F[t - 1, u]))
    rows = {k: np.concatenate(v) if v else np.zeros(0)
            for k, v in cols.items()}
    rows["ok"] = ((rows["lower"] - tol <= rows["q"])
                  & (rows["q"] <= rows["upper"] + tol))
    n_bad = int(np.sum(~rows["ok"]))
    return {"rows": rows, "violations": n_bad, "ok": n_bad == 0}
