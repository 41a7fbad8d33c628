"""Columnar trajectory batch shared by both worlds."""

from dataclasses import dataclass

import numpy as np


@dataclass
class TrajectoryBatch:
    """n denoising trajectories x_T ... x_0, stored as arrays.

    states[:, i] is the state at timestep T - i: float vectors in the
    continuous world, int token arrays (mask token = vocab size) in the
    discrete one. The search fills steps, an estep.StepInfo whose fields
    are its per-step logs, (n, T) C-ordered with column i belonging to
    timestep T - i, and whose carry is None; plain rollouts leave it None.
    """

    states: np.ndarray                        # (n, T+1, ...)
    snapshot: int = 0                         # policy version that sampled it
    rewards: np.ndarray = None                # (n,) terminal rewards
    steps: tuple = None                       # StepInfo of (n, T) columns
    weights: np.ndarray = None                # (n,), None meaning uniform

    @property
    def n(self):
        return self.states.shape[0]

    @property
    def T(self):
        return self.states.shape[1] - 1

    @property
    def terminals(self):
        return np.ascontiguousarray(self.states[:, -1])

    @property
    def searched(self):
        """Whether the batch carries posterior-search logs."""
        return self.steps is not None

    def transitions(self):
        """Aligned row arrays (X_t, X_prev, t) over all n*T transitions,
        trajectory-major, with t running T..1 within each trajectory."""
        n, T = self.n, self.T
        tail = self.states.shape[2:]
        X_t = self.states[:, :-1].reshape((n * T,) + tail)
        X_prev = self.states[:, 1:].reshape((n * T,) + tail)
        return X_t, X_prev, np.tile(np.arange(T, 0, -1), n)
