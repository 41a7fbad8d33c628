"""Reference gradient of the motif-count reward's relaxed value that
``MotifCountReward.relaxed_grad`` is tested against: per window, the motif
entries stacked into one array, and the product of all but one taken with
``np.prod`` over ``np.delete``."""

import numpy as np


def motif_relaxed_grad(motif, probs):
    """Gradient of the expected motif count wrt the (..., L, K+1) rows."""
    p = np.asarray(probs, dtype=float)
    g = np.zeros_like(p)
    m = len(motif)
    L = p.shape[-2]
    for start in range(L - m + 1 if L >= m else 0):
        vals = np.stack([p[..., start + j, tok]
                         for j, tok in enumerate(motif)], axis=-1)
        for j, tok in enumerate(motif):
            others = np.prod(np.delete(vals, j, axis=-1), axis=-1)
            g[..., start + j, tok] += others
    return g
