"""Reference edit distances that the bit-vector kernel behind
``emdiff.metrics.diversity`` is tested against: the scalar dynamic program,
and the same program vectorized over pairs for rows too long for the scalar
one (past L of about 20)."""

import numpy as np


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


def pairwise_levenshtein(A, B):
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
