"""Property tests of the numeric kernel, the substitution rows and the exact
soft tables."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emdiff.discrete import (TabularDenoiser, enumerate_states, mask_token,
                             state_index, subs_position_probs)
from emdiff.numkit import RngStream, log_sum_exp, sample_categorical
from emdiff.rewards import MotifCountReward, TokenCountReward
from emdiff.schedules import make_discrete_schedule
from emdiff.softq import ExactSoftTables, SoftQConfig

FAST = settings(max_examples=40, deadline=None, derandomize=True)

finite = st.floats(-50.0, 50.0, allow_nan=False)


def matrices(min_side=1):
    return hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2,
                                              min_side=min_side, max_side=6),
                      elements=finite)


@FAST
@given(matrices(), st.floats(-100.0, 100.0, allow_nan=False))
def test_log_sum_exp_shift_invariant(v, c):
    for axis in (None, 0, 1):
        np.testing.assert_allclose(log_sum_exp(v + c, axis=axis),
                                   np.asarray(log_sum_exp(v, axis=axis)) + c,
                                   rtol=0, atol=1e-10)


@FAST
@given(matrices(min_side=2), st.data())
def test_log_sum_exp_minus_inf_rows(v, data):
    v = v.copy()
    dead = data.draw(st.integers(0, v.shape[0] - 1))
    v[dead] = -np.inf
    out = log_sum_exp(v, axis=1)
    assert out[dead] == -np.inf
    live = np.arange(v.shape[0]) != dead
    assert np.all(np.isfinite(out[live]))
    # a -inf entry in a live row contributes nothing
    w = v[live].copy()
    w[:, 0] = -np.inf
    np.testing.assert_allclose(log_sum_exp(w, axis=1),
                               log_sum_exp(w[:, 1:], axis=1),
                               rtol=0, atol=1e-12)


masses = hnp.arrays(float, st.integers(1, 8),
                    elements=st.floats(0.01, 10.0, allow_nan=False))


@FAST
@given(masses, st.data())
def test_sample_categorical_validates_mass(w, data):
    p = w / w.sum()
    assert 0 <= sample_categorical(p, RngStream(0)) < p.size
    j = data.draw(st.integers(0, p.size - 1))
    for bad in (-data.draw(st.floats(1e-6, 1.0)), np.nan, np.inf, -np.inf):
        q = p.copy()
        q[j] = bad
        with pytest.raises(ValueError):
            sample_categorical(q, RngStream(0))
    scale = data.draw(st.one_of(st.floats(0.0, 1.0 - 1e-6),
                                st.floats(1.0 + 1e-6, 100.0)))
    with pytest.raises(ValueError):
        sample_categorical(p * scale, RngStream(0))


@FAST
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_state_index_enumerate_states_bijection(L, K, data):
    states = enumerate_states(L, K)
    assert states.shape == ((K + 1) ** L, L)
    np.testing.assert_array_equal(state_index(states, K),
                                  np.arange(states.shape[0]))
    tokens = np.array(data.draw(st.lists(st.integers(0, K), min_size=L,
                                         max_size=L)))
    np.testing.assert_array_equal(states[state_index(tokens, K)], tokens)


@FAST
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_substitution_rows_sum_to_one(L, K, T, seed, data):
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(L, K)
    den.table[:] = 3.0 * RngStream(seed).normal(den.table.shape)
    tokens = np.array(data.draw(st.lists(st.integers(0, K), min_size=L,
                                         max_size=L)))
    for t in range(1, T + 1):
        for s in range(t):
            rows = subs_position_probs(sched, den, tokens, s, t)
            assert np.all(rows >= 0)
            np.testing.assert_allclose(rows.sum(axis=-1), np.ones(L),
                                       rtol=0, atol=1e-12)
            # unmasked positions are point masses on their token
            kept = tokens != mask_token(K)
            np.testing.assert_array_equal(rows[kept, tokens[kept]], 1.0)


def _product_successors(rows):
    """Reachable next states and probabilities by itertools.product over
    the positive entries of each position's row (the per-state reference)."""
    supports = [[(int(v), row[v]) for v in np.flatnonzero(row > 0)]
                for row in rows]
    combos = list(itertools.product(*supports))
    nxt = np.array([[v for v, _ in c] for c in combos], dtype=np.int64)
    probs = np.array([float(np.prod([p for _, p in c])) for c in combos])
    return nxt, probs


@FAST
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.floats(0.2, 2.0), st.floats(0.5, 1.0), st.data())
def test_exact_tables_match_per_state_reference(L, K, seed, alpha, gamma,
                                                data):
    T = data.draw(st.integers(2, 5).filter(lambda T: T != L))
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(L, K)
    den.table[:] = 3.0 * RngStream(seed).normal(den.table.shape)
    if data.draw(st.booleans()):
        motif = data.draw(st.lists(st.integers(0, K - 1), min_size=1,
                                   max_size=2))
        reward = MotifCountReward(np.array(motif), K)
    else:
        reward = TokenCountReward(data.draw(st.integers(0, K - 1)), K)
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(alpha, gamma))
    S = tables.states.shape[0]
    V = np.zeros((T + 1, S))
    for t in range(1, T + 1):       # t = 1 steps into s = 0
        for s_ix, xt in enumerate(tables.states):
            rows = subs_position_probs(sched, den, xt, t - 1, t)
            nxt, probs = _product_successors(rows)
            nxt_ix = state_index(nxt, K)
            sl = tables.edges(t, s_ix)
            assert np.all(tables.src[t][sl] == s_ix)
            np.testing.assert_array_equal(tables.dst[t][sl], nxt_ix)
            np.testing.assert_array_equal(tables.logp[t][sl], np.log(probs))
            if t == 1:
                q = np.array([float(reward.value(x)) for x in nxt])
            else:
                q = gamma * V[t - 1, nxt_ix]
            lz = log_sum_exp(np.log(probs) + q / alpha)
            V[t, s_ix] = alpha * lz
            np.testing.assert_allclose(tables.q[t][sl], q, rtol=0, atol=1e-12)
            assert abs(tables.logZ[t, s_ix] - lz) <= 1e-12
    np.testing.assert_allclose(tables.V, V, rtol=0, atol=1e-12)
