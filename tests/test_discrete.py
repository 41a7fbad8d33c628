import numpy as np
import pytest

import discrete_search_reference as ref
from emdiff import discrete as disc
from emdiff.discrete import (DiscretePolicy, MlpDenoiser, TabularDenoiser,
                             distinct_rows, draw_classes,
                             enumerate_states, forward_mask_sample,
                             mask_token, pretrain, relaxed_x0, state_index,
                             subs_position_probs, transition_logprob,
                             x0_probs)
from emdiff.errors import (ConfigError, OracleUnavailableError,
                           UnreachableTransitionError)
from emdiff.numkit import RngStream
from emdiff.rewards import TokenCountReward
from emdiff.schedules import make_discrete_schedule
from emdiff.softq import ExactSoftTables, SoftQConfig

M = mask_token(2)


@pytest.fixture
def sched4():
    return make_discrete_schedule(4)


@pytest.fixture
def uniform_denoiser():
    return TabularDenoiser(2, 2)  # zero logits = uniform prediction


def skewed_world(T=3):
    """L=2, K=2 world pretrained on {AA:.4, BB:.4, AB:.1, BA:.1}."""
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(2, 2)
    seqs = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
    pretrain(den, sched, seqs, weights=[0.4, 0.4, 0.1, 0.1], epochs=400,
             lr=0.05)
    return sched, den


def test_forward_mask_identity_at_t0(sched4):
    x0 = np.array([0, 1, 1])
    out = forward_mask_sample(sched4, x0, 0, RngStream(0), K=2)
    np.testing.assert_array_equal(out, x0)


def test_forward_mask_all_masked_at_T(sched4):
    x0 = np.array([0, 1, 0, 1])
    out = forward_mask_sample(sched4, x0, 4, RngStream(1), K=2)
    assert np.all(out == M)


def test_forward_mask_frequency_matches_survival(sched4):
    # abar_2 = 0.5: per-position mask rate 0.5, binomial 3-sigma band
    x0 = np.zeros(4, dtype=np.int64)
    rng = RngStream(2)
    n = 100_000
    keep = np.array([forward_mask_sample(sched4, x0, 2, rng, K=2) != M
                     for _ in range(n // 100)])
    # vectorize the bulk via many positions in one array
    big = np.stack([forward_mask_sample(sched4, np.zeros(100, dtype=np.int64),
                                        2, rng, K=2) for _ in range(n // 100)])
    rate = np.mean(big == M)
    assert abs(rate - 0.5) < 3 * 0.5 / np.sqrt(big.size)
    assert keep.shape[1] == 4


def test_forward_mask_per_row_steps_draw_as_one_comparison(sched4):
    # one uniform per position, kept where it falls below its row's
    # alpha_bar: the draw that sampled pretraining makes
    x0 = RngStream(3).gen.integers(0, 2, (50, 3))
    t = RngStream(4).gen.integers(1, 5, 50)
    keep = RngStream(5).uniform(x0.shape) < sched4.alpha_bar[t][:, None]
    np.testing.assert_array_equal(
        forward_mask_sample(sched4, x0, t, RngStream(5), K=2),
        np.where(keep, x0, M))
    with pytest.raises(ConfigError):
        forward_mask_sample(sched4, x0, t + 1, RngStream(5), K=2)


def test_enumerate_states_counts():
    assert enumerate_states(1, 2).shape == (3, 1)
    assert enumerate_states(2, 2).shape == (9, 2)
    with pytest.raises(OracleUnavailableError):
        enumerate_states(8, 4)


def test_state_index_roundtrip():
    states = enumerate_states(2, 2)
    idx = state_index(states, 2)
    np.testing.assert_array_equal(idx, np.arange(9))


def test_x0_probs_forces_point_mass_on_observed(uniform_denoiser):
    tokens = np.array([1, M])
    p = x0_probs(uniform_denoiser, tokens, 1)
    np.testing.assert_allclose(p[0], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(p[1], [0.5, 0.5], atol=1e-15)


def draw(rows, u):
    """Inverse-CDF draw per position, the rule rollout and search use."""
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0
    return draw_classes(cdf, u)


def test_subs_carry_over_is_deterministic(sched4, uniform_denoiser):
    tokens = np.array([1, 0])
    rows = subs_position_probs(sched4, uniform_denoiser, tokens, 2, 3)
    np.testing.assert_array_equal(rows, np.eye(3)[tokens])
    rng = RngStream(3)
    for _ in range(50):
        out = draw(rows, rng.uniform(tokens.shape))
        np.testing.assert_array_equal(out, tokens)


def test_subs_hand_mixture_probabilities(sched4, uniform_denoiser):
    # T=4, t=4 (abar=0), s=3 (abar=0.25): stay-masked 0.75, emit 0.25
    tokens = np.array([M, M])
    rows = subs_position_probs(sched4, uniform_denoiser, tokens, 3, 4)
    np.testing.assert_allclose(rows[:, 2], [0.75, 0.75], atol=1e-15)
    np.testing.assert_allclose(rows[:, :2], 0.25 * 0.5 * np.ones((2, 2)),
                               atol=1e-15)


def test_subs_uniform_denoiser_uniform_on_unmask(sched4, uniform_denoiser):
    tokens = np.array([M])
    den = TabularDenoiser(1, 2)
    rows = subs_position_probs(sched4, den, tokens, 1, 2)
    # conditional on unmasking, tokens are uniform
    emit = rows[0, :2]
    np.testing.assert_allclose(emit / emit.sum(), [0.5, 0.5], atol=1e-15)


def test_subs_rows_sum_to_one_all_pairs():
    sched = make_discrete_schedule(5)
    den = TabularDenoiser(2, 2)
    den.table[:] = RngStream(4).normal(den.table.shape)
    tokens = np.array([M, 0])
    for t in range(1, 6):
        for s in range(0, t):
            rows = subs_position_probs(sched, den, tokens, s, t)
            np.testing.assert_allclose(rows.sum(axis=-1), np.ones(2),
                                       atol=1e-12)


def test_subs_requires_s_before_t(sched4, uniform_denoiser):
    with pytest.raises(ConfigError):
        subs_position_probs(sched4, uniform_denoiser, np.array([M, M]), 3, 3)


def test_carry_over_never_violated_bulk(sched4):
    # 10^5 reverse steps, no unmasked token may change
    den = TabularDenoiser(4, 2)
    den.table[:] = RngStream(5).normal(den.table.shape)
    policy = DiscretePolicy(sched4, den)
    states = policy.rollout(RngStream(6), 2500).states     # (2500, 5, 4)
    x, nxt = states[:, :-1], states[:, 1:]
    observed = x != mask_token(2)
    violations = int(np.sum(np.any(observed & (nxt != x), axis=-1)))
    # reverse never re-masks
    violations += int(np.sum(np.any(observed & (nxt == mask_token(2)),
                                    axis=-1)))
    steps = x.size
    assert steps >= 40_000
    assert violations == 0
    assert np.all(states[:, -1] != mask_token(2))


def test_mask_count_nonincreasing(sched4):
    policy = DiscretePolicy(sched4, TabularDenoiser(3, 2))
    states = policy.rollout(RngStream(7), 200).states
    n_masks = np.sum(states == mask_token(2), axis=-1)     # (200, 5)
    assert np.all(n_masks[:, 0] == 3)
    assert np.all(np.diff(n_masks, axis=1) <= 0)
    assert np.all(n_masks[:, -1] == 0)


def test_transition_logprob_unmasked_identity(sched4, uniform_denoiser):
    tokens = np.array([[0, 1]])
    lp = transition_logprob(sched4, uniform_denoiser, tokens, tokens, [3])
    np.testing.assert_array_equal(lp, [0.0])


def test_transition_logprob_hand_value(sched4, uniform_denoiser):
    xt = np.array([[M, 0]])
    xprev = np.array([[M, 0]])
    lp = transition_logprob(sched4, uniform_denoiser, xt, xprev, [4])
    assert lp[0] == pytest.approx(np.log(0.75), abs=1e-12)


def test_transition_logprob_rejects_carry_over_violation(sched4, uniform_denoiser):
    xt = np.array([[0, M]])
    xprev = np.array([[1, M]])
    with pytest.raises(UnreachableTransitionError):
        transition_logprob(sched4, uniform_denoiser, xt, xprev, [3])


def test_transition_logprob_rejects_mask_at_s0(sched4, uniform_denoiser):
    xt = np.array([[M, M]])
    xprev = np.array([[M, 0]])
    with pytest.raises(UnreachableTransitionError):
        transition_logprob(sched4, uniform_denoiser, xt, xprev, [1])


def test_transition_logprob_equals_gathered_rows():
    # random tabular instance: the vectorized log-probability is the sum of
    # log row entries at the successors, and a batch holding one
    # unreachable transition is rejected as a whole
    sched = make_discrete_schedule(4)
    den = TabularDenoiser(3, 2)
    den.table[:] = RngStream(11).normal(den.table.shape)
    Xt, Xprev, t = DiscretePolicy(sched, den).rollout(
        RngStream(12), 64).transitions()
    lp = transition_logprob(sched, den, Xt, Xprev, t)
    per_row = [subs_position_probs(sched, den, xt, ti - 1, ti)
               for xt, ti in zip(Xt, t)]
    ref = [np.sum(np.log(r[np.arange(3), xp]))
           for r, xp in zip(per_row, Xprev)]
    np.testing.assert_allclose(lp, ref, rtol=0, atol=1e-12)
    # per-row timesteps give each row the rows of its own scalar-t call
    np.testing.assert_array_equal(
        subs_position_probs(sched, den, Xt, t - 1, t), per_row)
    np.testing.assert_array_equal(
        transition_logprob(sched, den, Xt, Xprev, t,
                           x0=x0_probs(den, Xt, t)), lp)

    r, pos = np.argwhere(Xt != M)[0]
    bad = Xprev.copy()
    bad[r, pos] = 1 - Xt[r, pos]
    with pytest.raises(UnreachableTransitionError):
        transition_logprob(sched, den, Xt, bad, t)

    r = int(np.flatnonzero(t == 1)[0])
    kept_t, kept_prev = Xt.copy(), Xprev.copy()
    kept_t[r, 0] = kept_prev[r, 0] = M
    with pytest.raises(UnreachableTransitionError):
        transition_logprob(sched, den, kept_t, kept_prev, t)


def test_enumerate_transitions_probs_sum(sched4, uniform_denoiser):
    tables = ExactSoftTables(sched4, uniform_denoiser, TokenCountReward(0, 2),
                             SoftQConfig(1.0))
    sl = tables.edges(3, tables.state_ix(np.array([M, M])))
    states = tables.states[tables.dst[3][sl]]
    probs = np.exp(tables.logp[3][sl])
    assert states.shape[0] == 9
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_pretrain_matches_marginals_closed_form():
    # uniform over {00, 11}: all-mask marginals are [0.5, 0.5]
    sched = make_discrete_schedule(3)
    den = TabularDenoiser(2, 2)
    hist = pretrain(den, sched, np.array([[0, 0], [1, 1]]), epochs=500,
                    lr=0.1)
    assert hist[-1] < hist[0]
    p = x0_probs(den, np.array([M, M]), 2)
    np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-3)
    # conditionals at partially-masked states lock onto the parity
    p_cond = x0_probs(den, np.array([0, M]), 1)
    assert p_cond[1, 0] > 0.99


def test_pretrain_single_sequence_concentrates():
    sched = make_discrete_schedule(3)
    den = TabularDenoiser(2, 2)
    pretrain(den, sched, np.array([[0, 1]]), epochs=2000, lr=0.1)
    p = x0_probs(den, np.array([M, M]), 2)
    assert p[0, 0] > 0.99 and p[1, 1] > 0.99


def test_pretrain_zero_epochs_no_change():
    sched = make_discrete_schedule(3)
    den = TabularDenoiser(2, 2)
    before = den.table.copy()
    hist = pretrain(den, sched, np.array([[0, 1]]), epochs=0)
    assert hist == []
    np.testing.assert_array_equal(den.table, before)


def test_pretrain_empty_dataset_rejected():
    sched = make_discrete_schedule(3)
    with pytest.raises(ConfigError):
        pretrain(TabularDenoiser(2, 2), sched, np.zeros((0, 2)), epochs=1)


def test_pretrained_marginal_invariant_skewed():
    _, den = skewed_world()
    p = x0_probs(den, np.array([M, M]), 2)
    np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-3)


def test_mlp_denoiser_pretrains():
    sched = make_discrete_schedule(3)
    den = MlpDenoiser(2, 2, 3, widths=(32,), rng=RngStream(8))
    seqs = np.array([[0, 0], [1, 1]])
    hist = pretrain(den, sched, seqs, epochs=300, lr=0.01,
                    rng=RngStream(9), batch_size=64)
    assert hist[-1] < hist[0]
    p = x0_probs(den, np.array([M, M]), 2)
    np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=0.1)


def test_relaxed_x0_layout(uniform_denoiser):
    p = relaxed_x0(uniform_denoiser, np.array([0, M]), 1)
    assert p.shape == (2, 3)
    np.testing.assert_allclose(p[:, 2], [0.0, 0.0], atol=0)
    np.testing.assert_allclose(p[0], [1.0, 0.0, 0.0], atol=1e-15)


def test_rollout_roundtrip_distribution():
    # pretrained on skewed distribution; rollout terminals should land in
    # the denoiser-induced chain's support with all positions unmasked
    sched, den = skewed_world()
    policy = DiscretePolicy(sched, den)
    X = policy.rollout(RngStream(10), 400).terminals
    assert np.all(X != mask_token(2))
    # per-position marginals near 0.5 (3-sigma binomial)
    rate = (X == 0).mean(axis=0)
    assert np.all(np.abs(rate - 0.5) < 3 * 0.5 / np.sqrt(400))


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_draw_classes_matches_broadcast_reference():
    rng = np.random.default_rng(0)
    # zero-mass classes: repeated cdf values, at the start, middle and end
    w = rng.random((6, 3, 5))
    w[0, :, 0] = w[1, :, 2] = w[2, :, 3:] = w[3, :, 1:4] = 0.0
    cdf = np.cumsum(w / w.sum(axis=-1, keepdims=True), axis=-1)
    cdf[..., -1] = 1.0
    u = rng.random((6, 3))
    # u equal to a cdf entry takes that class (u > cdf is false there)
    u[4] = cdf[4, :, 1]
    u[5] = cdf[5, :, 0]
    u[0, 0] = 0.0
    _assert_same(draw_classes(cdf, u), ref.draw_classes(cdf, u))
    assert (draw_classes(cdf, u)[4] == 1).all()
    # broadcast: one cdf row per state against particles, as in search
    cdf_b = cdf[:, None]                                  # (6, 1, 3, 5)
    u_b = rng.random((6, 7, 3))
    u_b[1, 2] = cdf[1, :, 2]
    _assert_same(draw_classes(cdf_b, u_b), ref.draw_classes(cdf_b, u_b))
    # u broadcast against the cdf's leading shape
    _assert_same(draw_classes(cdf, u[:, :1]), ref.draw_classes(cdf, u[:, :1]))
    # a single class never moves from 0
    _assert_same(draw_classes(np.ones((4, 1)), rng.random(4)),
                 np.zeros(4, dtype=int))


@pytest.mark.parametrize("n, L, K", [
    (64, 4, 3),      # 256 keys, 4 per row: counted
    (63, 4, 3),      # just past the cutover: sorted
    (500, 2, 2),     # few keys, many rows: counted
    (1, 1, 1),       # 2 keys for 1 row: counted
    (7, 8, 4),       # 390625 keys: sorted
    (9, 40, 2),      # 3^40 keys, past the int64 range: rows compared
])
def test_distinct_rows_matches_unique_reference(n, L, K):
    rng = np.random.default_rng(n + L + K)
    # a small pool of rows, so that the batch holds duplicates
    pool = rng.integers(0, K + 1, (max(1, n // 3), L))
    tokens = pool[rng.integers(0, pool.shape[0], n)]
    counted = (K + 1) ** L <= disc.COUNT_DEDUP_RATIO * n
    assert counted == ((n, L, K) in [(64, 4, 3), (500, 2, 2), (1, 1, 1)])
    for got, want in zip(distinct_rows(tokens, K),
                         ref.distinct_rows(tokens, K)):
        _assert_same(got, want)
