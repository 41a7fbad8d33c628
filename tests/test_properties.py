"""Property tests of the numeric kernel, the substitution rows, the exact
soft tables, discrete search against enumerated laws, the batched edit
distance and the continuous search kernels."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edit_distance_reference import levenshtein, pairwise_levenshtein
from motif_reward_reference import motif_relaxed_grad
from emdiff import metrics
from emdiff.continuous import (ContinuousPolicy, GaussianMixture,
                               mixture_stats, x0hat_jacobian)
from emdiff.discrete import (DiscretePolicy, MlpDenoiser, TabularDenoiser,
                             distinct_rows, enumerate_states, mask_token,
                             relaxed_x0, state_index, subs_position_probs,
                             transition_logprob, x0_probs)
from emdiff.estep import EStepConfig, search_step_batch
from emdiff.numkit import RngStream, log_sum_exp, sample_categorical
from emdiff.rewards import (ModePreferenceReward, MotifCountReward,
                            TokenCountReward)
from emdiff.schedules import make_continuous_schedule, make_discrete_schedule
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
    # the M-step's log-probability is the tables' kernel: every edge of
    # every t in one call, with per-row t
    t_rows = np.concatenate([np.full(tables.src[t].size, t)
                             for t in range(1, T + 1)])
    src, dst = (np.concatenate(a[1:]) for a in (tables.src, tables.dst))
    np.testing.assert_allclose(
        transition_logprob(sched, den, tables.states[src], tables.states[dst],
                           t_rows),
        np.concatenate(tables.logp[1:]), rtol=0, atol=1e-12)


@st.composite
def discrete_search_instances(draw):
    """A random tabular instance (L <= 3, K <= 2, T in 2..4), a motif or
    token reward, a search config with guidance on or off, a timestep and
    a state xt to step from."""
    L, K = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    T = draw(st.integers(2, 4))
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(L, K)
    den.table[:] = RngStream(draw(st.integers(0, 2**32 - 1))).normal(
        den.table.shape)
    if draw(st.booleans()):
        reward = MotifCountReward(np.array(draw(st.lists(
            st.integers(0, K - 1), min_size=1, max_size=2))), K)
    else:
        reward = TokenCountReward(draw(st.integers(0, K - 1)), K)
    cfg = EStepConfig(alpha=draw(st.floats(0.5, 2.0)),
                      gamma=draw(st.floats(0.5, 1.0)), particles=64,
                      guidance=draw(st.booleans()))
    t = draw(st.integers(1, T))
    xt = np.array(draw(st.lists(st.integers(0, K), min_size=L, max_size=L)))
    return DiscretePolicy(sched, den), reward, cfg, t, xt


def _step_rows(policy, reward, cfg, xt, t):
    """Per-position prior and proposal log-rows of one search step from xt,
    (L, K+1) each: the substitution rows, tilted (with guidance) by the
    relaxed-reward gradient at the denoiser's x0 distribution."""
    sc, den = policy.schedule, policy.denoiser
    with np.errstate(divide="ignore"):
        log_rows = np.log(subs_position_probs(sc, den, xt, t - 1, t))
    if not cfg.guidance:
        return log_rows, log_rows
    p0 = x0_probs(den, xt, t)
    g = reward.relaxed_grad(np.concatenate([p0, np.zeros((den.L, 1))],
                                           axis=-1))[:, :den.K]
    shift = np.concatenate([g, np.sum(p0 * g, axis=-1)[:, None]], axis=-1)
    logits = log_rows + cfg.gamma ** (t - 1) / cfg.alpha * shift
    return log_rows, logits - log_sum_exp(logits, axis=-1)[:, None]


def _enumerated_step(policy, reward, cfg, xt, t):
    """Every successor of xt at t with its prior and proposal
    log-probability and qhat."""
    log_rows, log_prop_rows = _step_rows(policy, reward, cfg, xt, t)
    succ, prior = _product_successors(np.exp(log_rows))
    pos = np.arange(policy.L)
    log_prop = log_prop_rows[pos, succ].sum(axis=-1)
    qhat = cfg.gamma ** (t - 1) * reward.relaxed_value(
        relaxed_x0(policy.denoiser, succ, t - 1))
    return succ, np.log(prior), log_prop, qhat


# TV between the empirical law of 4000 resampled rows and the exact one,
# fixed from the sampling noise: over m <= 27 successors its mean is below
# 0.5 * sqrt(2 m / (pi n)) = 0.033. Resampling from 64 particles adds a
# bias that stays below that on these instances (unit-scale logits,
# rewards <= 3, alpha >= 0.5): over 100 derandomized examples the largest
# TV was 0.018.
SEARCH_TV_TOL = 0.05


@settings(max_examples=25, deadline=None, derandomize=True)
@given(discrete_search_instances(), st.integers(0, 2**32 - 1))
def test_discrete_search_resamples_the_tilted_law(inst, seed):
    policy, reward, cfg, t, xt = inst
    n, K = 4000, policy.K
    nxt, _ = search_step_batch(policy, reward, np.tile(xt, (n, 1)), t, cfg,
                               RngStream(seed))
    if t == 1:      # qhat = r exactly: the exact tilted policy
        tables = ExactSoftTables(policy.schedule, policy.denoiser, reward,
                                 cfg.softq)
        succ, target = tables.tilted_policy(xt, t)
    else:           # what self-normalised resampling converges to
        succ, log_prior, _, qhat = _enumerated_step(policy, reward, cfg, xt,
                                                    t)
        logt = log_prior + qhat / cfg.alpha
        target = np.exp(logt - log_sum_exp(logt))
    law = np.zeros((K + 1) ** policy.L)
    law[state_index(succ, K)] = target
    emp = np.bincount(state_index(nxt, K), minlength=law.size) / n
    assert 0.5 * np.abs(emp - law).sum() < SEARCH_TV_TOL


@FAST
@given(discrete_search_instances(), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_discrete_search_logs_match_enumerated_proposal(inst, M, seed):
    # replays the step's uniforms (M x L per row for the candidates, then
    # one per row for the resampling) against the enumerated proposal cdf
    policy, reward, cfg, t, _ = inst
    cfg = replace(cfg, particles=M)
    L, K = policy.L, policy.K
    X = RngStream(seed, 1).gen.integers(0, K + 1, (12, L))
    nxt, info = search_step_batch(policy, reward, X, t, cfg, RngStream(seed))
    replay = RngStream(seed)
    u = replay.uniform((X.shape[0], M, L))
    u_keep = replay.uniform(X.shape[0])
    for i, xt in enumerate(X):
        succ, log_prior, log_prop, qhat = _enumerated_step(policy, reward,
                                                           cfg, xt, t)
        slot = {s: j for j, s in enumerate(state_index(succ, K))}
        # candidate token at each position: the first class whose proposal
        # cdf reaches the uniform
        cdf = np.cumsum(np.exp(_step_rows(policy, reward, cfg, xt, t)[1]),
                        axis=-1)
        cdf[:, -1] = 1.0
        tokens = np.sum(u[i][..., None] > cdf, axis=-1)         # (M, L)
        cand = [slot[s] for s in state_index(tokens, K)]
        logw = log_prior[cand] - log_prop[cand] + qhat[cand] / cfg.alpha
        w = np.exp(logw - log_sum_exp(logw))
        cdf = np.cumsum(w / w.sum())
        cdf[-1] = 1.0
        k = int(np.sum(u_keep[i] > cdf))
        kept = cand[k]
        np.testing.assert_array_equal(nxt[i], succ[kept])
        np.testing.assert_allclose(
            [info.log_prior[i], info.log_proposal[i], info.qhat[i]],
            [log_prior[kept], log_prop[kept], qhat[kept]],
            rtol=0, atol=1e-12)
        corr = logw[k] - (log_sum_exp(logw) - np.log(M))
        assert abs(info.log_weight_corr[i] - corr) <= 1e-12


@FAST
@given(st.integers(2, 8), st.integers(0, 6), st.integers(1, 3), st.data())
def test_pairwise_levenshtein_matches_scalar_reference(n, L, K, data):
    # rows from a pool of up to 3 rows (duplicates) or of n rows
    size = data.draw(st.one_of(st.integers(1, 3), st.just(n)))
    pool = np.array(data.draw(st.lists(
        st.lists(st.integers(0, K - 1), min_size=L, max_size=L),
        min_size=size, max_size=size)), dtype=np.int64).reshape(size, L)
    rows = pool[data.draw(st.lists(st.integers(0, size - 1), min_size=n,
                                   max_size=n))]
    iu, ju = np.triu_indices(n, k=1)
    batched = pairwise_levenshtein(rows[iu], rows[ju])
    scalar = [levenshtein(rows[i], rows[j]) for i, j in zip(iu, ju)]
    np.testing.assert_array_equal(batched, scalar)
    assert metrics.diversity(rows) == np.mean(scalar)


@FAST
@given(st.integers(1, 130), st.integers(1, 4), st.integers(2, 8), st.data())
def test_edit_distance_kernel_matches_reference_across_words(L, K, n, data):
    # L crosses the 64-token word edges; rows over {0..K} are drawn from a
    # pool of 1 to 3 rows, so duplicates appear
    size = data.draw(st.integers(1, 3))
    pool = np.array(data.draw(st.lists(
        st.lists(st.integers(0, K), min_size=L, max_size=L),
        min_size=size, max_size=size)), dtype=np.int64)
    rows = pool[data.draw(st.lists(st.integers(0, size - 1), min_size=n,
                                   max_size=n))]
    iu, ju = np.triu_indices(n, k=1)
    dist = metrics._edit_distances(rows, iu, ju, K)
    np.testing.assert_array_equal(dist, pairwise_levenshtein(rows[iu],
                                                             rows[ju]))
    assert metrics.diversity(rows) == np.mean(dist)


@st.composite
def token_rows_with_duplicates(draw):
    """(K, rows): up to 12 rows over {0..K} copied from a pool of up to 3
    rows that differ from each other in one position each. L reaches past
    the length where (K+1)^L leaves the int64 range."""
    K, L = draw(st.integers(1, 4)), draw(st.integers(0, 70))
    pool = [draw(hnp.arrays(np.int64, L, elements=st.integers(0, K)))]
    for _ in range(draw(st.integers(0, 2))):
        row = pool[-1].copy()
        if L:
            row[draw(st.integers(0, L - 1))] = draw(st.integers(0, K))
        pool.append(row)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=12))
    return K, np.array(pool)[picks].reshape(len(picks), L)


def _row_set(rows):
    return sorted(map(tuple, rows.tolist()))


# K = 3, L = 40: 4^i wraps to 0 in int64 for i >= 32, so rows that differ
# only there would share a wrapped key. K = 2, L = 40: 3^40 lies between
# 2^63 and 2^64, so the keys of rows ending in 2 would wrap negative. K = 1,
# L = 63: the largest key, 2^63 - 1, fits exactly
TAIL_ONLY = np.zeros((3, 40), dtype=np.int64)
TAIL_ONLY[1, 35] = TAIL_ONLY[2, 39] = 3
HIGH_KEYS = np.full((2, 40), 2, dtype=np.int64)
HIGH_KEYS[0, 0] = 0
ALL_ONES = np.ones((2, 63), dtype=np.int64)
ALL_ONES[0, 0] = 0


@FAST
@given(token_rows_with_duplicates())
@example((4, np.tile(np.arange(40) % 5, (3, 1))))
@example((3, TAIL_ONLY))
@example((2, HIGH_KEYS))
@example((1, ALL_ONES))
def test_distinct_rows_matches_unique_rows(case):
    K, rows = case
    unique, inverse, counts = distinct_rows(rows, K)
    want, want_counts = np.unique(rows, axis=0, return_counts=True)
    assert unique.dtype == np.int64 and unique.shape == want.shape
    assert _row_set(unique) == _row_set(want)
    np.testing.assert_array_equal(unique[inverse], rows)
    np.testing.assert_array_equal(np.bincount(inverse,
                                              minlength=unique.shape[0]),
                                  counts)
    assert sorted(counts) == sorted(want_counts)


def _per_component_stats(mix, xt, abar):
    """The per-component posterior mean and Jacobian, (..., K, d) arrays and
    all, in extended precision: the reference the matmul kernels of
    emdiff.continuous must reproduce. np.longdouble is 80-bit on x86-64
    Linux; where it is plain float64 the reference is only as accurate as
    the kernels it checks."""
    ld = np.longdouble
    xt, ab = np.asarray(xt, dtype=ld), ld(abar)
    means, s2 = mix.means.astype(ld), mix.stds.astype(ld) ** 2
    v = ab * s2 + (1 - ab)                                    # (K,)
    diff = xt[..., None, :] - np.sqrt(ab) * means              # (..., K, d)
    loglik = (np.log(mix.weights.astype(ld))
              - 0.5 * mix.dim * np.log(2 * ld(np.pi) * v)
              - 0.5 * np.sum(diff * diff, axis=-1) / v)
    e = np.exp(loglik - loglik.max(axis=-1, keepdims=True))
    resp = e / e.sum(axis=-1, keepdims=True)
    m = (np.sqrt(ab) * s2[:, None] * xt[..., None, :]
         + (1 - ab) * means) / v[:, None]
    xhat = np.sum(resp[..., None] * m, axis=-2)
    g = -diff / v[:, None]
    centered = g - np.sum(resp[..., None] * g, axis=-2)[..., None, :]
    jac = np.einsum("...k,...ka,...kb->...ab", resp, m, centered)
    slope = np.sum(resp * np.sqrt(ab) * s2 / v, axis=-1)
    return resp, xhat, jac + slope[..., None, None] * np.eye(mix.dim)


@st.composite
def mixtures(draw, max_k=4):
    K = draw(st.integers(1, max_k))
    d = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=K,
                               max_size=K)))
    means = draw(hnp.arrays(float, (K, d), elements=st.floats(-3.0, 3.0)))
    stds = draw(hnp.arrays(float, K, elements=st.floats(0.3, 2.0)))
    return GaussianMixture(w / w.sum(), means, stds)


def far_states(mix, n=6):
    # up to 50x the mixture's extent, where the expanded squared distance
    # |x|^2 - 2 sqrt(abar) x.mu + abar |mu|^2 loses the most to cancellation
    return hnp.arrays(float, (n, mix.dim), elements=st.floats(-150.0, 150.0))


# Below abar = 0.01 a state 50x out is ill-conditioned in float64 for any
# formula: each log-likelihood carries |x|^2 / v_k, whose rounding (about
# 1e-12 at |x| = 150) swamps the tiny differences between components, and
# the per-component formula in float64 misses the extended-precision
# reference by as much as the matmul form does there.
unit_abar = st.floats(0.01, 1.0)


@FAST
@given(mixtures(), unit_abar, st.data())
def test_mixture_kernels_match_per_component_reference(mix, abar, data):
    x = data.draw(far_states(mix))
    resp_ref, xhat_ref, jac_ref = _per_component_stats(mix, x, abar)
    resp, xhat = mixture_stats(mix, x, abar)
    np.testing.assert_allclose(resp, resp_ref.astype(float),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(xhat, xhat_ref.astype(float),
                               rtol=1e-12, atol=1e-12)
    xhat_j, jac = x0hat_jacobian(mix, x, abar)
    np.testing.assert_array_equal(xhat_j, xhat)
    np.testing.assert_allclose(jac, jac_ref.astype(float),
                               rtol=1e-12, atol=1e-12)
    # carried statistics give the same Jacobian; per-row abar matches scalar
    np.testing.assert_array_equal(
        x0hat_jacobian(mix, x, abar, (resp, xhat))[1], jac)
    np.testing.assert_allclose(
        x0hat_jacobian(mix, x, np.full(x.shape[0], abar))[1], jac,
        rtol=1e-12, atol=1e-12)


@FAST
@given(st.integers(1, 4), st.integers(1, 3), st.floats(0.3, 3.0), st.data())
def test_mode_preference_matches_per_component_reference(K, d, tau, data):
    amps = data.draw(hnp.arrays(float, K, elements=st.floats(-2.0, 2.0)))
    centers = data.draw(hnp.arrays(float, (K, d),
                                   elements=st.floats(-3.0, 3.0)))
    x = data.draw(hnp.arrays(float, (5, d), elements=st.floats(-30.0, 30.0)))
    reward = ModePreferenceReward(amps, centers, tau)
    diff = x[:, None, :] - centers                              # (n, K, d)
    e = amps * np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * tau**2))
    np.testing.assert_allclose(reward.value(x), e.sum(axis=-1),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        reward.grad(x), np.sum(e[..., None] * -diff / tau**2, axis=-2),
        rtol=1e-12, atol=1e-12)


@FAST
@given(mixtures(), st.integers(2, 6), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.data())
def test_search_carries_fresh_statistics_of_kept_rows(mix, t, M, seed, data):
    sched = make_continuous_schedule(6, 0.05, 0.3)
    policy = ContinuousPolicy(sched, mix, residual_widths=(4,),
                              rng=RngStream(seed))
    centers = data.draw(hnp.arrays(float, (2, mix.dim),
                                   elements=st.floats(-3.0, 3.0)))
    reward = ModePreferenceReward([1.0, 0.5], centers, 1.2)
    cfg = EStepConfig(alpha=0.5, gamma=0.9, particles=M)
    X = 3.0 * RngStream(seed, 1).normal((7, mix.dim))
    carry = (mixture_stats(mix, X, sched.alpha_bar[t]), np.arange(7))
    fresh_next, fresh_info = search_step_batch(policy, reward, X, t, cfg,
                                               RngStream(seed, 2))
    nxt, info = search_step_batch(policy, reward, X, t, cfg,
                                  RngStream(seed, 2), carry)
    np.testing.assert_array_equal(nxt, fresh_next)
    table, kept = info.carry
    for got, want in zip(table, mixture_stats(mix, nxt,
                                              sched.alpha_bar[t - 1])):
        np.testing.assert_allclose(got[kept], want, rtol=1e-12, atol=1e-12)
    for field, got in info._asdict().items():
        if field != "carry":
            np.testing.assert_array_equal(got, getattr(fresh_info, field))


@FAST
@given(st.sampled_from(["tabular", "mlp"]), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_discrete_search_carries_fresh_probabilities_of_kept_rows(
        kind, L, t, M, guidance, seed):
    # X's carry is its distinct rows' x0_probs, shuffled among rows that
    # must not be read (NaN); the kept rows' carry is a fresh x0_probs of
    # them, bit for bit where the denoiser is a table lookup and within
    # rounding where a matmul over other rows may block differently
    K, T = 2, 4
    sched = make_discrete_schedule(T)
    if kind == "tabular":
        den = TabularDenoiser(L, K)
        den.table[:] = 2.0 * RngStream(seed).normal(den.table.shape)
    else:
        den = MlpDenoiser(L, K, T, widths=(8,), rng=RngStream(seed))
    policy = DiscretePolicy(sched, den)
    reward = MotifCountReward(np.array([0, 1]), K)
    cfg = EStepConfig(alpha=0.5, gamma=0.9, particles=M, guidance=guidance)
    gen = RngStream(seed, 1).gen
    X = np.where(gen.random((9, L)) < 0.6, mask_token(K),
                 gen.integers(0, K, (9, L)))
    U, inverse, _ = distinct_rows(X, K)
    at = gen.permutation(U.shape[0] + 3)[:U.shape[0]]
    table = np.full((U.shape[0] + 3, L, K), np.nan)
    table[at] = x0_probs(den, U, np.full(U.shape[0], t))
    fresh_next, fresh_info = search_step_batch(policy, reward, X, t, cfg,
                                               RngStream(seed, 2))
    nxt, info = search_step_batch(policy, reward, X, t, cfg,
                                  RngStream(seed, 2), (table, at[inverse]))
    np.testing.assert_array_equal(nxt, fresh_next)
    for field, got in info._asdict().items():
        if field != "carry":
            np.testing.assert_array_equal(got, getattr(fresh_info, field))
    table, kept = info.carry
    want = x0_probs(den, nxt, t - 1)
    if kind == "tabular":
        np.testing.assert_array_equal(table[kept], want)
    else:
        np.testing.assert_allclose(table[kept], want, rtol=0, atol=1e-12)


@FAST
@given(st.integers(1, 3), st.integers(2, 8), st.floats(0.1, 2.0),
       st.floats(0.5, 1.0), st.integers(0, 2**32 - 1), st.data())
def test_single_gaussian_guided_mean_is_prior_plus_scaled_gradient(
        d, t, alpha, gamma, seed, data):
    # one component: x0hat = slope x + (1 - abar) mu / v is affine, so the
    # guided mean is the prior mean plus (sig2/alpha) gamma^(t-1) slope
    # grad r(x0hat). With one particle the kept state is the proposal draw.
    mu = data.draw(hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)))
    s = data.draw(st.floats(0.3, 2.0))
    sched = make_continuous_schedule(8, 0.05, 0.3)
    policy = ContinuousPolicy(sched, GaussianMixture([1.0], [mu], [s]),
                              residual_widths=(4,), rng=RngStream(seed))
    for p in policy.params():
        p += 0.3 * RngStream(seed, 3).normal(p.shape)
    centers = data.draw(hnp.arrays(float, (2, d),
                                   elements=st.floats(-3.0, 3.0)))
    reward = ModePreferenceReward([1.0, -0.5], centers, 1.1)
    cfg = EStepConfig(alpha=alpha, gamma=gamma, particles=1)
    n = 9
    X = 2.0 * RngStream(seed, 1).normal((n, d))
    nxt, _ = search_step_batch(policy, reward, X, t, cfg, RngStream(seed, 2))
    sig2 = sched.sig2[t]
    mean = nxt - np.sqrt(sig2) * RngStream(seed, 2).normal((n, 1, d))[:, 0]
    ab = sched.alpha_bar[t]
    v = ab * s**2 + 1 - ab
    slope = np.sqrt(ab) * s**2 / v
    xhat = slope * X + (1 - ab) * mu / v
    diff = xhat[:, None, :] - centers
    bumps = np.array([1.0, -0.5]) * np.exp(-np.sum(diff * diff, axis=-1)
                                           / (2 * 1.1**2))
    grad_r = np.sum(bumps[..., None] * -diff / 1.1**2, axis=-2)
    want = policy.mean(X, t) + sig2 / alpha * gamma ** (t - 1) * slope * grad_r
    np.testing.assert_allclose(mean, want, rtol=1e-12, atol=1e-12)


@FAST
@given(m=st.integers(1, 4), L=st.integers(1, 7), K=st.integers(1, 4),
       lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
       seed=st.integers(0, 2**16))
@example(m=3, L=2, K=2, lead=(3,), seed=0)     # L < m
@example(m=4, L=4, K=3, lead=(), seed=1)       # L = m
def test_motif_relaxed_grad_matches_reference_bit_for_bit(m, L, K, lead,
                                                          seed):
    rng = np.random.default_rng(seed)
    motif = rng.integers(0, K, m)
    probs = rng.random(lead + (L, K + 1))
    got = MotifCountReward(motif, K).relaxed_grad(probs)
    np.testing.assert_array_equal(got, motif_relaxed_grad(motif, probs))
