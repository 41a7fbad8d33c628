import copy

import numpy as np
import pytest

from emdiff.discrete import DiscretePolicy, TabularDenoiser, mask_token, pretrain
from emdiff.errors import ConfigError
from emdiff.rewards import MotifCountReward, Reward, TokenCountReward
from emdiff.schedules import DiscreteSchedule, make_discrete_schedule
from emdiff.softq import (ExactSoftTables, SoftQConfig, approx_soft_q,
                          check_bounds, prior_expectation, x0hat_reward)

MASK = mask_token(2)


class ConstantReward(Reward):
    def __init__(self, c):
        super().__init__("const", "discrete")
        self.c = c

    def value(self, x0):
        x0 = np.asarray(x0)
        if x0.ndim == 1:
            return self.c
        return np.full(x0.shape[0], self.c)


class ScaledTokenReward(TokenCountReward):
    def __init__(self, token, vocab, scale):
        super().__init__(token, vocab)
        self.scale = scale

    def value(self, x0):
        return self.scale * super().value(x0)


def tiny_world(T=3):
    sched = make_discrete_schedule(T)
    den = TabularDenoiser(2, 2)
    seqs = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
    pretrain(den, sched, seqs, weights=[0.4, 0.4, 0.1, 0.1], epochs=400,
             lr=0.05)
    reward = MotifCountReward(np.array([0, 1]), 2)
    return sched, den, reward


def test_softq_config_validation():
    with pytest.raises(ConfigError):
        SoftQConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        SoftQConfig(alpha=1.0, gamma=1.5)


def test_approx_soft_q_arithmetic():
    cfg = SoftQConfig(alpha=1.0, gamma=0.9)
    assert approx_soft_q(cfg, 3, 2.0) == pytest.approx(1.62, abs=1e-12)
    cfg1 = SoftQConfig(alpha=1.0, gamma=1.0)
    for t in (1, 2, 5):
        assert approx_soft_q(cfg1, t, 2.0) == 2.0


def test_approx_soft_q_terminal_matches_exact():
    sched, den, reward = tiny_world()
    cfg = SoftQConfig(alpha=0.5, gamma=0.8)
    tables = ExactSoftTables(sched, den, reward, cfg)
    pol = DiscretePolicy(sched, den)
    for s_ix in range(9):
        sl = tables.edges(1, s_ix)
        succ = tables.states[tables.dst[1][sl]]
        r_hat = x0hat_reward(pol, reward, succ, 0)
        qhat = approx_soft_q(cfg, 1, r_hat)
        np.testing.assert_allclose(qhat, tables.q[1][sl], atol=1e-12)


def test_bellman_self_consistency():
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(0.5, 0.8))
    assert tables.bellman_residual() <= 1e-10


def test_terminal_conditions_exact():
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(0.5, 0.8))
    assert np.all(tables.V[0] == 0.0)
    for s_ix in range(9):
        sl = tables.edges(1, s_ix)
        r = tables.reward_vec[tables.dst[1][sl]]
        np.testing.assert_array_equal(tables.q[1][sl], r)


def test_constant_reward_flat_value():
    # constant reward c at gamma = 1: V = c at every state and timestep
    sched, den, _ = tiny_world()
    c = 0.7
    tables = ExactSoftTables(sched, den, ConstantReward(c),
                             SoftQConfig(0.5, 1.0))
    np.testing.assert_allclose(tables.V[1:], c, atol=1e-12)


def test_high_temperature_limit_matches_expected_reward_dp():
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(1e6, 0.9))
    expect = prior_expectation(tables, tables.reward_vec,
                               tables.cfg.gamma)
    assert np.max(np.abs(tables.V[1:] - expect[1:])) < 1e-3


def test_single_step_instance_only_terminal():
    sched = DiscreteSchedule(1)
    den = TabularDenoiser(2, 2)
    reward = MotifCountReward(np.array([0, 1]), 2)
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(0.5, 0.9))
    for s_ix in range(9):
        sl = tables.edges(1, s_ix)
        r = tables.reward_vec[tables.dst[1][sl]]
        np.testing.assert_array_equal(tables.q[1][sl], r)


def test_tilted_policy_rows_normalize():
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(0.3, 0.9))
    for t in range(1, 4):
        for s_ix in range(9):
            _, probs = tables.tilted_policy(tables.states[s_ix], t)
            assert abs(probs.sum() - 1.0) < 1e-12


def test_tilted_policy_infinite_temperature_is_prior():
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(1e6, 0.9))
    for s_ix in range(9):
        probs = tables.tilted_policy(tables.states[s_ix], 2)[1]
        prior = np.exp(tables.logp[2][tables.edges(2, s_ix)])
        assert 0.5 * np.sum(np.abs(probs - prior)) < 1e-4


def test_tilted_policy_hand_boltzmann_ratio():
    # two successors, uniform prior, Q gap = alpha log 3 -> {0.25, 0.75}
    alpha = 0.37
    sched = DiscreteSchedule(1)
    den = TabularDenoiser(1, 2)  # uniform prediction at the masked state
    reward = ScaledTokenReward(1, 2, alpha * np.log(3.0))
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(alpha, 1.0))
    _, probs = tables.tilted_policy(np.array([MASK]), 1)
    np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-12)


def test_value_monotone_in_alpha_for_nonnegative_reward():
    # V = alpha log E_p[exp(Q/alpha)] interpolates from max Q (alpha -> 0)
    # down to E[Q] (alpha -> inf): non-increasing in alpha under the
    # normalized expectation, bounded between the two limits
    sched, den, reward = tiny_world()
    lo = ExactSoftTables(sched, den, reward, SoftQConfig(0.2, 0.9))
    hi = ExactSoftTables(sched, den, reward, SoftQConfig(0.8, 0.9))
    assert np.all(lo.V[1:] - hi.V[1:] >= -1e-12)
    expect = prior_expectation(hi, hi.reward_vec, hi.cfg.gamma)
    assert np.all(hi.V[1:] - expect[1:] >= -1e-12)


@pytest.mark.parametrize("gamma", [0.8, 1.0])
def test_bounds_hold_exact_enumeration(gamma):
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(0.5, gamma))
    report = check_bounds(tables)
    assert report["ok"], report
    if gamma == 1.0:
        rows = report["rows"]
        assert rows["q"].size > 0
        assert np.all(np.abs(rows["upper"] - rows["lower"]) < 1e-9)


def test_bounds_constant_reward_degenerate_equality():
    # plugging a constant reward into the bound algebra collapses both
    # sides onto Q itself (up to discount bookkeeping) at gamma = 1
    sched, den, _ = tiny_world()
    tables = ExactSoftTables(sched, den, ConstantReward(0.4),
                             SoftQConfig(0.5, 1.0))
    report = check_bounds(tables)
    assert report["ok"]
    rows = report["rows"]
    assert rows["q"].size > 0
    np.testing.assert_allclose(rows["upper"] - rows["lower"], 0.0, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(rows["q"], rows["lower"], rtol=0, atol=1e-9)


def test_bounds_negative_control_detects_corruption():
    sched, den, reward = tiny_world()
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(0.5, 0.8))
    bad = copy.deepcopy(tables)
    for s_ix in range(9):
        bad.q[2][bad.edges(2, s_ix)] += 10.0
    report = check_bounds(bad)
    assert not report["ok"]
    assert report["violations"] > 0


def test_exp_reward_dp_gamma1_equals_exp_value():
    # independent cross-check: at gamma = 1, alpha log E[exp(r/alpha)] = V
    sched, den, reward = tiny_world()
    alpha = 0.5
    tables = ExactSoftTables(sched, den, reward, SoftQConfig(alpha, 1.0))
    F = prior_expectation(tables, np.exp(tables.reward_vec / alpha))
    np.testing.assert_allclose(alpha * np.log(F[1:]), tables.V[1:],
                               atol=1e-10)


def test_x0hat_reward_discrete_exact_at_unmasked():
    sched, den, reward = tiny_world()
    pol = DiscretePolicy(sched, den)
    states = np.array([[0, 1], [1, 1]])
    vals = x0hat_reward(pol, reward, states, 0)
    np.testing.assert_array_equal(vals, [1.0, 0.0])
