import numpy as np
import pytest

from emdiff.errors import ConfigError
from emdiff.numkit import RngStream
from emdiff.rewards import (LinearReward, ModePreferenceReward,
                            MotifCountReward, NegSquaredDistReward,
                            TokenCountReward, make_reward)


def test_linear_value_and_grad():
    r = LinearReward([1.0, 0.0])
    assert r.value(np.array([3.0, 7.0])) == pytest.approx(3.0)
    np.testing.assert_array_equal(r.grad(np.array([5.0, -2.0])), [1.0, 0.0])


def test_neg_sq_dist_peak():
    g = np.array([1.5, -0.5])
    r = NegSquaredDistReward(g)
    assert r.value(g) == 0.0
    np.testing.assert_allclose(r.grad(np.array([2.0, 0.0])),
                               -2.0 * (np.array([2.0, 0.0]) - g), atol=1e-14)


def test_motif_count_sliding_window():
    r = MotifCountReward(np.array([0, 1]), vocab=2)  # motif "AB"
    assert r.value(np.array([0, 1, 0, 1])) == 2.0    # "ABAB"
    assert r.value(np.array([1, 1, 1, 1])) == 0.0
    r2 = MotifCountReward(np.array([0, 0]), vocab=2)
    assert r2.value(np.array([0, 0, 0])) == 2.0      # overlaps counted


@pytest.mark.parametrize("seed", range(4))
def test_motif_count_matches_row_loop(seed):
    # the vectorized count against a per-row window loop, over any leading
    # shape and including rows shorter than the motif
    rng = RngStream(seed)
    for L in range(0, 7):
        for m in (1, 2, 3):
            r = MotifCountReward(rng.gen.integers(0, 3, size=m), vocab=3)
            x = rng.gen.integers(0, 3, size=(2, 5, L))
            ref = np.array([[float(sum(np.array_equal(row[i:i + m], r.motif)
                                       for i in range(L - m + 1)))
                             for row in block] for block in x])
            np.testing.assert_array_equal(r.value(x), ref)
            np.testing.assert_array_equal(r.value(x[0]), ref[0])
            one = r.value(x[0, 0])
            assert type(one) is float and one == ref[0, 0]


def test_token_count():
    r = TokenCountReward(1, vocab=3)
    assert r.value(np.array([1, 0, 1, 2])) == 2.0


def _onehot(seq, K):
    out = np.zeros((len(seq), K + 1))
    out[np.arange(len(seq)), seq] = 1.0
    return out


@pytest.mark.parametrize("seq", [[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]])
def test_relaxed_matches_exact_on_vertices(seq):
    seq = np.array(seq)
    for r in (MotifCountReward(np.array([0, 1]), 2),
              TokenCountReward(0, 2)):
        assert r.relaxed_value(_onehot(seq, 2)) == r.value(seq)


def test_relaxed_composition_gradient_is_indicator():
    # d/dp of sum_l p_l(token) is 1 on the token column
    r = TokenCountReward(1, vocab=3)
    p = np.full((5, 4), 0.25)
    g = r.relaxed_grad(p)
    expected = np.zeros((5, 4))
    expected[:, 1] = 1.0
    np.testing.assert_array_equal(g, expected)


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        old = x[ix]
        x[ix] = old + h
        up = f(x)
        x[ix] = old - h
        dn = f(x)
        x[ix] = old
        g[ix] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize("seed", range(10))
def test_continuous_gradients_match_finite_differences(seed):
    rng = RngStream(seed)
    rewards = [
        LinearReward(rng.normal(3)),
        NegSquaredDistReward(rng.normal(3)),
        ModePreferenceReward([1.0, 0.5], rng.normal((2, 3)), 1.3),
    ]
    for r in rewards:
        for _ in range(5):
            x = rng.normal(3)
            fd = _fd_grad(lambda v: float(r.value(v)), x.copy())
            np.testing.assert_allclose(r.grad(x), fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("seed", range(10))
def test_relaxed_gradients_match_finite_differences(seed):
    rng = RngStream(seed, 1)
    rewards = [MotifCountReward(np.array([0, 1, 0]), 2),
               TokenCountReward(1, 2)]
    for r in rewards:
        for _ in range(5):
            # multilinear extension is defined off the simplex too
            p = rng.uniform((6, 3)) + 0.05
            fd = _fd_grad(lambda q: float(r.relaxed_value(q)), p.copy())
            np.testing.assert_allclose(r.relaxed_grad(p), fd, rtol=1e-5,
                                       atol=1e-9)


def test_black_box_flag_blocks_gradients():
    r = LinearReward([1.0]).as_black_box()
    assert not r.differentiable
    with pytest.raises(ConfigError):
        r.grad(np.array([1.0]))
    rb = MotifCountReward(np.array([0]), 2).as_black_box()
    with pytest.raises(ConfigError):
        rb.relaxed_grad(np.zeros((2, 3)))
    # value still works
    assert rb.value(np.array([0, 1])) == 1.0


def test_make_reward_from_config():
    r = make_reward({"name": "motif_count", "motif": "AB"}, vocab=2,
                    alphabet="AB")
    assert r.value(np.array([0, 1])) == 1.0
    with pytest.raises(ConfigError):
        make_reward({"name": "nope"})
    with pytest.raises(ConfigError):
        make_reward({"name": "motif_count", "motif": "AZ"}, vocab=2,
                    alphabet="AB")
