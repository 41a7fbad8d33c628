import numpy as np
import pytest

from emdiff.numkit import Mlp, RngStream, log_sum_exp, sample_categorical, softmax

CHI2_99_DF3 = 11.344866730144373  # 0.01 upper tail, 3 dof


def test_log_sum_exp_uniform_pair():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_log_sum_exp_singleton_identity():
    assert log_sum_exp([5.0]) == pytest.approx(5.0, abs=0)


def test_log_sum_exp_large_inputs_shift_stable():
    # oracle: subtract the max by hand, exact arithmetic on the remainder
    expected = 1000.0 + np.log(2.0)
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(expected, abs=1e-12)


def test_log_sum_exp_bounds_vs_max():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 9)) * 10
        gap = log_sum_exp(v) - v.max()
        assert 0.0 <= gap <= np.log(v.size) + 1e-12


def test_log_sum_exp_empty_rejected():
    with pytest.raises(ValueError):
        log_sum_exp([])


def test_softmax_uniform():
    np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.ones(3) / 3,
                               atol=1e-15)


@pytest.mark.parametrize("c", [-3.0, 0.0, 11.5])
def test_softmax_two_point_hand_solution(c):
    # solve softmax([c, c + log 3]) by hand: ratio e^{log 3} = 3
    out = softmax([c, c + np.log(3.0)])
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    v = rng.normal(size=6)
    np.testing.assert_allclose(softmax(v), softmax(v + 7.0), atol=1e-12)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = softmax(rng.normal(size=5) * 50)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)


def test_sample_categorical_point_mass():
    rng = RngStream(0)
    assert all(sample_categorical([1.0, 0.0, 0.0], rng) == 0 for _ in range(20))
    assert all(sample_categorical([0.0, 0.0, 1.0], rng) == 2 for _ in range(20))


def test_sample_categorical_frequency():
    rng = RngStream(7)
    draws = sample_categorical([0.5, 0.5], rng, size=100_000)
    freq = np.mean(draws == 0)
    # binomial 3-sigma band around 0.5
    assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(100_000)


def test_sample_categorical_chi2():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    n = 100_000
    draws = sample_categorical(probs, RngStream(11), size=n)
    counts = np.bincount(draws, minlength=4)
    chi2 = np.sum((counts - n * probs) ** 2 / (n * probs))
    assert chi2 < CHI2_99_DF3


def test_sample_categorical_rejects_bad_mass():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        sample_categorical([0.5, -0.5, 1.0], rng)
    with pytest.raises(ValueError):
        sample_categorical([0.5, 0.4], rng)


def test_rng_streams_reproducible_and_independent():
    a = RngStream(42, 3).normal(8)
    b = RngStream(42, 3).normal(8)
    c = RngStream(42, 4).normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_rng_child_streams_deterministic():
    r = RngStream(9)
    np.testing.assert_array_equal(r.child(1, 2).normal(4),
                                  RngStream(9).child(1, 2).normal(4))
    assert not np.allclose(r.child(1, 2).normal(4), r.child(2, 1).normal(4))


def test_mlp_zero_last_layer_outputs_zero():
    rng = RngStream(5)
    net = Mlp([3, 8, 2], rng=rng, zero_last=True)
    for _ in range(5):
        x = rng.normal(3)
        np.testing.assert_array_equal(net.forward(x), np.zeros(2))


def test_mlp_linear_net_input_grad_is_wt_upstream():
    net = Mlp([4, 2], rng=RngStream(1))
    x = RngStream(2).normal(4)
    up = np.array([1.0, -2.0])
    _, dx = net.grad(x, up)
    np.testing.assert_allclose(dx, net.weights[0].T @ up, atol=1e-14)


def _fd_check(net, x, seed):
    up = RngStream(seed, 1).normal(net.out_width)
    grads, dx = net.grad(x, up)
    params = net.params()
    h = 1e-5
    worst = 0.0
    for gi, p in enumerate(params):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            f_up = float(up @ net.forward(x))
            p[ix] = old - h
            f_dn = float(up @ net.forward(x))
            p[ix] = old
            fd = (f_up - f_dn) / (2 * h)
            g = grads[gi][ix]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    for j in range(x.size):
        old = x[j]
        x[j] = old + h
        f_up = float(up @ net.forward(x))
        x[j] = old - h
        f_dn = float(up @ net.forward(x))
        x[j] = old
        fd = (f_up - f_dn) / (2 * h)
        worst = max(worst, abs(fd - dx[j]) / max(abs(fd), abs(dx[j]), 1e-8))
    return worst


@pytest.mark.parametrize("seed", range(20))
def test_mlp_backward_matches_finite_differences(seed):
    rng = RngStream(seed)
    net = Mlp([3, 6, 2], rng=rng)
    x = rng.normal(3)
    assert _fd_check(net, x, seed) < 1e-4


def test_mlp_batch_forward_matches_single():
    rng = RngStream(3)
    net = Mlp([3, 5, 2], rng=rng)
    X = rng.normal((6, 3))
    batch = net.forward(X)
    for i in range(6):
        np.testing.assert_allclose(batch[i], net.forward(X[i]), atol=1e-14)


def test_mlp_shape_mismatch_rejected():
    net = Mlp([3, 2], rng=RngStream(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))
