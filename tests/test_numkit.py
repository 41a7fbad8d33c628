import numpy as np
import pytest

from emdiff import numkit
from emdiff.numkit import (SHORT_AXIS_MIN_SIZE, Mlp, RngStream, log_sum_exp,
                           sample_categorical, softmax)

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


@pytest.mark.parametrize("shape, axis, by_class", [
    ((4,), 0, False), ((32, 8, 4), -1, False), ((16, 3), 0, False),
    ((320, 8, 4), -1, True), ((4800, 8, 4), -1, True), ((256, 4, 3), 1, False),
    ((3000, 2, 2), -1, True), ((7, 600), 0, False),
    ((40, 9, 8), -1, False),                # an axis of 8 is not short
    ((4, 768), 0, False), ((4, 4800), 0, False),  # mixture_stats' axis
    ((600, 4), 1, True),
])
def test_softmax_bit_identical_to_plain_formula(shape, axis, by_class,
                                                monkeypatch):
    # the class-by-class reduction of short last axes on large inputs must
    # give the bits of one max and one sum over the axis, and so must numpy's
    # reduction of the other axes; -inf entries included
    rng = np.random.default_rng(sum(shape))
    v = rng.normal(size=shape) * 20
    v[rng.random(shape) < 0.3] = -np.inf
    np.moveaxis(v, axis, 0)[0] = 1.5        # no row is all -inf
    m = np.max(v, axis=axis, keepdims=True)
    e = np.exp(v - np.where(np.isfinite(m), m, 0.0))
    want = e / np.sum(e, axis=axis, keepdims=True)
    folds, fold = [], numkit._fold
    monkeypatch.setattr(numkit, "_fold",
                        lambda op, a: folds.append(op) or fold(op, a))
    got = softmax(v, axis=axis)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert bool(folds) == by_class
    assert (v.size >= SHORT_AXIS_MIN_SIZE and shape[axis] < 8
            and axis in (-1, len(shape) - 1)) == by_class


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


@pytest.mark.parametrize("seed", [0, 9, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 3, 2**62 + 7, 2**64 - 1])
def test_rng_stream_is_philox_keyed_by_seed_and_stream(seed, stream):
    got = RngStream(seed, stream)
    want = np.random.Generator(np.random.Philox(key=(seed << 64) | stream))
    assert repr(got.gen.bit_generator.state) == \
        repr(want.bit_generator.state)
    np.testing.assert_array_equal(got.normal(1000),
                                  want.standard_normal(1000))
    np.testing.assert_array_equal(got.uniform(1000), want.random(1000))
    assert repr(got.gen.bit_generator.state) == \
        repr(want.bit_generator.state)


def test_live_child_streams_draw_independently():
    root = RngStream(21, 4)
    a, b = root.child(1), root.child(2)
    turns = [(a.normal(3), b.uniform(2), a.uniform(1), b.normal(4))
             for _ in range(5)]
    a, b = root.child(1), root.child(2)
    alone_a = [(a.normal(3), a.uniform(1)) for _ in range(5)]
    alone_b = [(b.uniform(2), b.normal(4)) for _ in range(5)]
    for (a0, b0, a1, b1), (a0w, a1w), (b0w, b1w) in zip(turns, alone_a,
                                                        alone_b):
        for got, want in ((a0, a0w), (a1, a1w), (b0, b0w), (b1, b1w)):
            np.testing.assert_array_equal(got, want)


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
    _, dx = net.backward(net.forward_cache(x)[1], up)
    np.testing.assert_allclose(dx, net.weights[0].T @ up, atol=1e-14)


def _fd_check(net, x, seed):
    up = RngStream(seed, 1).normal(net.widths[-1])
    grads, dx = net.backward(net.forward_cache(x)[1], up)
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
