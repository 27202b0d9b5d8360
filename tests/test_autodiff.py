import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aligncruse.autodiff import (
    BN_EPS,
    BnStats,
    Tensor,
    add,
    backward,
    batch_norm,
    ccmse_loss,
    concat,
    conv2d_causal,
    conv2d_transpose,
    delay_scores,
    elu,
    grad_check,
    gru_seq,
    istft_graph,
    matmul,
    max_pool_freq,
    mul,
    no_grad,
    sigmoid,
    softmax_lastdim,
    stft_graph,
    sum_all,
    weighted_delay_sum,
)
from aligncruse.dsp import N_BINS, AudioClip, stft
from aligncruse.errors import ContractViolationError, NumericsError, ShapeError

RNG = np.random.default_rng(1234)


def conv_oracle(x, w, b, stride_f):
    """Direct 6-loop causal convolution; the reference the fast path must match."""
    c_in, t, f = x.shape
    c_out, _, kt, kf = w.shape
    pad_f = (kf - 1) // 2
    xp = np.pad(x, ((0, 0), (kt - 1, 0), (pad_f, pad_f)))
    f_out = (f + 2 * pad_f - kf) // stride_f + 1
    out = np.zeros((c_out, t, f_out))
    for o in range(c_out):
        for i in range(c_in):
            for tau in range(t):
                for phi in range(f_out):
                    for a in range(kt):
                        for c in range(kf):
                            out[o, tau, phi] += w[o, i, a, c] * xp[i, tau + a, phi * stride_f + c]
        out[o] += b[o]
    return out


def _run(op, arrays, g):
    """Output of ``op`` on fresh leaves, and each leaf's gradient of <out, g>."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves)
    backward(sum_all(mul(out, Tensor(g))))
    return out.data, [leaf.grad for leaf in leaves]


def _assert_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol * max(1.0, np.max(np.abs(want), initial=0.0))


# Loop references: the per-tap and per-lag kernels that the GEMM and banded
# ops replaced, each returning the output and the gradients of <out, g>.

def _conv_ref(x, w, b, stride_f, g):
    c_in, t, f = x.shape
    c_out, _, kt, kf = w.shape
    pad_f = (kf - 1) // 2
    xp = np.pad(x, ((0, 0), (kt - 1, 0), (pad_f, pad_f)))
    f_out = (f + 2 * pad_f - kf) // stride_f + 1
    span = stride_f * (f_out - 1) + 1
    out = np.zeros((c_out, t, f_out)) + b[:, None, None]
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for a in range(kt):
        for c in range(kf):
            xs = xp[:, a : a + t, c : c + span : stride_f]
            out += np.tensordot(w[:, :, a, c], xs, axes=([1], [0]))
            dw[:, :, a, c] = np.tensordot(g, xs, axes=([1, 2], [1, 2]))
            dxp[:, a : a + t, c : c + span : stride_f] += np.tensordot(w[:, :, a, c], g, axes=([0], [0]))
    return out, [dxp[:, kt - 1 :, pad_f : pad_f + f], dw, g.sum(axis=(1, 2))]


def _conv_transpose_ref(x, w, b, stride_f, out_pad_f, g):
    c_in, t, f = x.shape
    _, c_out, _, kf = w.shape
    pad = (kf - 1) // 2
    f_out = (f - 1) * stride_f - 2 * pad + kf + out_pad_f
    width = (f - 1) * stride_f + kf
    span = stride_f * (f - 1) + 1
    full = np.zeros((c_out, t, width))
    gfull = np.zeros((c_out, t, width))
    gfull[:, :, pad : pad + f_out] = g
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for c in range(kf):
        full[:, :, c : c + span : stride_f] += np.tensordot(w[:, :, 0, c], x, axes=([0], [0]))
        gs = gfull[:, :, c : c + span : stride_f]
        dx += np.tensordot(w[:, :, 0, c], gs, axes=([1], [0]))
        dw[:, :, 0, c] = np.tensordot(x, gs, axes=([1, 2], [1, 2]))
    return full[:, :, pad : pad + f_out] + b[:, None, None], [dx, dw, g.sum(axis=(1, 2))]


def _elu_ref(x, g):
    neg = x < 0
    y = x.copy()
    y[neg] = np.expm1(x[neg])
    dx = g.copy()
    dx[neg] *= y[neg] + 1.0
    return y, dx


def _bn_grad_ref(x, gamma, mu, inv_std, train, g):
    n = x.shape[1] * x.shape[2]
    xhat = (x - mu[:, None, None]) * inv_std[:, None, None]
    if train:
        dxhat = g * gamma[:, None, None]
        s1 = dxhat.sum(axis=(1, 2), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
        dx = inv_std[:, None, None] * (dxhat - s1 / n - xhat * s2 / n)
    else:
        dx = g * (gamma * inv_std)[:, None, None]
    return [dx, (g * xhat).sum(axis=(1, 2)), g.sum(axis=(1, 2))]


def _delay_scores_ref(q, k, d_max, g):
    t = q.shape[0]
    scores, dq, dk = np.zeros(d_max), np.zeros_like(q), np.zeros_like(k)
    for d in range(min(d_max, t)):
        scores[d] = np.sum(q[d:] * k[: t - d])
        dq[d:] += g[d] * k[: t - d]
        dk[: t - d] += g[d] * q[d:]
    return scores, [dq, dk]


def _weighted_delay_sum_ref(x, dist, g):
    t = x.shape[1]
    out, dx, ddist = np.zeros_like(x), np.zeros_like(x), np.zeros_like(dist)
    for d in range(min(len(dist), t)):
        out[:, d:] += dist[d] * x[:, : t - d]
        ddist[d] = np.sum(x[:, : t - d] * g[:, d:])
        dx[:, : t - d] += dist[d] * g[:, d:]
    return out, [dx, ddist]


# -- graph mechanics --------------------------------------------------------

def test_sum_square_grad_exact():
    x = Tensor(RNG.standard_normal(17), requires_grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    assert np.array_equal(x.grad, 2 * x.data)


def test_double_backward_is_error():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    with pytest.raises(ContractViolationError):
        backward(loss)


def test_nonscalar_root_is_error():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    with pytest.raises(ContractViolationError):
        backward(y)


def test_nonfinite_op_output_raises():
    x = Tensor(np.array([1e200]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        mul(x, x)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(4), requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad
    assert y._backward_fn is None


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = sum_all(add(mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    backward(y)
    np.testing.assert_allclose(x.grad, [7.0])


# -- activations --------------------------------------------------------------

def test_elu_sigmoid_at_zero():
    z = Tensor(np.zeros(5))
    assert np.all(elu(z).data == 0)
    assert np.all(sigmoid(z).data == 0.5)


def test_elu_values():
    x = Tensor(np.array([-1.0, 2.0]))
    np.testing.assert_allclose(elu(x).data, [np.expm1(-1.0), 2.0])


def test_elu_bit_identical_to_reference():
    x = np.concatenate([[-30.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 30.0],
                        RNG.standard_normal(50) * 3])
    g = RNG.standard_normal(x.shape)
    out, (dx,) = _run(elu, [x], g)
    ref_out, ref_dx = _elu_ref(x, g)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(dx, ref_dx)


def test_softmax_uniform():
    d = 7
    out = softmax_lastdim(Tensor(np.full(d, 3.21)))
    np.testing.assert_allclose(out.data, np.full(d, 1.0 / d))


def test_softmax_shift_stability():
    # huge scores must not overflow and must still normalize
    out = softmax_lastdim(Tensor(np.array([800.0, -800.0])))
    assert abs(out.data.sum() - 1.0) < 1e-12
    # strictly positive whenever the spread is representable in float64
    out = softmax_lastdim(Tensor(np.array([400.0, -300.0])))
    assert abs(out.data.sum() - 1.0) < 1e-12
    assert np.all(out.data > 0)
    # exact small-scale rational check: softmax([a, a]) == [.5, .5]
    out2 = softmax_lastdim(Tensor(np.array([1e4, 1e4])))
    np.testing.assert_allclose(out2.data, [0.5, 0.5])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 30))
def test_softmax_normalized_property(seed, d):
    x = np.random.default_rng(seed).standard_normal(d) * 50
    y = softmax_lastdim(Tensor(x)).data
    assert abs(y.sum() - 1.0) < 1e-12
    assert np.all(y > 0)


# -- conv2d_causal -------------------------------------------------------------

def test_conv_identity_kernel_passthrough():
    x = RNG.standard_normal((1, 6, 9))
    w = np.zeros((1, 1, 4, 3))
    w[0, 0, 3, 1] = 1.0  # current frame, center bin
    out = conv2d_causal(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride_f=1)
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_conv_size_chain_161_to_11():
    f = 161
    for expect in (81, 41, 21, 11):
        f = (f + 2 - 3) // 2 + 1
        assert f == expect
    x = Tensor(RNG.standard_normal((1, 3, 161)))
    w = Tensor(RNG.standard_normal((2, 1, 4, 3)) * 0.1)
    out = conv2d_causal(x, w, Tensor(np.zeros(2)), stride_f=2)
    assert out.data.shape == (2, 3, 81)
    out2 = conv2d_causal(out, Tensor(RNG.standard_normal((3, 2, 4, 3)) * 0.1),
                         Tensor(np.zeros(3)), stride_f=2)
    assert out2.data.shape == (3, 3, 41)


@pytest.mark.parametrize("stride_f", [1, 2])
def test_conv_matches_bruteforce_oracle(stride_f):
    x = RNG.standard_normal((3, 5, 11))
    w = RNG.standard_normal((4, 3, 4, 3))
    b = RNG.standard_normal(4)
    out = conv2d_causal(Tensor(x), Tensor(w), Tensor(b), stride_f=stride_f)
    np.testing.assert_allclose(out.data, conv_oracle(x, w, b, stride_f), atol=1e-12)


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d_causal(Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros((1, 3, 4, 3))),
                      Tensor(np.zeros(1)))


def test_conv_causality_exact():
    x = RNG.standard_normal((2, 8, 9))
    w = RNG.standard_normal((2, 2, 4, 3))
    b = RNG.standard_normal(2)
    full = conv2d_causal(Tensor(x), Tensor(w), Tensor(b)).data
    for cut in range(1, 8):
        zeroed = x.copy()
        zeroed[:, cut:, :] = 0.0
        part = conv2d_causal(Tensor(zeroed), Tensor(w), Tensor(b)).data
        assert np.array_equal(full[:, :cut, :], part[:, :cut, :])


@pytest.mark.parametrize("stride_f", [1, 2])
@pytest.mark.parametrize("c_in", [1, 3])
@pytest.mark.parametrize("t", [2, 7])  # fewer frames than time taps, and more
def test_conv_matches_loop_reference(stride_f, c_in, t):
    x = RNG.standard_normal((c_in, t, 11))
    w = RNG.standard_normal((4, c_in, 4, 3))
    b = RNG.standard_normal(4)
    f_out = (11 + 2 - 3) // stride_f + 1
    g = RNG.standard_normal((4, t, f_out))
    out, grads = _run(lambda *a: conv2d_causal(*a, stride_f=stride_f), [x, w, b], g)
    ref_out, ref_grads = _conv_ref(x, w, b, stride_f, g)
    _assert_close(out, ref_out)
    for got, want in zip(grads, ref_grads):
        _assert_close(got, want)


# -- conv2d_transpose ----------------------------------------------------------

def test_transpose_size_chain():
    x = Tensor(RNG.standard_normal((2, 3, 11)))
    f = 11
    expected = [21, 41, 81]
    for exp in expected:
        w = Tensor(RNG.standard_normal((x.data.shape[0], 2, 1, 3)) * 0.1)
        x = conv2d_transpose(x, w, Tensor(np.zeros(2)), stride_f=2, out_pad_f=0)
        f = (f - 1) * 2 - 2 + 3
        assert f == exp
        assert x.data.shape == (2, 3, exp)


def test_transpose_zeros():
    out = conv2d_transpose(Tensor(np.zeros((2, 3, 11))),
                           Tensor(RNG.standard_normal((2, 4, 1, 3))),
                           Tensor(np.zeros(4)), stride_f=2)
    assert np.all(out.data == 0)


def test_conv_transpose_adjointness():
    # <conv(x), y> == <x, conv_transpose(y)> with tied weights, k_t = 1
    c_in, c_out, t, f = 3, 5, 4, 21
    w = RNG.standard_normal((c_out, c_in, 1, 3))
    x = RNG.standard_normal((c_in, t, f))
    f_out = (f + 2 - 3) // 2 + 1
    y = RNG.standard_normal((c_out, t, f_out))
    cx = conv2d_causal(Tensor(x), Tensor(w), Tensor(np.zeros(c_out)), stride_f=2).data
    # transpose weight layout is (c_in_tr, c_out_tr, 1, kf) with c_in_tr = c_out
    ty = conv2d_transpose(Tensor(y), Tensor(w), Tensor(np.zeros(c_in)),
                          stride_f=2, out_pad_f=0).data
    assert ty.shape == x.shape
    assert abs(np.sum(cx * y) - np.sum(x * ty)) < 1e-10


@pytest.mark.parametrize("stride_f", [1, 2])
@pytest.mark.parametrize("c_in", [1, 3])
@pytest.mark.parametrize("out_pad_f", [0, 1])
def test_conv_transpose_matches_loop_reference(stride_f, c_in, out_pad_f):
    x = RNG.standard_normal((c_in, 5, 6))
    w = RNG.standard_normal((c_in, 4, 1, 3))
    b = RNG.standard_normal(4)
    f_out = (6 - 1) * stride_f - 2 + 3 + out_pad_f
    g = RNG.standard_normal((4, 5, f_out))
    op = lambda *a: conv2d_transpose(*a, stride_f=stride_f, out_pad_f=out_pad_f)  # noqa: E731
    out, grads = _run(op, [x, w, b], g)
    ref_out, ref_grads = _conv_transpose_ref(x, w, b, stride_f, out_pad_f, g)
    _assert_close(out, ref_out)
    for got, want in zip(grads, ref_grads):
        _assert_close(got, want)


# -- max pool -------------------------------------------------------------------

def test_max_pool_sizes():
    out = max_pool_freq(Tensor(RNG.standard_normal((2, 3, 41))), 4)
    assert out.data.shape == (2, 3, 10)  # bin 40 dropped


def test_max_pool_constant():
    out = max_pool_freq(Tensor(np.full((1, 2, 8), 3.5)), 4)
    assert np.all(out.data == 3.5)


def test_max_pool_too_small():
    with pytest.raises(ShapeError):
        max_pool_freq(Tensor(np.zeros((1, 2, 3))), 4)


def test_max_pool_matches_oracle():
    x = RNG.standard_normal((3, 4, 17))
    out = max_pool_freq(Tensor(x), 4).data
    for c in range(3):
        for t in range(4):
            for j in range(4):
                assert out[c, t, j] == x[c, t, 4 * j : 4 * j + 4].max()


# -- batch norm -------------------------------------------------------------------

def test_bn_constant_channel_train():
    x = np.ones((3, 4, 5)) * np.array([1.0, -2.0, 7.0])[:, None, None]
    beta = np.array([0.3, 0.4, 0.5])
    out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(beta), BnStats(3), "train")
    np.testing.assert_allclose(out.data, np.broadcast_to(beta[:, None, None], x.shape), atol=1e-12)


def test_bn_identity_on_standardized_input():
    x = RNG.standard_normal((2, 50, 60))
    x = (x - x.mean(axis=(1, 2), keepdims=True)) / x.std(axis=(1, 2), keepdims=True)
    out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), BnStats(2), "train")
    np.testing.assert_allclose(out.data, x, atol=1e-3)


def test_bn_train_moments():
    x = RNG.standard_normal((4, 30, 40)) * 3 + 1
    out = batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), BnStats(4), "train").data
    np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=(1, 2)), 1.0, atol=1e-3)


def test_bn_infer_without_stats_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ContractViolationError):
        batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), None, "infer")
    with pytest.raises(ContractViolationError):
        batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), BnStats(2), "infer")


def test_bn_infer_is_frame_local():
    stats = BnStats(2)
    stats.mean, stats.var, stats.initialized = np.array([0.5, -1.0]), np.array([2.0, 3.0]), True
    x = RNG.standard_normal((2, 6, 4))
    full = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, "infer").data
    head = batch_norm(Tensor(x[:, :2]), Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, "infer").data
    assert np.array_equal(full[:, :2], head)


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_bn_backward_matches_reference(mode):
    x = RNG.standard_normal((3, 6, 7)) * 2 + 1
    gamma, beta = RNG.standard_normal(3), RNG.standard_normal(3)
    g = RNG.standard_normal(x.shape)
    stats = BnStats(3)
    stats.mean, stats.var, stats.initialized = RNG.standard_normal(3), RNG.random(3) + 0.5, True
    if mode == "train":
        mu, var = x.mean(axis=(1, 2)), x.var(axis=(1, 2))
    else:
        mu, var = stats.mean, stats.var
    _, grads = _run(lambda *a: batch_norm(*a, stats.copy(), mode), [x, gamma, beta], g)
    ref = _bn_grad_ref(x, gamma, mu, 1.0 / np.sqrt(var + BN_EPS), mode == "train", g)
    for got, want in zip(grads, ref):
        _assert_close(got, want)


# -- GRU ---------------------------------------------------------------------

def _gru_weights(n, h, scale=0.3):
    rng = np.random.default_rng(99)
    return (rng.standard_normal((3 * h, n)) * scale,
            rng.standard_normal((3 * h, h)) * scale,
            rng.standard_normal(3 * h) * scale)


def test_gru_zero_weights_geometric_decay():
    n, h, t = 3, 4, 6
    h0 = np.array([1.0, -2.0, 4.0, 0.5])
    out = gru_seq(Tensor(np.zeros((t, n))), Tensor(h0),
                  Tensor(np.zeros((3 * h, n))), Tensor(np.zeros((3 * h, h))),
                  Tensor(np.zeros(3 * h))).data
    # z = 0.5, candidate = 0 -> h_t = 0.5 * h_{t-1}
    for i in range(t):
        np.testing.assert_allclose(out[i], h0 * 0.5 ** (i + 1), atol=1e-15)


def test_gru_all_zero_stays_zero():
    n, h, t = 3, 4, 5
    wih, whh, _ = _gru_weights(n, h)
    out = gru_seq(Tensor(np.zeros((t, n))), Tensor(np.zeros(h)),
                  Tensor(wih), Tensor(whh), Tensor(np.zeros(3 * h))).data
    assert np.all(out == 0)


def test_gru_chunked_equals_oneshot_bitwise():
    n, h, t = 5, 7, 10
    wih, whh, b = _gru_weights(n, h)
    x = np.random.default_rng(5).standard_normal((t, n))
    one = gru_seq(Tensor(x), Tensor(np.zeros(h)), Tensor(wih), Tensor(whh), Tensor(b)).data
    first = gru_seq(Tensor(x[:1]), Tensor(np.zeros(h)), Tensor(wih), Tensor(whh), Tensor(b)).data
    rest = gru_seq(Tensor(x[1:]), Tensor(first[-1]), Tensor(wih), Tensor(whh), Tensor(b)).data
    assert np.array_equal(np.concatenate([first, rest]), one)


# -- alignment kernels ----------------------------------------------------------

def test_delay_scores_bruteforce():
    t, p, d_max = 12, 3, 6
    q = RNG.standard_normal((t, p))
    k = RNG.standard_normal((t, p))
    scores = delay_scores(Tensor(q), Tensor(k), d_max).data
    for d in range(d_max):
        expect = sum(np.dot(q[i], k[i - d]) for i in range(t) if i - d >= 0)
        np.testing.assert_allclose(scores[d], expect, atol=1e-12)


def test_weighted_delay_sum_bruteforce():
    c, t, f, d_max = 2, 9, 5, 4
    x = RNG.standard_normal((c, t, f))
    dist = np.abs(RNG.standard_normal(d_max))
    dist /= dist.sum()
    out = weighted_delay_sum(Tensor(x), Tensor(dist)).data
    expect = np.zeros_like(x)
    for d in range(d_max):
        for i in range(t):
            if i - d >= 0:
                expect[:, i, :] += dist[d] * x[:, i - d, :]
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_weighted_delay_sum_onehot_is_exact_shift():
    c, t, f = 3, 8, 4
    x = RNG.standard_normal((c, t, f))
    d0 = 3
    dist = np.zeros(6)
    dist[d0] = 1.0
    out = weighted_delay_sum(Tensor(x), Tensor(dist)).data
    assert np.array_equal(out[:, :d0, :], np.zeros((c, d0, f)))
    assert np.array_equal(out[:, d0:, :], x[:, : t - d0, :])


# t < d_max, t >> d_max, partial last blocks, and a single lag
@pytest.mark.parametrize("t, d_max", [(3, 10), (40, 100), (250, 100), (97, 40), (1030, 50),
                                      (70, 4), (1, 1), (33, 1)])
def test_delay_kernels_match_loop_reference(t, d_max):
    x = RNG.standard_normal((2, t, 3))
    dist = RNG.random(d_max)
    g = RNG.standard_normal(x.shape)
    out, grads = _run(weighted_delay_sum, [x, dist], g)
    ref_out, ref_grads = _weighted_delay_sum_ref(x, dist, g)
    _assert_close(out, ref_out)
    for got, want in zip(grads, ref_grads):
        _assert_close(got, want)

    q, k = RNG.standard_normal((t, 4)), RNG.standard_normal((t, 4))
    gs = RNG.standard_normal(d_max)
    scores, grads = _run(lambda a, b: delay_scores(a, b, d_max), [q, k], gs)
    ref_scores, ref_grads = _delay_scores_ref(q, k, d_max, gs)
    _assert_close(scores, ref_scores)
    for got, want in zip(grads, ref_grads):
        _assert_close(got, want)


def test_weighted_delay_sum_memory_is_linear_in_t():
    # a dense (t, t) delay matrix would be 288 MB here; the banded product
    # holds one (block, block + d_max - 1) band and the output
    x = Tensor(RNG.standard_normal((4, 6000, 11)), requires_grad=True)
    dist = Tensor(RNG.random(100), requires_grad=True)
    g = RNG.standard_normal(x.data.shape)
    out_bytes = x.data.nbytes
    tracemalloc.start()
    try:
        out = weighted_delay_sum(x, dist)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out._backward_fn(g)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < 3 * out_bytes
    assert backward_peak < 3 * out_bytes


# -- spectral graph ops -----------------------------------------------------------

def test_stft_graph_matches_dsp():
    x = RNG.standard_normal(4 * 160 + 320)
    spec = stft(AudioClip(x))
    out = stft_graph(Tensor(x)).data
    np.testing.assert_allclose(out[0], spec.data.real, atol=1e-9)
    np.testing.assert_allclose(out[1], spec.data.imag, atol=1e-9)


def test_istft_graph_round_trip():
    x = RNG.standard_normal(8 * 160 + 320)
    spec = stft_graph(Tensor(x))
    y = istft_graph(spec).data
    assert np.max(np.abs(y[320:-320] - x[320:-320])) < 1e-6


# -- the finite-difference gate ----------------------------------------------------

def test_gradcheck_elementwise_ops():
    x = RNG.standard_normal((3, 4))
    err = grad_check(lambda a: elu(a), [x])
    assert err < 1e-4
    err = grad_check(lambda a: sigmoid(a), [x])
    assert err < 1e-4
    err = grad_check(lambda a: softmax_lastdim(a), [x])
    assert err < 1e-4
    err = grad_check(lambda a, b: matmul(a, b), [RNG.standard_normal((3, 4)),
                                                 RNG.standard_normal((4, 2))])
    assert err < 1e-4


def test_gradcheck_conv2d_causal():
    x = RNG.standard_normal((2, 4, 9))
    w = RNG.standard_normal((3, 2, 4, 3)) * 0.5
    b = RNG.standard_normal(3)
    err = grad_check(lambda a, ww, bb: conv2d_causal(a, ww, bb, stride_f=2), [x, w, b])
    assert err < 1e-4


def test_gradcheck_conv2d_transpose():
    x = RNG.standard_normal((3, 3, 6))
    w = RNG.standard_normal((3, 2, 1, 3)) * 0.5
    b = RNG.standard_normal(2)
    err = grad_check(lambda a, ww, bb: conv2d_transpose(a, ww, bb, stride_f=2, out_pad_f=1),
                     [x, w, b])
    assert err < 1e-4


def test_gradcheck_gru():
    n, h, t = 3, 4, 5
    x = RNG.standard_normal((t, n)) * 0.5
    h0 = RNG.standard_normal(h) * 0.5
    wih, whh, b = _gru_weights(n, h, scale=0.4)
    err = grad_check(lambda *args: gru_seq(*args), [x, h0, wih, whh, b])
    assert err < 1e-4


def test_gradcheck_batch_norm_train():
    x = RNG.standard_normal((2, 4, 5)) * 2 + 1
    gamma = np.array([1.3, 0.7])
    beta = np.array([0.2, -0.1])
    err = grad_check(lambda a, g, b: batch_norm(a, g, b, None, "train"), [x, gamma, beta])
    assert err < 1e-4


def test_gradcheck_batch_norm_infer():
    stats = BnStats(2)
    stats.mean, stats.var, stats.initialized = np.array([0.2, -0.3]), np.array([1.5, 0.8]), True
    x = RNG.standard_normal((2, 4, 5))
    err = grad_check(
        lambda a, g, b: batch_norm(a, g, b, stats, "infer"),
        [x, np.array([1.3, 0.7]), np.array([0.2, -0.1])],
    )
    assert err < 1e-4


def test_gradcheck_max_pool():
    # keep values well separated so the argmax is stable under +-eps
    x = RNG.standard_normal((2, 3, 8)) * 10
    err = grad_check(lambda a: max_pool_freq(a, 4), [x])
    assert err < 1e-4


def test_gradcheck_alignment_kernels():
    q = RNG.standard_normal((7, 3))
    k = RNG.standard_normal((7, 3))
    err = grad_check(lambda a, b: delay_scores(a, b, 4), [q, k])
    assert err < 1e-4
    x = RNG.standard_normal((2, 7, 3))
    dist = np.abs(RNG.standard_normal(4)) + 0.1
    err = grad_check(lambda a, d: weighted_delay_sum(a, d), [x, dist])
    assert err < 1e-4


def test_gradcheck_stft_istft():
    # 3 frames and a ragged 37-sample tail; every coordinate is checked
    x = RNG.standard_normal(2 * 160 + 320 + 37)
    err = grad_check(stft_graph, [x])
    assert err < 1e-4
    spec = RNG.standard_normal((2, 3, N_BINS))
    err = grad_check(istft_graph, [spec])
    assert err < 1e-4


def test_gradcheck_ccmse():
    ref = RNG.standard_normal((2, 3, 5))
    hat = RNG.standard_normal((2, 3, 5))
    err = grad_check(lambda s: ccmse_loss(s, ref, 0.3, 0.7), [hat])
    assert err < 1e-4


def test_gradcheck_composed_stack():
    # conv -> bn(train) -> elu -> pool -> transpose-conv, all in one graph
    x = RNG.standard_normal((1, 3, 9))
    w1 = RNG.standard_normal((2, 1, 4, 3)) * 0.5
    b1 = RNG.standard_normal(2)
    g1 = np.array([1.1, 0.9])
    be1 = np.array([0.1, -0.2])
    w2 = RNG.standard_normal((2, 1, 1, 3)) * 0.5
    b2 = RNG.standard_normal(1)

    def stack(xx, ww1, bb1, gg1, bbe1, ww2, bb2):
        h = conv2d_causal(xx, ww1, bb1, stride_f=2)
        h = elu(batch_norm(h, gg1, bbe1, None, "train"))
        h = conv2d_transpose(h, ww2, bb2, stride_f=2, out_pad_f=0)
        return h

    err = grad_check(stack, [x, w1, b1, g1, be1, w2, b2])
    assert err < 1e-4


def test_ccmse_gradient_exact_at_small_bin():
    # the smallest bin's power is about 1e-9: a guard added to every bin's
    # power (rather than only where it is 0) biases this gradient by ~1e-3
    rng = np.random.default_rng(17)
    ref = rng.standard_normal((2, 3, 5))
    hat = rng.standard_normal((2, 3, 5))
    hat[:, 1, 2] = [2.0e-5, -2.4e-5]
    assert 5e-10 < hat[0, 1, 2] ** 2 + hat[1, 1, 2] ** 2 < 2e-9
    spec = Tensor(hat.copy(), requires_grad=True)
    backward(ccmse_loss(spec, ref, 0.3, 0.7))
    h = 1e-9
    for part in (0, 1):
        probe = hat.copy()
        probe[part, 1, 2] += h
        fp = float(ccmse_loss(Tensor(probe), ref, 0.3, 0.7).data)
        probe[part, 1, 2] -= 2 * h
        fm = float(ccmse_loss(Tensor(probe), ref, 0.3, 0.7).data)
        num = (fp - fm) / (2 * h)
        assert abs(spec.grad[part, 1, 2] - num) <= 1e-6 * abs(num)
