"""Dense-array reverse-mode autodiff for the layer set this model needs.

Deliberately minimal: float64 numpy storage, a taped DAG of closures, and
hand-derived backward passes for causal 2-D convolution, frequency-transposed
convolution, GRU, batch norm, pooling, the alignment score/shift kernels and
the spectral ops used by the loss. Every backward here is validated against
central finite differences in the test suite.

The convolutions are im2col GEMMs. The causal conv unfolds its input along
frequency once; each time tap is then a GEMM with a window of that copy, in
the forward and the weight gradient, and the input gradient is one GEMM with
the output gradient stacked once per time tap. The transposed conv is one
GEMM plus k_f strided adds. The delay kernels of the alignment block are
banded Toeplitz products in time blocks of about d_max frames, so their time
and memory grow linearly with the clip.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import dsp
from .errors import ContractViolationError, NumericsError, ShapeError

CHECK_FINITE = True

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr):
    if CHECK_FINITE and not np.all(np.isfinite(arr)):
        raise NumericsError("non-finite value produced by an op")


class Tensor:
    """A shaped float64 value, optionally tracked by the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_freed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._freed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def _accumulate(self, g, own=False):
        """Adds g into the grad buffer. ``own=True`` promises g is a fresh
        array the caller will not touch again, letting us adopt it."""
        if self.grad is None:
            if own and g.dtype == np.float64:
                self.grad = g.reshape(self.data.shape) if g.shape != self.data.shape else g
            else:
                self.grad = np.array(g, dtype=np.float64).reshape(self.data.shape)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents, backward_fn):
    """Create an op output; records the closure only when grads are live."""
    _check_finite(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._freed = False
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = track
    if track:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def backward(root: Tensor):
    """Reverse-mode sweep from a scalar root; frees the graph afterwards.

    Gradients accumulate into every ``requires_grad`` leaf reachable from
    ``root``. Calling backward twice on the same root is an error.
    """
    if root.size != 1:
        raise ContractViolationError("backward requires a scalar root")
    if root._freed:
        raise ContractViolationError("graph already consumed by a previous backward call")
    # iterative topological order
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
    # free: drop closures and intermediate grads, keep leaf grads
    for node in topo:
        node._backward_fn = None
        if node._parents:
            node._parents = ()
            if node is not root:
                node.grad = None
    root._freed = True


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise / linear ---------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), bwd)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inv))

    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def concat(tensors, axis=0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(data, tuple(tensors), bwd)


# -- activations ------------------------------------------------------------

def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), bwd)


def elu_np(x: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """ELU on plain arrays as ``max(x, expm1(min(x, 0)))``: below 0,
    expm1(x) > x; above it, expm1(0) = 0 < x. Shared by the graph op and the
    streaming engine. ``out`` may be ``x`` itself; ``tmp`` is an optional
    work array shaped like ``x``."""
    tmp = np.expm1(np.minimum(x, 0.0, out=tmp), out=tmp)
    return np.maximum(x, tmp, out=out)


def elu(a: Tensor) -> Tensor:
    data = elu_np(a.data)

    def bwd(g):
        if a.requires_grad:
            # dy/dx is y + 1 below 0 and 1 above it, both min(y, 0) + 1
            dg = np.minimum(data, 0.0)
            dg += 1.0
            dg *= g
            a._accumulate(dg, own=True)

    return _make(data, (a,), bwd)


def softmax_lastdim(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            a._accumulate((g - dot) * data)

    return _make(data, (a,), bwd)


# -- convolutions -----------------------------------------------------------

def _tap_bins(c: int, pad: int, stride: int, n_src: int, n_dst: int):
    """Tap c of a frequency kernel links source bin q to destination bin
    stride * q + c - pad. Returns the source slice and the strided
    destination slice of the pairs with both bins in range."""
    q0 = max(0, -((c - pad) // stride))
    q1 = min(n_src, (n_dst - 1 + pad - c) // stride + 1)
    if q1 <= q0:
        return slice(0, 0), slice(0, 0)
    u0 = stride * q0 + c - pad
    return slice(q0, q1), slice(u0, u0 + stride * (q1 - q0 - 1) + 1, stride)


def deconv_taps(y: np.ndarray, out: np.ndarray, stride_f: int) -> list:
    """The k_f strided adds of a frequency-transposed conv as (destination,
    source) view pairs: ``out`` is the (c_out, t, f_out) map and ``y`` the
    (c_out, k_f, t, f) product of the weight, seen as ``w.reshape(c_in,
    c_out * k_f).T``, with the input. Shared by the graph op and the
    streaming engine."""
    c_out, kf, t, f = y.shape
    pairs = []
    for c_ in range(kf):
        src, dst = _tap_bins(c_, (kf - 1) // 2, stride_f, f, out.shape[2])
        pairs.append((out[:, :, dst], y[:, c_, :, src]))
    return pairs


def conv2d_causal(x: Tensor, w: Tensor, b: Tensor, stride_f: int = 1) -> Tensor:
    """Causal-in-time 2-D convolution over (channel, time, frequency) maps.

    Time is padded with k_t - 1 zero frames on the past side only, so output
    frame t never sees input frames > t. Frequency is padded symmetrically
    by (k_f - 1) // 2.

    The input is copied once, unfolded along frequency: ``cols`` row (i, c)
    at frame tau' and output bin p holds input channel i at padded frame
    tau' and bin stride_f * p + c - pad_f. Time tap a of output frame tau is
    then frame tau + a of it, a contiguous window, so the forward and the
    weight gradient are one GEMM per time tap and need no further copy.
    """
    c_in, t, f = x.data.shape
    c_out, c_in_w, kt, kf = w.data.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv channel mismatch: input {c_in}, weight expects {c_in_w}")
    if b.data.shape != (c_out,):
        raise ShapeError("conv bias shape mismatch")
    pad_t = kt - 1
    pad_f = (kf - 1) // 2
    f_out = (f + 2 * pad_f - kf) // stride_f + 1
    if f_out < 1:
        raise ShapeError("frequency axis too small for this kernel")

    taps = [_tap_bins(c_, pad_f, stride_f, f_out, f) for c_ in range(kf)]
    cols = np.zeros((c_in, kf, t + pad_t, f_out))
    for c_, (out_bins, in_bins) in enumerate(taps):
        cols[:, c_, pad_t:, out_bins] = x.data[:, :, in_bins]
    cols = cols.reshape(c_in * kf, -1)
    n = t * f_out
    # (c_out, c_in, k_t, k_f) -> one (c_out, c_in * k_f) matrix per time tap
    w_taps = w.data.transpose(2, 0, 1, 3).reshape(kt, c_out, c_in * kf)

    def window(a_):
        return cols[:, a_ * f_out : a_ * f_out + n]

    out = w_taps[0] @ window(0)
    for a_ in range(1, kt):
        out += w_taps[a_] @ window(a_)
    out = out.reshape(c_out, t, f_out)
    out += b.data[:, None, None]

    def bwd(g):
        g2 = g.reshape(c_out, n)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=1))
        if w.requires_grad:
            dw = np.empty(w.data.shape)
            for a_ in range(kt):
                dw[:, :, a_, :] = (g2 @ window(a_).T).reshape(c_out, c_in, kf)
            w._accumulate(dw, own=True)
        if x.requires_grad:
            # input frame tau gets tap a of output frame tau + pad_t - a:
            # stack g shifted once per tap, then one GEMM gives every frame
            g_taps = np.empty((kt, c_out, t, f_out))
            g3 = g2.reshape(c_out, t, f_out)
            for a_ in range(kt):
                shift = min(t, pad_t - a_)
                g_taps[a_, :, : t - shift] = g3[:, shift:]
                g_taps[a_, :, t - shift :] = 0.0
            w_cat = w.data.transpose(1, 3, 2, 0).reshape(c_in * kf, kt * c_out)
            dcols = (w_cat @ g_taps.reshape(kt * c_out, n)).reshape(c_in, kf, t, f_out)
            dx = np.zeros_like(x.data)
            for c_, (out_bins, in_bins) in enumerate(taps):
                dx[:, :, in_bins] += dcols[:, c_, :, out_bins]
            x._accumulate(dx, own=True)

    return _make(out, (x, w, b), bwd)


def conv2d_transpose(
    x: Tensor, w: Tensor, b: Tensor, stride_f: int = 2, out_pad_f: int = 0
) -> Tensor:
    """Frequency-transposed convolution, kernel 1 x k_f (no temporal mixing).

    Output width is (f - 1) * stride_f - 2 + k_f + out_pad_f; the map is the
    adjoint of conv2d_causal with k_t = 1 and the same frequency geometry.
    The forward is one GEMM with the weight seen as a (c_out * k_f, c_in)
    matrix, a view, then k_f strided adds; the backward is one GEMM for each
    input gradient.
    """
    c_in, t, f = x.data.shape
    c_in_w, c_out, kt, kf = w.data.shape
    if kt != 1:
        raise ShapeError("transposed conv kernel must have k_t == 1")
    if c_in_w != c_in:
        raise ShapeError(f"transposed conv channel mismatch: {c_in} vs {c_in_w}")
    if out_pad_f not in (0, 1):
        raise ShapeError("out_pad_f must be 0 or 1")
    pad = (kf - 1) // 2
    f_out = (f - 1) * stride_f - 2 * pad + kf + out_pad_f

    # (c_in, c_out, 1, k_f) -> (c_in, c_out * k_f), rows of the product in
    # (channel, tap) order
    wmat = w.data.reshape(c_in, c_out * kf)
    x2 = x.data.reshape(c_in, t * f)
    out = np.empty((c_out, t, f_out))
    out[:] = b.data[:, None, None]
    for dst, src in deconv_taps((wmat.T @ x2).reshape(c_out, kf, t, f), out, stride_f):
        dst += src

    def bwd(g):
        if b.requires_grad:
            b._accumulate(g.sum(axis=(1, 2)))
        if not (x.requires_grad or w.requires_grad):
            return
        g_taps = np.zeros((c_out, kf, t, f))
        for g_dst, tap in deconv_taps(g_taps, g, stride_f):
            tap[...] = g_dst
        g_taps = g_taps.reshape(c_out * kf, t * f)
        if x.requires_grad:
            x._accumulate((wmat @ g_taps).reshape(c_in, t, f), own=True)
        if w.requires_grad:
            w._accumulate((x2 @ g_taps.T).reshape(w.data.shape), own=True)

    return _make(out, (x, w, b), bwd)


def max_pool_freq(x: Tensor, k: int) -> Tensor:
    """Non-overlapping max over frequency; remainder bins are dropped.

    Backward routes the gradient to the first maximal element of each window.
    """
    c, t, f = x.data.shape
    if f < k:
        raise ShapeError(f"cannot pool {f} bins with window {k}")
    f_out = f // k
    xr = x.data[:, :, : f_out * k].reshape(c, t, f_out, k)
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        if x.requires_grad:
            dxr = np.zeros((c, t, f_out, k))
            np.put_along_axis(dxr, idx[..., None], g[..., None], axis=-1)
            dx = np.zeros_like(x.data)
            dx[:, :, : f_out * k] = dxr.reshape(c, t, f_out * k)
            x._accumulate(dx)

    return _make(np.ascontiguousarray(out), (x,), bwd)


# -- batch norm --------------------------------------------------------------

class BnStats:
    """Mutable running statistics for one batch-norm layer (per channel)."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)
        self.initialized = False

    def copy(self):
        out = BnStats(len(self.mean))
        out.mean = self.mean.copy()
        out.var = self.var.copy()
        out.initialized = self.initialized
        return out


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running: BnStats | None,
               mode: str = "train") -> Tensor:
    """Per-channel normalization over the (time, frequency) axes.

    ``train`` normalizes with the current statistics and updates ``running``;
    ``infer`` uses the frozen running statistics only, so a frame's output
    never depends on other frames.
    """
    c, t, f = x.data.shape
    n = t * f
    if mode == "train":
        mu = x.data.mean(axis=(1, 2))
        var = x.data.var(axis=(1, 2))
        if running is not None:
            unbiased = var * n / max(n - 1, 1)
            running.mean = (1 - BN_MOMENTUM) * running.mean + BN_MOMENTUM * mu
            running.var = (1 - BN_MOMENTUM) * running.var + BN_MOMENTUM * unbiased
            running.initialized = True
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
    elif mode == "infer":
        if running is None or not running.initialized:
            raise ContractViolationError("inference batch-norm requires frozen statistics")
        mu = running.mean
        inv_std = 1.0 / np.sqrt(running.var + BN_EPS)
    else:
        raise ShapeError(f"unknown batch-norm mode: {mode}")

    scale = gamma.data * inv_std
    shift = beta.data - mu * scale
    out = x.data * scale[:, None, None]
    out += shift[:, None, None]

    def bwd(g):
        train_dx = x.requires_grad and mode == "train"
        if gamma.requires_grad or train_dx:
            xhat = x.data - mu[:, None, None]
            xhat *= inv_std[:, None, None]
            sum_gx = np.einsum("ctf,ctf->c", g, xhat)
        if beta.requires_grad or train_dx:
            sum_g = np.einsum("ctf->c", g)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if gamma.requires_grad:
            gamma._accumulate(sum_gx)
        if x.requires_grad:
            dx = g * scale[:, None, None]
            if train_dx:
                # dx = scale * (g - sum_g / n - xhat * sum_gx / n), per channel
                xhat *= (-scale * sum_gx / n)[:, None, None]
                xhat -= (scale * sum_g / n)[:, None, None]
                dx += xhat
            x._accumulate(dx, own=True)

    return _make(out, (x, gamma, beta), bwd)


# -- GRU ----------------------------------------------------------------------

def gru_step_np(wih, whh, b, x_t, h_prev):
    """One GRU step on plain arrays; shared by graph and streaming paths.

    Gate layout is [update z; reset r; candidate n] stacked along rows, with
    a single bias per gate and the reset gate applied to the recurrent
    candidate term before the bias.
    """
    h = h_prev.shape[0]
    a = wih @ x_t + b
    hw = whh @ h_prev
    with np.errstate(over="ignore"):
        z = 1.0 / (1.0 + np.exp(-(a[:h] + hw[:h])))
        r = 1.0 / (1.0 + np.exp(-(a[h : 2 * h] + hw[h : 2 * h])))
    nn = np.tanh(a[2 * h :] + r * hw[2 * h :])
    h_new = (1.0 - z) * nn + z * h_prev
    return h_new, z, r, nn, hw[2 * h :]


def gru_seq(x: Tensor, h0: Tensor, wih: Tensor, whh: Tensor, b: Tensor) -> Tensor:
    """Full-sequence GRU; chunked evaluation with carried state is bit-exact
    because each step runs the same per-step kernel."""
    t, n_in = x.data.shape
    h = h0.data.shape[0]
    if wih.data.shape != (3 * h, n_in) or whh.data.shape != (3 * h, h) or b.data.shape != (3 * h,):
        raise ShapeError("gru weight shapes do not match input/hidden sizes")

    hs = np.empty((t, h))
    zs, rs, nns, hwn = np.empty((t, h)), np.empty((t, h)), np.empty((t, h)), np.empty((t, h))
    hprev = np.empty((t, h))
    hc = h0.data
    for i in range(t):
        hprev[i] = hc
        hc, zs[i], rs[i], nns[i], hwn[i] = gru_step_np(wih.data, whh.data, b.data, x.data[i], hc)
        hs[i] = hc

    def bwd(g):
        dh = np.zeros(h)
        dpre_ih = np.empty((t, 3 * h))
        dpre_hh = np.empty((t, 3 * h))
        whh_T = whh.data.T
        for i in range(t - 1, -1, -1):
            dh_t = g[i] + dh
            z, r, nn, hp, hwn_i = zs[i], rs[i], nns[i], hprev[i], hwn[i]
            dz = dh_t * (hp - nn)
            dnn = dh_t * (1.0 - z)
            dh = dh_t * z
            dnn_pre = dnn * (1.0 - nn * nn)
            dr = dnn_pre * hwn_i
            dz_pre = dz * z * (1.0 - z)
            dr_pre = dr * r * (1.0 - r)
            dpre_ih[i, :h] = dz_pre
            dpre_ih[i, h : 2 * h] = dr_pre
            dpre_ih[i, 2 * h :] = dnn_pre
            dpre_hh[i, :h] = dz_pre
            dpre_hh[i, h : 2 * h] = dr_pre
            dpre_hh[i, 2 * h :] = dnn_pre * r
            dh += whh_T @ dpre_hh[i]
        if wih.requires_grad:
            wih._accumulate(dpre_ih.T @ x.data)
        if whh.requires_grad:
            whh._accumulate(dpre_hh.T @ hprev)
        if b.requires_grad:
            b._accumulate(dpre_ih.sum(axis=0))
        if x.requires_grad:
            x._accumulate(dpre_ih @ wih.data)
        if h0.requires_grad:
            h0._accumulate(dh)

    return _make(hs, (x, h0, wih, whh, b), bwd)


# -- alignment kernels --------------------------------------------------------
#
# Both kernels are products with the lower-triangular banded Toeplitz matrix
# T[t, s] = w[t - s] for 0 <= t - s < d_max. Time runs in blocks of
# ``block`` frames; block [t0, t0 + b) reads frames [t0 - d_max + 1, t0 + b),
# so each block is one product with the same (block, block + d_max - 1) band
# and nothing of size (t, t) is ever built.

def _delay_block(d_max: int, t: int) -> int:
    """Frames per block: d_max, so at most about half of a band's products
    are zeros, but at least 32, so a small d_max does not mean a product per
    frame, and no more than the clip."""
    return max(1, min(t, max(d_max, 32)))


def _delay_band(w: np.ndarray, block: int) -> np.ndarray:
    """band[i, j] = w[i + d_max - 1 - j]: the weight of frame t0 - d_max + 1 + j
    in output frame t0 + i."""
    d_max = w.shape[0]
    band = np.zeros((block, block + d_max - 1))
    rs, cs = band.strides
    diag = np.lib.stride_tricks.as_strided(band, shape=(block, d_max), strides=(rs + cs, cs))
    diag[:] = w[::-1]
    return band


def _delay_apply(band: np.ndarray, x: np.ndarray, d_max: int) -> np.ndarray:
    """out[:, t] = sum_d w[d] * x[:, t - d] along axis 1, zero before frame 0."""
    t = x.shape[1]
    block = band.shape[0]
    out = np.empty_like(x)
    for t0 in range(0, t, block):
        b = min(block, t - t0)
        lo = max(0, t0 - d_max + 1)
        j0 = lo - (t0 - d_max + 1)
        np.matmul(band[:b, j0 : b + d_max - 1], x[:, lo : t0 + b], out=out[:, t0 : t0 + b])
    return out


def _delay_adjoint(band: np.ndarray, g: np.ndarray, d_max: int) -> np.ndarray:
    """dx[:, s] = sum_d w[d] * g[:, s + d] along axis 1, zero past the last
    frame: the product with the band's transpose."""
    t = g.shape[1]
    block = band.shape[0]
    flip = np.ascontiguousarray(band[::-1, ::-1])  # flip[i, j] = w[j - i]
    dx = np.empty_like(g)
    for s0 in range(0, t, block):
        b = min(block, t - s0)
        hi = min(t, s0 + b + d_max - 1)
        np.matmul(flip[:b, : hi - s0], g[:, s0:hi], out=dx[:, s0 : s0 + b])
    return dx


def _delay_corr(g: np.ndarray, x: np.ndarray, d_max: int, block: int) -> np.ndarray:
    """out[d] = sum_t <g[:, t], x[:, t - d]> for d < d_max, from per-block
    G . X^T products summed along their sub-diagonals."""
    t = g.shape[1]
    out = np.zeros(d_max)
    for t0 in range(0, t, block):
        b = min(block, t - t0)
        lo = max(0, t0 - d_max + 1)
        j0 = lo - (t0 - d_max + 1)
        prod = np.tensordot(g[:, t0 : t0 + b], x[:, lo : t0 + b], axes=([0, 2], [0, 2]))
        if j0:
            padded = np.zeros((b, b + d_max - 1))
            padded[:, j0:] = prod
            prod = padded
        # diags[k, i] = prod[i, i + k] holds lag d_max - 1 - k
        rs, cs = prod.strides
        diags = np.lib.stride_tricks.as_strided(prod, shape=(d_max, b), strides=(cs, rs + cs),
                                                writeable=False)
        out += diags.sum(axis=1)[::-1]
    return out


def delay_scores(q: Tensor, k: Tensor, d_max: int) -> Tensor:
    """scores[d] = sum_t q[t] . k[t - d]; out-of-range k contributes zero."""
    t = q.data.shape[0]
    if k.data.shape != q.data.shape:
        raise ShapeError("query/key shapes must match")
    block = _delay_block(d_max, t)
    scores = _delay_corr(q.data[None], k.data[None], d_max, block)

    def bwd(g):
        band = _delay_band(g, block)
        if q.requires_grad:
            q._accumulate(_delay_apply(band, k.data[None], d_max)[0], own=True)
        if k.requires_grad:
            k._accumulate(_delay_adjoint(band, q.data[None], d_max)[0], own=True)

    return _make(scores, (q, k), bwd)


def weighted_delay_sum(x: Tensor, dist: Tensor) -> Tensor:
    """out[:, t, :] = sum_d dist[d] * x[:, t - d, :], zero-padded at the start."""
    t = x.data.shape[1]
    d_max = dist.data.shape[0]
    block = _delay_block(d_max, t)
    band = _delay_band(dist.data, block)
    out = _delay_apply(band, x.data, d_max)

    def bwd(g):
        if dist.requires_grad:
            dist._accumulate(_delay_corr(g, x.data, d_max, block), own=True)
        if x.requires_grad:
            x._accumulate(_delay_adjoint(band, g, d_max), own=True)

    return _make(out, (x, dist), bwd)


# -- spectral ops for the loss -------------------------------------------------

def stft_graph(x: Tensor) -> Tensor:
    """Differentiable analysis transform; output is stacked (2, t, bins)
    with real parts in channel 0 and imaginary parts in channel 1."""
    if x.data.shape[0] < dsp.WIN:
        raise ShapeError("input shorter than one analysis window")
    spec = dsp.analyze(dsp.frame(x.data))
    out = np.stack([spec.real, spec.imag])

    def bwd(g):
        if not x.requires_grad:
            return
        G = g[0] + 1j * g[1]
        # adjoint of the one-sided unnormalized DFT: no hermitian doubling
        gseg = (np.fft.ifft(G, n=dsp.WIN, axis=1) * dsp.WIN).real * dsp.WINDOW
        olap = dsp.overlap_add(gseg)
        dx = np.zeros_like(x.data)
        dx[: olap.size] = olap
        x._accumulate(dx)

    return _make(out, (x,), bwd)


def istft_graph(spec: Tensor) -> Tensor:
    """Differentiable overlap-add synthesis from stacked (2, t, bins)."""
    bins = spec.data.shape[2]
    if bins != dsp.N_BINS:
        raise ShapeError(f"expected {dsp.N_BINS} bins, got {bins}")
    out = dsp.overlap_add(dsp.synthesize(spec.data[0] + 1j * spec.data[1]))

    delta = np.full(bins, 2.0)
    delta[0] = 1.0
    delta[-1] = 1.0

    def bwd(g):
        if not spec.requires_grad:
            return
        R = dsp.analyze(dsp.frame(g))
        dspec = np.stack([R.real, R.imag]) * (delta / dsp.WIN)
        spec._accumulate(dspec)

    return _make(out, (spec,), bwd)


def ccmse_loss(spec_hat: Tensor, spec_ref: np.ndarray, c: float, beta: float,
               eps: float = 1e-12) -> Tensor:
    """Compressed complex + magnitude MSE between stacked (2, t, f) spectra.

    Forward powers are exact (0**c == 0, 1**c == 1). In the derivative,
    ``eps`` stands in for |x|**2 only where it is exactly 0, as the forward's
    ``np.where`` does, so the gradient of |x|**c stays finite at x = 0 and is
    exact everywhere else.
    """
    if spec_hat.data.shape != spec_ref.shape:
        raise ShapeError("spectra shape mismatch in loss")
    hre, him = spec_hat.data[0], spec_hat.data[1]
    rre, rim = spec_ref[0], spec_ref[1]
    n_cells = hre.size

    m2h = hre * hre + him * him
    m2r = rre * rre + rim * rim
    ah = m2h ** (c / 2.0)
    ar = m2r ** (c / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        uh = np.where(m2h > 0, m2h ** ((c - 1.0) / 2.0), 0.0)
        ur = np.where(m2r > 0, m2r ** ((c - 1.0) / 2.0), 0.0)
    crh, cih = uh * hre, uh * him
    crr, cir = ur * rre, ur * rim

    complex_term = ((crr - crh) ** 2 + (cir - cih) ** 2).sum() / n_cells
    mag_term = ((ar - ah) ** 2).sum() / n_cells
    loss = np.asarray(beta * complex_term + (1.0 - beta) * mag_term)

    def bwd(g):
        if not spec_hat.requires_grad:
            return
        gs = float(g)
        m2g = np.where(m2h > 0, m2h, eps)
        ug = m2g ** ((c - 1.0) / 2.0)
        dah = gs * (1.0 - beta) * (-2.0) * (ar - ah) / n_cells
        dcrh = gs * beta * (-2.0) * (crr - crh) / n_cells
        dcih = gs * beta * (-2.0) * (cir - cih) / n_cells
        # d(ah)/dre = c * m2^(c/2-1) * re, guarded
        da_dre = c * m2g ** (c / 2.0 - 1.0) * hre
        da_dim = c * m2g ** (c / 2.0 - 1.0) * him
        # d(crh)/dre = u * (1 + (c-1) re^2 / m2) etc., guarded
        k1 = ug * (c - 1.0) / m2g
        dre = dah * da_dre + dcrh * (ug + k1 * hre * hre) + dcih * (k1 * hre * him)
        dim = dah * da_dim + dcih * (ug + k1 * him * him) + dcrh * (k1 * hre * him)
        spec_hat._accumulate(np.stack([dre, dim]))

    return _make(loss, (spec_hat,), bwd)


# -- finite-difference harness -------------------------------------------------

def grad_check(fn, inputs, eps: float = 1e-5, rng=None, max_coords: int | None = None):
    """Compare analytic gradients of ``fn(*tensors)`` with central differences.

    ``fn`` maps Tensors to one output Tensor; the output is contracted to a
    scalar with a fixed random projection. Returns the worst relative error,
    normalized by the largest gradient magnitude (floored at 1).
    """
    rng = rng or np.random.default_rng(0)
    tensors = [Tensor(np.asarray(a, dtype=np.float64).copy(), requires_grad=True) for a in inputs]
    out = fn(*tensors)
    proj = rng.standard_normal(out.data.shape)

    def scalar_of(arrs):
        with no_grad():
            ts = [Tensor(a) for a in arrs]
            return float(np.sum(fn(*ts).data * proj))

    loss = sum_all(mul(out, Tensor(proj)))
    backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    base = [t.data.copy() for t in tensors]
    for i, a in enumerate(base):
        flat = a.reshape(-1)
        n = flat.size
        coords = range(n)
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        num = np.zeros(n)
        picked = list(coords)
        for j in picked:
            orig = flat[j]
            flat[j] = orig + eps
            fp = scalar_of(base)
            flat[j] = orig - eps
            fm = scalar_of(base)
            flat[j] = orig
            num[j] = (fp - fm) / (2 * eps)
        ana = analytic[i].reshape(-1)
        scale = max(1.0, np.max(np.abs(ana[picked])), np.max(np.abs(num[picked])))
        err = np.max(np.abs(ana[picked] - num[picked])) / scale
        worst = max(worst, err)
    return worst
