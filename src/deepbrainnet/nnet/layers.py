"""Network layers with explicit forward and backward passes.

Tensors are plain numpy arrays in NCHW order, in the weights' dtype: every
layer with weights casts its input to them, and the rest keep theirs.
Convolutions are cross-correlations with zero padding; output spatial size
is floor((H + 2p - K) / s) + 1. They loop over the K x K kernel taps on flat
phase planes of the padded input, a tap being one BLAS GEMM per image (see
`_Conv`); what they return are NCHW views of those flat arrays, and every
layer accepts any memory layout. Each layer caches what its backward pass
needs, accumulates parameter gradients into its own buffers, and returns the
gradient with respect to its input; a convolution that reads the network
input (`input_grad = False`) returns None instead.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..rng import Prng


def as_tensor4(x, dtype=None) -> np.ndarray:
    """x as a 4-D array of `dtype`; None keeps x's own."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-D (batch, channels, height, width) tensor, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LayerSpec:
    """Shape description used for parameter accounting."""

    kind: str
    kernel: int = 1
    c_in: int = 1
    c_out: int = 1
    features_in: int = 1
    features_out: int = 1
    bias: bool = True


def param_count(spec: LayerSpec) -> int:
    """Trainable parameter count for a layer shape.

    A standard convolution costs K*K*C_in*C_out (+C_out bias); the
    depthwise-separable pair costs K*K*C_in for the spatial stage plus
    C_in*C_out for the channel-mixing stage (+C_in+C_out per-stage biases),
    which shrinks toward 1/C_out + 1/K^2 of the standard count.
    """
    k, ci, co = spec.kernel, spec.c_in, spec.c_out
    b = spec.bias
    if spec.kind == "conv2d":
        return k * k * ci * co + (co if b else 0)
    if spec.kind == "depthwise_conv2d":
        return k * k * ci + (ci if b else 0)
    if spec.kind == "pointwise_conv2d":
        return ci * co + (co if b else 0)
    if spec.kind == "ds_block":
        return k * k * ci + ci * co + ((ci + co) if b else 0)
    if spec.kind == "residual_block":
        # two same-channel convolutions
        return 2 * (k * k * ci * ci + (ci if b else 0))
    if spec.kind == "dense":
        return spec.features_in * spec.features_out + (spec.features_out if b else 0)
    if spec.kind in ("relu", "global_avg_pool", "dropout"):
        return 0
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"spatial size {size} too small for kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out


class Layer:
    """Base layer: one parameter registry and one walk over it.

    A layer with parameters calls `_register` once; composite layers hold
    their sub-layers as attributes, which `children()` finds in assignment
    order. Every accessor below walks `named_parameters()`, so parameter
    order is declaration order, descending into children.
    """

    kind = "layer"
    params: Mapping[str, np.ndarray] = MappingProxyType({})
    grads: Mapping[str, np.ndarray] = MappingProxyType({})

    def forward(self, x, training: bool = False, rng: Prng | None = None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def _register(self, weight: np.ndarray, bias: np.ndarray) -> None:
        """Own a weight and a bias; `w`, `b`, `dw`, `db` alias the registered arrays."""
        self.params = {"weight": weight, "bias": bias}
        self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        self.w, self.b = weight, bias
        self.dw, self.db = self.grads["weight"], self.grads["bias"]

    def children(self) -> dict[str, "Layer"]:
        return {name: v for name, v in vars(self).items() if isinstance(v, Layer)}

    def named_parameters(self, prefix: str = ""):
        """Yield (dotted name, parameter, gradient), then recurse into children."""
        for name, param in self.params.items():
            yield prefix + name, param, self.grads[name]
        for name, child in self.children().items():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self) -> list[np.ndarray]:
        return [p for _, p, _ in self.named_parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for _, _, g in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grads(self) -> None:
        for g in self.gradients():
            g[...] = 0.0


def _kaiming(rng: Prng, shape, fan_in: int) -> np.ndarray:
    return rng.normals(shape, sigma=np.sqrt(2.0 / fan_in))


def _span(top: int, step: int, stride: int, phase: int, size: int, extent: int):
    """Slices of one axis: the indices y < size whose frame position top + step * y
    is `phase` mod stride, and the plane rows (< extent) they land on; step or stride is 1."""
    lo = max(0, -(top // step))  # the first y at a frame position >= 0
    y0 = lo + (phase - top - step * lo) % stride
    r0 = (top + step * y0) // stride
    count = min(len(range(y0, size, stride)), len(range(r0, extent, step)))
    return slice(y0, y0 + count * stride, stride), slice(r0, r0 + count * step, step)


def _planes(a: np.ndarray, top: int, step: int, stride: int, rows: int, cols: int) -> np.ndarray:
    """NCHW `a` placed `step` apart from (top, top) in a zeroed frame, as (stride, stride,
    N, C, rows, cols) phase planes: frame position (u, v) is (u // stride, v // stride)
    of plane (u % stride, v % stride). Values that fall outside the planes are dropped."""
    planes = np.zeros((stride, stride, *a.shape[:2], rows, cols), dtype=a.dtype)
    for pi, pj in np.ndindex(stride, stride):
        ys, rs = _span(top, step, stride, pi, a.shape[2], rows)
        xs, qs = _span(top, step, stride, pj, a.shape[3], cols)
        planes[pi, pj, :, :, rs, qs] = a[:, :, ys, xs]
    return planes


def _tap(planes: np.ndarray, i: int, j: int, rows: int) -> np.ndarray:
    """Tap (i, j)'s (N, C, rows * cols) slice: plane (i % s, j % s) from (i // s) * cols + j // s."""
    s, _, n, c, extent, cols = planes.shape
    start = i // s * cols + j // s
    return planes[i % s, j % s].reshape(n, c, extent * cols)[:, :, start : start + rows * cols]


def _tap_sum(product, weight: np.ndarray, tap) -> np.ndarray:
    """Sum over the taps (i, j), in row-major order, of product(weight[i, j], tap(i, j))."""
    out, part = product(weight[0, 0], tap(0, 0)), None
    for i, j in list(np.ndindex(weight.shape[:2]))[1:]:
        part = product(weight[i, j], tap(i, j), out=part)
        out += part
    return out


class _Conv(Layer):
    """Zero-padded strided cross-correlation as one loop over the K x K taps.

    `_planes` cuts the padded input into s x s phase planes (one at stride 1)
    of width cols = OW + (K - 1) // s, flattened per image. Tap (i, j) reads
    plane (i % s, j % s) from offset (i // s) * cols + j // s as one
    contiguous (C, OH * cols) slice, so a dense tap is one GEMM per image with
    no im2col buffer (the accumulating kn2row form, Anderson et al.,
    arXiv:1709.03395). The cols - OW columns at the end of each output row
    wrap into the next row, and the returned view drops them. Backward copies
    the output gradient into the same flat shape with those columns zeroed:
    dW_ij is one GEMM per image over tap (i, j)'s slice, and the bias gradient
    sums that buffer, whatever the incoming layout. The input gradient of
    every stride is the same tap loop over the output gradient spread s apart
    in a zeroed frame at K - 1 - p, with the kernel flipped (Dumoulin &
    Visin, arXiv:1603.07285): tap (i, j) multiplies `W_ij^T` into the slice
    of tap (K-1-i, K-1-j), so each input position adds its products in a
    scatter's order. `input_grad = False` skips it. Subclasses fix the stored
    weight shape, which `_taps` views tap-first; `DepthwiseConv2d` replaces
    the two per-tap products with broadcast multiplies.
    """

    input_grad = True

    def __init__(self, c_in, c_out, weight_shape, kernel, stride, padding, rng):
        if kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        if stride < 1 or padding < 0:
            raise ValueError(f"need stride >= 1 and padding >= 0, got stride {stride}, padding {padding}")
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = int(np.prod(weight_shape[1:]))
        self._register(_kaiming(rng or Prng(0), weight_shape, fan_in), np.zeros(c_out))
        self._cache = None

    def _taps(self, a: np.ndarray) -> np.ndarray:
        """The weight (or its gradient) viewed as (K, K, channel axes...)."""
        return np.moveaxis(a, (-2, -1), (0, 1))

    # the two per-tap products; x_flat is a tap's (N, C, L) slice, g_flat (N, O, L)

    def _tap_output(self, w_ij, x_flat, out=None):
        return np.matmul(w_ij, x_flat, out=out)

    def _tap_weight_grad(self, g_flat, x_flat):
        return (g_flat @ x_flat.swapaxes(-1, -2)).sum(axis=0)

    def forward(self, x, training=False, rng=None):
        x = as_tensor4(x, self.w.dtype)
        n, c, h, w = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c}")
        k, s, p = self.kernel, self.stride, self.padding
        oh, ow = _conv_out_size(h, k, s, p), _conv_out_size(w, k, s, p)
        self._cache = None  # the last call's planes go before this call's are built
        # one spare row: the last taps' slices run (K - 1) // s past the last output row
        reach = (k - 1) // s
        planes = _planes(x, p, 1, s, oh + reach + 1, ow + reach)
        weight = np.ascontiguousarray(self._taps(self.w))
        out = _tap_sum(self._tap_output, weight, lambda i, j: _tap(planes, i, j, oh))
        out += self.b[:, None]
        self._cache = (planes, h, w)
        return out.reshape(n, self.c_out, oh, ow + reach)[..., :ow]

    def backward(self, grad):
        planes, h, w = self._cache
        k, s, p = self.kernel, self.stride, self.padding
        oh = grad.shape[2]
        g_flat = _tap(_planes(grad, 0, 1, 1, oh, planes.shape[-1]), 0, 0, oh)
        dweight = self._taps(self.dw)
        for i, j in np.ndindex(k, k):
            dweight[i, j] += self._tap_weight_grad(g_flat, _tap(planes, i, j, oh))
        self.db += g_flat.sum(axis=(0, 2))
        del g_flat  # so that it and the input-gradient frame are never held together
        if not self.input_grad:
            return None
        frame = _planes(grad, k - 1 - p, s, 1, h + k, w + k - 1)
        weight = np.ascontiguousarray(self._taps(self.w))
        dx = _tap_sum(lambda w_ij, g_flat, out=None: self._tap_output(w_ij.T, g_flat, out=out), weight,
                      lambda i, j: _tap(frame, k - 1 - i, k - 1 - j, h))
        return dx.reshape(grad.shape[0], self.c_in, h, w + k - 1)[..., :w]


class Conv2d(_Conv):
    kind = "conv2d"

    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, rng: Prng | None = None):
        super().__init__(c_in, c_out, (c_out, c_in, kernel, kernel), kernel, stride, padding, rng)


class DepthwiseConv2d(_Conv):
    """K x K convolution applied per channel; mixes no channels."""

    kind = "depthwise_conv2d"

    def __init__(self, channels, kernel, stride=1, padding=0, rng: Prng | None = None):
        super().__init__(channels, channels, (channels, kernel, kernel), kernel, stride, padding, rng)

    def _tap_output(self, w_ij, x_flat, out=None):
        return np.multiply(w_ij[:, None], x_flat, out=out)

    def _tap_weight_grad(self, g_flat, x_flat):
        return np.einsum("ncl,ncl->c", g_flat, x_flat)



class PointwiseConv2d(_Conv):
    """1 x 1 convolution; mixes only channels. Stores its weight as (c_out, c_in)."""

    kind = "pointwise_conv2d"

    def __init__(self, c_in, c_out, rng: Prng | None = None):
        super().__init__(c_in, c_out, (c_out, c_in), 1, 1, 0, rng)

    def _taps(self, a):
        return a[None, None]


class ReLU(Layer):
    kind = "relu"
    _margins = None  # a list while Network.relu_kink_margin records |input| minima

    def forward(self, x, training=False, rng=None):
        if self._margins is not None and x.size:
            self._margins.append(float(np.abs(x).min()))
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self._mask


class GlobalAvgPool(Layer):
    kind = "global_avg_pool"

    def forward(self, x, training=False, rng=None):
        # contiguous first: numpy's pairwise sum adds in memory order, so the
        # pooled features would otherwise round by the input's layout
        x = np.ascontiguousarray(as_tensor4(x))
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad):
        n, c, h, w = self._shape
        return np.broadcast_to(grad[:, :, None, None], self._shape) / (h * w)


class Dense(Layer):
    kind = "dense"

    def __init__(self, features_in, features_out, rng: Prng | None = None):
        self.features_in, self.features_out = features_in, features_out
        rng = rng or Prng(0)
        self._register(_kaiming(rng, (features_out, features_in), features_in), np.zeros(features_out))
        self._cache = None

    def forward(self, x, training=False, rng=None):
        x = np.asarray(x, dtype=self.w.dtype)
        if x.shape[1] != self.features_in:
            raise ValueError(f"expected {self.features_in} features, got {x.shape[1]}")
        self._cache = x
        return x @ self.w.T + self.b

    def backward(self, grad):
        self.dw += grad.T @ self._cache
        self.db += grad.sum(axis=0)
        return grad @ self.w


class Dropout(Layer):
    """Inverted dropout; identity when not training or when rate is 0."""

    kind = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return np.asarray(x)
        if rng is None:
            raise ValueError("training-mode dropout needs a Prng")
        keep = rng.uniforms(x.shape) >= self.rate
        self._mask = (keep / (1.0 - self.rate)).astype(x.dtype)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class DsBlock(Layer):
    """Depthwise-separable block: per-channel K x K conv, 1 x 1 channel mix, ReLU.

    Without the trailing activation the two stages compose into one dense
    convolution whose kernel is w_point[o, c] * w_depth[c, i, j].
    """

    kind = "ds_block"

    def __init__(self, c_in, c_out, kernel=3, stride=1, padding=1, rng: Prng | None = None):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.depthwise = DepthwiseConv2d(c_in, kernel, stride, padding, rng=rng)
        self.pointwise = PointwiseConv2d(c_in, c_out, rng=rng)
        self.relu = ReLU()

    def forward(self, x, training=False, rng=None):
        return self.relu.forward(self.pointwise.forward(self.depthwise.forward(x)))

    def backward(self, grad):
        return self.depthwise.backward(self.pointwise.backward(self.relu.backward(grad)))


class ResidualBlock(Layer):
    """conv -> relu -> conv plus identity skip, then relu: out = relu(F(x) + x)."""

    kind = "residual_block"

    def __init__(self, channels, kernel=3, rng: Prng | None = None):
        self.channels = channels
        self.kernel = kernel
        padding = kernel // 2
        self.conv1 = Conv2d(channels, channels, kernel, 1, padding, rng=rng)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(channels, channels, kernel, 1, padding, rng=rng)
        self.relu2 = ReLU()

    def forward(self, x, training=False, rng=None):
        x = as_tensor4(x, self.conv1.w.dtype)
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        residual = self.conv2.forward(self.relu1.forward(self.conv1.forward(x)))
        return self.relu2.forward(residual + x)

    def backward(self, grad):
        grad_sum = self.relu2.backward(grad)
        grad_sum += self.conv1.backward(self.relu1.backward(self.conv2.backward(grad_sum)))
        return grad_sum
