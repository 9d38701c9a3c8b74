"""Network layers with explicit forward and backward passes.

Tensors are plain numpy float64 arrays in NCHW order. Convolutions are
cross-correlations with zero padding; output spatial size is
floor((H + 2p - K) / s) + 1. They loop over the K x K kernel taps, and a
tap is one small BLAS GEMM per image row of the row-stacked (N, H, C, W)
view of the input (see `_Conv`); what they return are NCHW views of
row-stacked arrays, and every layer accepts any memory layout. Each layer
caches what its backward pass needs, accumulates parameter gradients into its
own buffers, and returns the gradient with respect to its input; a
convolution that reads the network input (`input_grad = False`) returns
None instead. A stride-1 convolution computes that gradient as a forward
correlation of the padded output gradient with the flipped kernel.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..rng import Prng


def as_tensor4(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
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


def _window(i: int, j: int, stride: int, oh: int, ow: int):
    """Index of the padded row-stacked positions that tap (i, j) reads."""
    return np.s_[:, i : i + stride * oh : stride, :, j : j + stride * ow : stride]


def _rows(a: np.ndarray) -> np.ndarray:
    """Swap the channel and row axes: NCHW <-> row-stacked (N, H, C, W), as a view."""
    return a.transpose(0, 2, 1, 3)


def _padded_rows(a: np.ndarray, p: int) -> np.ndarray:
    """Row-stacked NCHW `a`, zero-padded by p on each spatial side (cropped by -p if p < 0)."""
    rows = _rows(a)
    if p <= 0:
        return rows[:, -p : rows.shape[1] + p, :, -p : rows.shape[3] + p]
    n, h, c, w = rows.shape
    padded = np.zeros((n, h + 2 * p, c, w + 2 * p))
    padded[:, p : p + h, :, p : p + w] = rows
    return padded


def _tap_sum(product, weight: np.ndarray, padded: np.ndarray, window) -> np.ndarray:
    """Sum over the taps (i, j), in row-major order, of product(weight[i, j], padded[window(i, j)])."""
    out = part = None
    for i, j in np.ndindex(weight.shape[:2]):
        part = product(weight[i, j], padded[window(i, j)], out=part)
        if out is None:
            out, part = part, None
        else:
            out += part
    return out


class _Conv(Layer):
    """Zero-padded strided cross-correlation as one loop over the K x K taps.

    The taps work on the row-stacked view (N, H, C, W) of the padded input,
    in which every image row is a (C, W) matrix. A dense tap's output rows are
    then `W_ij @ window`: one (O x C)(C x OW) BLAS GEMM per output row, reading
    the strided window in place, with no im2col buffer. Backward follows the
    same pattern: dW_ij sums `g_rows @ window^T` over the rows. At stride 1 the
    input gradient is the forward tap loop run on the output gradient,
    zero-padded by K - 1 - p, with the kernel flipped: tap (i, j) multiplies
    `W_ij^T` into the window of tap (K-1-i, K-1-j) (the transposed-convolution
    identity of Dumoulin & Visin, arXiv:1603.07285). The taps run in the
    order a scatter would add them, so every input position sums the same
    products in the same order as the scatter. At larger strides the windows
    of a zeroed padded buffer gain `W_ij^T @ g_rows` tap by tap. A layer whose
    `input_grad` is False, such as a network's first convolution, skips the
    input gradient and returns None. Outputs and input gradients are NCHW
    views of row-stacked arrays, so a chain of convolutions never copies to
    change layout. Subclasses fix the stored weight shape, which `_taps` views
    tap-first; `DepthwiseConv2d` replaces the three per-tap products with
    broadcast multiplies.
    """

    input_grad = True

    def __init__(self, c_in, c_out, weight_shape, kernel, stride, padding, rng):
        if kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = int(np.prod(weight_shape[1:]))
        self._register(_kaiming(rng or Prng(0), weight_shape, fan_in), np.zeros(c_out))
        self._cache = None

    def _taps(self, a: np.ndarray) -> np.ndarray:
        """The weight (or its gradient) viewed as (K, K, channel axes...)."""
        return np.moveaxis(a, (-2, -1), (0, 1))

    # the three per-tap products; rows are (N, OH, C, OW), g_rows (N, OH, O, OW)

    def _tap_output(self, w_ij, rows, out=None):
        return np.matmul(w_ij, rows, out=out)

    def _tap_weight_grad(self, g_rows, rows):
        return (g_rows @ rows.swapaxes(-1, -2)).sum(axis=(0, 1))

    def _tap_input_grad(self, w_ij, g_rows, out=None):
        return np.matmul(w_ij.T, g_rows, out=out)

    def forward(self, x, training=False, rng=None):
        x = as_tensor4(x)
        n, c, h, w = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c}")
        k, s, p = self.kernel, self.stride, self.padding
        oh, ow = _conv_out_size(h, k, s, p), _conv_out_size(w, k, s, p)
        xr = _padded_rows(x, p)
        weight = np.ascontiguousarray(self._taps(self.w))
        out = _tap_sum(self._tap_output, weight, xr, lambda i, j: _window(i, j, s, oh, ow))
        out += self.b[:, None]
        self._cache = (xr, h, w, oh, ow)
        return _rows(out)

    def backward(self, grad):
        xr, h, w, oh, ow = self._cache
        k, s, p = self.kernel, self.stride, self.padding
        g_rows = _rows(grad)
        dweight = self._taps(self.dw)
        for i, j in np.ndindex(k, k):
            dweight[i, j] += self._tap_weight_grad(g_rows, xr[_window(i, j, s, oh, ow)])
        self.db += grad.sum(axis=(0, 2, 3))
        if not self.input_grad:
            return None
        weight = np.ascontiguousarray(self._taps(self.w))
        if s == 1:
            # correlate the output gradient, padded by K - 1 - p, with the flipped kernel
            dx = _tap_sum(self._tap_input_grad, weight, _padded_rows(grad, k - 1 - p),
                          lambda i, j: _window(k - 1 - i, k - 1 - j, 1, h, w))
            return _rows(dx)
        dxr = np.zeros_like(xr)
        part = None
        for i, j in np.ndindex(k, k):
            part = self._tap_input_grad(weight[i, j], g_rows, out=part)
            dxr[_window(i, j, s, oh, ow)] += part
        return _rows(dxr[:, p : p + h, :, p : p + w])


class Conv2d(_Conv):
    kind = "conv2d"

    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, rng: Prng | None = None):
        super().__init__(c_in, c_out, (c_out, c_in, kernel, kernel), kernel, stride, padding, rng)


class DepthwiseConv2d(_Conv):
    """K x K convolution applied per channel; mixes no channels."""

    kind = "depthwise_conv2d"

    def __init__(self, channels, kernel, stride=1, padding=0, rng: Prng | None = None):
        super().__init__(channels, channels, (channels, kernel, kernel), kernel, stride, padding, rng)

    def _tap_output(self, w_ij, rows, out=None):
        return np.multiply(w_ij[:, None], rows, out=out)

    def _tap_weight_grad(self, g_rows, rows):
        return np.einsum("nhcw,nhcw->c", g_rows, rows)

    def _tap_input_grad(self, w_ij, g_rows, out=None):
        return np.multiply(w_ij[:, None], g_rows, out=out)


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
        x = as_tensor4(x)
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
        x = np.asarray(x, dtype=np.float64)
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
            return np.asarray(x, dtype=np.float64)
        if rng is None:
            raise ValueError("training-mode dropout needs a Prng")
        keep = rng.uniforms(x.shape) >= self.rate
        self._mask = keep / (1.0 - self.rate)
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
        x = as_tensor4(x)
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        residual = self.conv2.forward(self.relu1.forward(self.conv1.forward(x)))
        return self.relu2.forward(residual + x)

    def backward(self, grad):
        grad_sum = self.relu2.backward(grad)
        grad_branch = self.conv1.backward(self.relu1.backward(self.conv2.backward(grad_sum)))
        # into the fresh skip gradient, not into conv1's row-stacked one: the bias sums
        # upstream add in memory order, so the returned array's layout fixes their rounding
        grad_sum += grad_branch
        return grad_sum
