import numpy as np
import pytest

from deepbrainnet.nnet import (
    Conv2d,
    Dense,
    DepthwiseConv2d,
    Dropout,
    DsBlock,
    GlobalAvgPool,
    LayerSpec,
    PointwiseConv2d,
    ReLU,
    ResidualBlock,
    param_count,
    softmax,
)
from deepbrainnet.rng import Prng


def finite_diff_param_check(layer, x, epsilon=1e-5, loss_weight_seed=0):
    """Central differences on every parameter against the analytic gradients.

    Loss is a fixed random weighting of the outputs so all gradients flow.
    Returns the worst |numeric - analytic| / max(|numeric| + |analytic|, 1e-5).
    """
    rng = Prng(loss_weight_seed)
    out = layer.forward(x)
    weights = rng.normals(out.shape)

    def loss():
        return float((layer.forward(x) * weights).sum())

    layer.zero_grads()
    layer.forward(x)
    layer.backward(weights)
    worst = 0.0
    for param, grad in zip(layer.parameters(), layer.gradients()):
        flat, gflat = param.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = loss()
            flat[i] = orig - epsilon
            minus = loss()
            flat[i] = orig
            numeric = (plus - minus) / (2 * epsilon)
            worst = max(worst, abs(numeric - gflat[i]) / max(abs(numeric) + abs(gflat[i]), 1e-5))
    return worst


def finite_diff_input_check(layer, x, epsilon=1e-5, loss_weight_seed=1):
    rng = Prng(loss_weight_seed)
    out = layer.forward(x)
    weights = rng.normals(out.shape)
    layer.zero_grads()
    layer.forward(x)
    analytic = layer.backward(weights)
    worst = 0.0
    flat = x.reshape(-1)
    aflat = analytic.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        plus = float((layer.forward(x) * weights).sum())
        flat[i] = orig - epsilon
        minus = float((layer.forward(x) * weights).sum())
        flat[i] = orig
        numeric = (plus - minus) / (2 * epsilon)
        worst = max(worst, abs(numeric - aflat[i]) / max(abs(numeric) + abs(aflat[i]), 1e-5))
    return worst


def tensor(rng, *shape, lo=-1.0, hi=1.0):
    return np.array([rng.uniform_in(lo, hi) for _ in range(int(np.prod(shape)))]).reshape(shape)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv_1x1_identity_kernel():
    conv = Conv2d(2, 2, kernel=1, rng=Prng(1))
    conv.w[...] = np.eye(2).reshape(2, 2, 1, 1)
    conv.b[...] = 0.0
    x = tensor(Prng(2), 1, 2, 4, 4)
    assert np.allclose(conv.forward(x), x)


def test_conv_all_ones_sums_window():
    conv = Conv2d(1, 1, kernel=3, rng=Prng(1))
    conv.w[...] = 1.0
    conv.b[...] = 0.0
    x = np.ones((1, 1, 3, 3))
    out = conv.forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == pytest.approx(9.0)


def test_conv_output_dims_formula():
    conv = Conv2d(3, 5, kernel=3, stride=2, padding=1, rng=Prng(3))
    out = conv.forward(tensor(Prng(4), 2, 3, 9, 11))
    assert out.shape == (2, 5, (9 + 2 - 3) // 2 + 1, (11 + 2 - 3) // 2 + 1)


def test_conv_rejects_channel_mismatch():
    conv = Conv2d(3, 4, kernel=3, rng=Prng(5))
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 2, 5, 5)))


def test_conv_rejects_even_kernel():
    with pytest.raises(ValueError):
        Conv2d(1, 1, kernel=2)


@pytest.mark.parametrize("make", [
    lambda: Conv2d(1, 1, kernel=3, stride=0),
    lambda: Conv2d(1, 1, kernel=3, padding=-1),
    lambda: DepthwiseConv2d(2, kernel=3, stride=-1),
    lambda: DepthwiseConv2d(2, kernel=3, padding=-2),
], ids=["conv-stride-0", "conv-padding--1", "depthwise-stride--1", "depthwise-padding--2"])
def test_conv_rejects_stride_below_1_and_negative_padding(make):
    with pytest.raises(ValueError, match="stride >= 1 and padding >= 0"):
        make()


@pytest.mark.parametrize("shape,stride,padding", [
    ((2, 2, 5, 5), 1, 1),
    ((1, 3, 6, 6), 2, 1),
    ((2, 1, 7, 5), 1, 0),
])
def test_conv_gradients_match_finite_differences(shape, stride, padding):
    rng = Prng(shape[2] * 10 + stride)
    conv = Conv2d(shape[1], 3, kernel=3, stride=stride, padding=padding, rng=rng)
    x = tensor(rng, *shape)
    assert finite_diff_param_check(conv, x) < 1e-4
    assert finite_diff_input_check(conv, x) < 1e-4


@pytest.mark.parametrize("shape,kernel,padding", [
    ((2, 2, 6, 7), 5, 2),
    ((1, 3, 5, 5), 3, 3),  # padding past K - 1: the output gradient is cropped, not padded
])
def test_wide_stride_1_conv_input_gradient_matches_finite_differences(shape, kernel, padding):
    rng = Prng(shape[3] * 10 + kernel)
    conv = Conv2d(shape[1], 3, kernel=kernel, padding=padding, rng=rng)
    x = tensor(rng, *shape)
    assert finite_diff_input_check(conv, x) < 1e-4


def scatter_input_grad(layer, x, grad):
    """Input gradient as a scatter: each tap's W_ij^T @ grad, computed per output
    row, is added into the tap's strided window of a zeroed padded buffer, one
    tap after another in row-major order."""
    n, c, h, w = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = grad.shape[2:]
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for i, j in np.ndindex(k, k):
        if isinstance(layer, DepthwiseConv2d):
            part = layer.w[:, i, j][:, None, None] * grad
        else:
            w_ij = np.ascontiguousarray(layer.w[:, :, i, j])
            part = np.matmul(w_ij.T, grad.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += part
    return dxp[:, :, p : p + h, p : p + w]


def assert_input_gradient_equals_the_scatter(kind, shape, kernel, stride, padding):
    rng = Prng(sum(shape) + kernel)
    c = shape[1]
    if kind == "conv2d":
        layer = Conv2d(c, 8 if c == 8 else 5, kernel=kernel, stride=stride, padding=padding, rng=rng)
    else:
        layer = DepthwiseConv2d(c, kernel=kernel, stride=stride, padding=padding, rng=rng)
    x = rng.normals(shape)
    out = layer.forward(x)
    grad = rng.normals(out.shape)
    assert np.array_equal(layer.backward(grad), scatter_input_grad(layer, x, grad))


@pytest.mark.parametrize("kind,shape,kernel,padding", [
    ("conv2d", (6, 8, 112, 112), 3, 1),
    ("conv2d", (1, 3, 9, 13), 5, 2),
    ("conv2d", (2, 4, 7, 10), 3, 0),
    ("conv2d", (2, 4, 8, 11), 5, 1),
    ("depthwise", (2, 5, 9, 12), 3, 1),
    ("depthwise", (2, 5, 9, 12), 5, 2),
])
def test_stride_1_input_gradient_equals_the_scatter_bit_for_bit(kind, shape, kernel, padding):
    """The flipped-kernel tap loop adds each input position's products in the scatter's order.

    8 -> 8 at 112 px is a residual block's conv at 224 px input; the other convs change width.
    """
    assert_input_gradient_equals_the_scatter(kind, shape, kernel, 1, padding)


@pytest.mark.parametrize("kind,shape,kernel,padding", [
    ("conv2d", (2, 3, 32, 32), 3, 1),
    ("conv2d", (2, 4, 9, 12), 5, 1),
    ("depthwise", (6, 8, 112, 112), 3, 1),
    ("depthwise", (2, 5, 10, 9), 3, 0),
])
def test_stride_2_input_gradient_equals_the_scatter_bit_for_bit(kind, shape, kernel, padding):
    """As at stride 1, over the output gradient spread 2 apart; 8 channels at 112 px is
    branch_b.1's depthwise stage at 224 px input."""
    assert_input_gradient_equals_the_scatter(kind, shape, kernel, 2, padding)


def reference_conv(x, w, b, stride, padding, grad):
    """Direct nested-sum cross-correlation with a dense (O, C, K, K) kernel, and the
    weight and bias gradients for an output gradient `grad`."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh, ow = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    dw, db = np.zeros_like(w), np.zeros_like(b)
    for img, oc, y, xo in np.ndindex(n, o, oh, ow):
        total = b[oc]
        for ci, i, j in np.ndindex(c, k, k):
            total += w[oc, ci, i, j] * xp[img, ci, y * stride + i, xo * stride + j]
            dw[oc, ci, i, j] += grad[img, oc, y, xo] * xp[img, ci, y * stride + i, xo * stride + j]
        out[img, oc, y, xo] = total
        db[oc] += grad[img, oc, y, xo]
    return out, dw, db


@pytest.mark.parametrize("kind,stride,padding", [
    *[("conv2d", s, p) for s in (1, 2) for p in (0, 1)],
    *[("depthwise", s, p) for s in (1, 2) for p in (0, 1)],
    ("pointwise", 1, 0),
])
@pytest.mark.parametrize("strided_view", [False, True], ids=["contiguous", "view"])
def test_conv_forward_matches_nested_sum_reference(kind, stride, padding, strided_view):
    """The output, and the weight and bias gradients, against the nested sums."""
    rng = Prng(21)
    if kind == "conv2d":
        layer = Conv2d(3, 4, kernel=3, stride=stride, padding=padding, rng=rng)
        dense = layer.w
    elif kind == "depthwise":
        layer = DepthwiseConv2d(3, kernel=3, stride=stride, padding=padding, rng=rng)
        dense = np.zeros((3, 3, 3, 3))
        for ch in range(3):
            dense[ch, ch] = layer.w[ch]
    else:
        layer = PointwiseConv2d(3, 4, rng=rng)
        dense = layer.w[:, :, None, None]
    layer.b[...] = tensor(rng, layer.b.size)
    x = tensor(rng, 2, 3, 5, 7)
    if strided_view:
        # the same values, read through a permuted, stepped view of a larger buffer
        buffer = np.zeros((2, 14, 10, 3))
        buffer[:, ::2, ::2, :] = x.transpose(0, 3, 2, 1)
        x = buffer[:, ::2, ::2, :].transpose(0, 3, 2, 1)
        assert not x.flags.c_contiguous
    out = layer.forward(x)
    grad = rng.normals(out.shape)
    expected, dw, db = reference_conv(x, dense, layer.b, stride, padding, grad)
    assert np.abs(out - expected).max() < 1e-12
    layer.backward(grad)
    if kind == "depthwise":
        dw = np.stack([dw[ch, ch] for ch in range(3)])
    assert np.abs(layer.dw - dw.reshape(layer.dw.shape)).max() < 1e-12
    assert np.abs(layer.db - db).max() < 1e-12


@pytest.mark.parametrize("kind", ["conv2d", "depthwise"])
def test_conv_parameter_gradients_ignore_the_output_gradient_layout(kind):
    """The bias and weight gradients sum the same values in the same order for any layout."""
    rng = Prng(27)
    if kind == "conv2d":
        layer = Conv2d(4, 5, kernel=3, stride=1, padding=1, rng=rng)
    else:
        layer = DepthwiseConv2d(4, kernel=3, stride=2, padding=1, rng=rng)
    x = rng.normals((3, 4, 9, 11))
    grad = rng.normals(layer.forward(x).shape)
    # the same values, laid out channels-last
    permuted = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    found = []
    for g in (grad, permuted):
        layer.zero_grads()
        layer.forward(x)
        layer.backward(g)
        found.append((layer.dw.copy(), layer.db.copy()))
    assert np.array_equal(found[0][0], found[1][0])
    assert np.array_equal(found[0][1], found[1][1])


# ---------------------------------------------------------------------------
# depthwise / pointwise
# ---------------------------------------------------------------------------


def test_depthwise_mixes_no_channels():
    rng = Prng(11)
    dw = DepthwiseConv2d(3, kernel=3, padding=1, rng=rng)
    x = np.zeros((1, 3, 5, 5))
    x[0, 1] = tensor(rng, 5, 5)
    dw.b[...] = 0.0
    out = dw.forward(x)
    assert np.abs(out[0, 0]).max() == 0.0
    assert np.abs(out[0, 2]).max() == 0.0
    assert np.abs(out[0, 1]).max() > 0.0


def test_pointwise_identity_matrix_is_depthwise_only():
    rng = Prng(12)
    dw = DepthwiseConv2d(3, kernel=3, padding=1, rng=rng)
    pw = PointwiseConv2d(3, 3, rng=rng)
    pw.w[...] = np.eye(3)
    pw.b[...] = 0.0
    x = tensor(rng, 2, 3, 6, 6)
    assert np.allclose(pw.forward(dw.forward(x)), dw.forward(x))


def test_separable_pair_composes_to_dense_conv():
    rng = Prng(13)
    dw = DepthwiseConv2d(4, kernel=3, padding=1, rng=rng)
    pw = PointwiseConv2d(4, 6, rng=rng)
    dense = Conv2d(4, 6, kernel=3, padding=1, rng=rng)
    # w_dense[o, c, i, j] = w_point[o, c] * w_depth[c, i, j], the DsBlock docstring's kernel
    dense.w[...] = np.einsum("oc,ckl->ockl", pw.w, dw.w)
    dense.b[...] = pw.b + pw.w @ dw.b
    x = tensor(rng, 2, 4, 7, 7)
    separable = pw.forward(dw.forward(x))
    assert np.abs(separable - dense.forward(x)).max() < 1e-9


def test_depthwise_gradients_match_finite_differences():
    rng = Prng(14)
    dw = DepthwiseConv2d(3, kernel=3, stride=2, padding=1, rng=rng)
    x = tensor(rng, 2, 3, 6, 6)
    assert finite_diff_param_check(dw, x) < 1e-4
    assert finite_diff_input_check(dw, x) < 1e-4


def test_stride_1_depthwise_gradients_match_finite_differences():
    rng = Prng(17)
    dw = DepthwiseConv2d(3, kernel=3, padding=1, rng=rng)
    x = tensor(rng, 2, 3, 5, 6)
    assert finite_diff_param_check(dw, x) < 1e-4
    assert finite_diff_input_check(dw, x) < 1e-4


def test_pointwise_gradients_match_finite_differences():
    rng = Prng(15)
    pw = PointwiseConv2d(3, 5, rng=rng)
    x = tensor(rng, 2, 3, 4, 4)
    assert finite_diff_param_check(pw, x) < 1e-4
    assert finite_diff_input_check(pw, x) < 1e-4


def test_ds_block_gradients_match_finite_differences():
    rng = Prng(16)
    block = DsBlock(3, 5, kernel=3, stride=2, padding=1, rng=rng)
    x = tensor(rng, 2, 3, 8, 8)
    assert finite_diff_param_check(block, x) < 1e-4


# ---------------------------------------------------------------------------
# residual block
# ---------------------------------------------------------------------------


def test_residual_zero_weights_is_relu():
    rng = Prng(21)
    block = ResidualBlock(3, rng=rng)
    for p in block.parameters():
        p[...] = 0.0
    x = tensor(rng, 2, 3, 5, 5)
    assert np.allclose(block.forward(x), np.maximum(x, 0.0))


def test_residual_preserves_dims():
    rng = Prng(22)
    block = ResidualBlock(4, rng=rng)
    x = tensor(rng, 3, 4, 6, 6)
    assert block.forward(x).shape == x.shape


def test_residual_rejects_channel_mismatch():
    block = ResidualBlock(4, rng=Prng(23))
    with pytest.raises(ValueError):
        block.forward(np.zeros((1, 3, 5, 5)))


def test_residual_gradients_match_finite_differences():
    rng = Prng(24)
    block = ResidualBlock(3, rng=rng)
    x = tensor(rng, 2, 3, 5, 5, lo=0.1, hi=1.0)  # keep activations off the relu kink
    assert finite_diff_param_check(block, x) < 1e-4


def test_residual_input_gradient_matches_finite_differences():
    rng = Prng(26)
    block = ResidualBlock(3, rng=rng)  # seeded Kaiming weights, unlike the zero-weight test below
    x = tensor(rng, 2, 3, 5, 5, lo=0.1, hi=1.0)
    assert finite_diff_input_check(block, x) < 1e-4


def test_residual_skip_contributes_identity_gradient():
    rng = Prng(25)
    block = ResidualBlock(2, rng=rng)
    for p in block.parameters():
        p[...] = 0.0  # F(x) == 0, so out = relu(x) and d out/d x = 1 on x > 0
    x = tensor(rng, 1, 2, 4, 4, lo=0.2, hi=1.0)
    assert finite_diff_input_check(block, x) < 1e-4
    block.zero_grads()
    block.forward(x)
    grad_in = block.backward(np.ones((1, 2, 4, 4)))
    assert np.allclose(grad_in, 1.0)


# ---------------------------------------------------------------------------
# simple layers
# ---------------------------------------------------------------------------


def test_relu_masks_negatives():
    relu = ReLU()
    x = np.array([[-1.0, 2.0]])
    assert relu.forward(x).tolist() == [[0.0, 2.0]]
    assert relu.backward(np.ones((1, 2))).tolist() == [[0.0, 1.0]]


def test_global_avg_pool_and_backward():
    gap = GlobalAvgPool()
    x = np.arange(8.0).reshape(1, 2, 2, 2)
    out = gap.forward(x)
    assert out.tolist() == [[1.5, 5.5]]
    grad = gap.backward(np.array([[4.0, 8.0]]))
    assert np.allclose(grad[0, 0], 1.0)
    assert np.allclose(grad[0, 1], 2.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_global_avg_pool_rounds_the_same_for_every_layout(dtype):
    """C-ordered, F-ordered and strided-view inputs of equal values pool bit-equal."""
    x = Prng(36).normals((3, 4, 23, 29)).astype(dtype)
    buffer = np.zeros((3, 29, 46, 8), dtype=dtype)
    buffer[:, :, ::2, ::2] = x.transpose(0, 3, 2, 1)
    view = buffer[:, :, ::2, ::2].transpose(0, 3, 2, 1)
    pooled = [GlobalAvgPool().forward(a) for a in (x, np.asfortranarray(x), view)]
    assert all(p.dtype == dtype for p in pooled)
    assert np.array_equal(pooled[0], pooled[1]) and np.array_equal(pooled[0], pooled[2])


def test_dense_gradients_match_finite_differences():
    rng = Prng(31)
    dense = Dense(6, 4, rng=rng)
    x = tensor(rng, 3, 6)
    assert finite_diff_param_check(dense, x) < 1e-4
    assert finite_diff_input_check(dense, x) < 1e-4


def test_dropout_eval_mode_is_identity():
    dropout = Dropout(0.5)
    x = tensor(Prng(32), 2, 5)
    assert np.array_equal(dropout.forward(x, training=False), x)


def test_dropout_training_scales_kept_units():
    dropout = Dropout(0.5)
    x = np.ones((4, 50))
    out = dropout.forward(x, training=True, rng=Prng(33))
    values = set(np.unique(out).tolist())
    assert values <= {0.0, 2.0}
    assert 0.0 in values and 2.0 in values


def test_dropout_validates_rate():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_softmax_rows_and_shift_invariance():
    rng = Prng(34)
    z = tensor(rng, 5, 4, lo=-3, hi=3)
    p = softmax(z)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert p.min() >= 0.0
    shifted = softmax(z + 7.5)
    assert np.abs(p - shifted).max() < 1e-9


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_param_count_standard_conv_closed_form():
    spec = LayerSpec("conv2d", kernel=3, c_in=32, c_out=64, bias=False)
    assert param_count(spec) == 3 * 3 * 32 * 64 == 18432


def test_param_count_separable_closed_form():
    spec = LayerSpec("ds_block", kernel=3, c_in=32, c_out=64, bias=False)
    assert param_count(spec) == 288 + 2048 == 2336


def test_param_count_1x1_separable():
    spec = LayerSpec("ds_block", kernel=1, c_in=16, c_out=24, bias=False)
    assert param_count(spec) == 16 + 16 * 24


def test_param_count_ratio_approaches_formula():
    for k, ci, co in [(3, 32, 64), (3, 64, 128), (5, 32, 32), (3, 128, 256), (7, 16, 64)]:
        standard = param_count(LayerSpec("conv2d", kernel=k, c_in=ci, c_out=co, bias=False))
        separable = param_count(LayerSpec("ds_block", kernel=k, c_in=ci, c_out=co, bias=False))
        assert separable / standard == pytest.approx(1 / co + 1 / k**2)


def test_param_count_matches_layer_instances():
    rng = Prng(41)
    pairs = [
        (Conv2d(3, 8, 3, rng=rng), LayerSpec("conv2d", kernel=3, c_in=3, c_out=8)),
        (DepthwiseConv2d(6, 3, rng=rng), LayerSpec("depthwise_conv2d", kernel=3, c_in=6)),
        (PointwiseConv2d(6, 12, rng=rng), LayerSpec("pointwise_conv2d", c_in=6, c_out=12)),
        (DsBlock(4, 9, 3, rng=rng), LayerSpec("ds_block", kernel=3, c_in=4, c_out=9)),
        (ResidualBlock(5, 3, rng=rng), LayerSpec("residual_block", kernel=3, c_in=5)),
        (Dense(10, 4, rng=rng), LayerSpec("dense", features_in=10, features_out=4)),
        (Dropout(0.5), LayerSpec("dropout")),
    ]
    for layer, spec in pairs:
        assert layer.param_count() == param_count(spec)


def test_param_count_unknown_kind():
    with pytest.raises(ValueError):
        param_count(LayerSpec("pool7"))
