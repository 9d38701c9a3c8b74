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
    Softmax,
    param_count,
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


def reference_conv(x, w, b, stride, padding):
    """Direct nested-sum cross-correlation with a dense (O, C, K, K) kernel."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh, ow = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for img, oc, y, xo in np.ndindex(n, o, oh, ow):
        total = b[oc]
        for ci, i, j in np.ndindex(c, k, k):
            total += w[oc, ci, i, j] * xp[img, ci, y * stride + i, xo * stride + j]
        out[img, oc, y, xo] = total
    return out


@pytest.mark.parametrize("kind,stride,padding", [
    *[("conv2d", s, p) for s in (1, 2) for p in (0, 1)],
    *[("depthwise", s, p) for s in (1, 2) for p in (0, 1)],
    ("pointwise", 1, 0),
])
@pytest.mark.parametrize("strided_view", [False, True], ids=["contiguous", "view"])
def test_conv_forward_matches_nested_sum_reference(kind, stride, padding, strided_view):
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
    expected = reference_conv(x, dense, layer.b, stride, padding)
    assert np.abs(layer.forward(x) - expected).max() < 1e-12


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
    softmax = Softmax()
    rng = Prng(34)
    z = tensor(rng, 5, 4, lo=-3, hi=3)
    p = softmax.forward(z)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert p.min() >= 0.0
    shifted = softmax.forward(z + 7.5)
    assert np.abs(p - shifted).max() < 1e-9


def test_softmax_backward_matches_finite_differences():
    rng = Prng(35)
    softmax = Softmax()
    z = tensor(rng, 2, 3)
    assert finite_diff_input_check(softmax, z) < 1e-4


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
