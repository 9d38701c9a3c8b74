import hashlib
import math
import struct

import numpy as np
import pytest

from deepbrainnet.nnet import (
    CheckpointError,
    LayerSpec,
    build_deepbrainnet_mini,
    gradient_check,
    load_checkpoint,
    param_count,
    predict,
    save_checkpoint,
    softmax_cross_entropy,
)
from deepbrainnet.rng import Prng


def sample_batch(rng, n, size):
    x = np.array([rng.uniform_in(0.0, 1.0) for _ in range(n * 3 * size * size)])
    return x.reshape(n, 3, size, size)


def test_forward_rows_are_probability_vectors():
    net = build_deepbrainnet_mini(16, 4, seed=1, dropout_rate=0.0, base_channels=4)
    x = sample_batch(Prng(2), 5, 16)
    probs = net.forward(x)
    assert probs.shape == (5, 4)
    assert probs.min() >= 0.0
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def test_untrained_loss_is_near_uniform():
    net = build_deepbrainnet_mini(16, 4, seed=3, dropout_rate=0.0, base_channels=4)
    x = sample_batch(Prng(4), 8, 16)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    loss, _, _ = softmax_cross_entropy(net.forward_logits(x), labels)
    assert abs(loss - math.log(4)) < 0.2


def test_total_params_match_spec_formulas():
    c = 8
    net = build_deepbrainnet_mini(32, 4, seed=5, dropout_rate=0.3, base_channels=c)
    expected = (
        param_count(LayerSpec("conv2d", kernel=3, c_in=3, c_out=c))
        + 2 * param_count(LayerSpec("residual_block", kernel=3, c_in=c))
        + param_count(LayerSpec("ds_block", kernel=3, c_in=3, c_out=c))
        + param_count(LayerSpec("ds_block", kernel=3, c_in=c, c_out=2 * c))
        + param_count(LayerSpec("dense", features_in=3 * c, features_out=4))
    )
    assert net.param_count() == expected
    assert net.param_count() < 100_000


def test_build_rejects_small_input_or_few_classes():
    with pytest.raises(ValueError):
        build_deepbrainnet_mini(8, 4)
    with pytest.raises(ValueError):
        build_deepbrainnet_mini(32, 1)
    with pytest.raises(ValueError):
        build_deepbrainnet_mini(32, 4, base_channels=0)


def test_build_is_seed_deterministic():
    a = build_deepbrainnet_mini(16, 3, seed=7, base_channels=4)
    b = build_deepbrainnet_mini(16, 3, seed=7, base_channels=4)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    c = build_deepbrainnet_mini(16, 3, seed=8, base_channels=4)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.parameters(), c.parameters()))


def test_predict_is_deterministic_and_duplicates_match():
    net = build_deepbrainnet_mini(16, 4, seed=9, dropout_rate=0.5, base_channels=4)
    x = sample_batch(Prng(10), 2, 16)
    doubled = np.concatenate([x, x])
    probs = predict(net, doubled)
    assert np.array_equal(probs[:2], probs[2:])
    assert np.array_equal(probs, predict(net, doubled))  # dropout disabled at inference


def test_predict_rejects_wrong_size():
    net = build_deepbrainnet_mini(16, 4, seed=11, base_channels=4)
    with pytest.raises(ValueError):
        predict(net, np.zeros((1, 3, 20, 20)))


def test_full_network_gradient_check():
    net = build_deepbrainnet_mini(16, 4, seed=12, dropout_rate=0.0, base_channels=4)
    rng = Prng(13)
    for _ in range(50):  # redraw until pre-activations clear the relu kink
        x = sample_batch(rng, 2, 16) + 0.05
        if net.relu_kink_margin(x) > 1e-3:
            break
    labels = np.array([1, 3])
    worst = gradient_check(net, (x, labels), max_params_per_array=60)
    assert worst < 1e-4


def test_gradient_near_zero_when_prediction_is_saturated():
    net = build_deepbrainnet_mini(16, 2, seed=14, dropout_rate=0.0, base_channels=4)
    x = sample_batch(Prng(15), 1, 16)
    logits = net.forward_logits(x)
    label = np.array([int(logits.argmax())])
    # push the dense bias until the softmax saturates at the correct label
    net.dense.b[label[0]] += 50.0
    logits = net.forward_logits(x)
    loss, dlogits, _ = softmax_cross_entropy(logits, label)
    assert loss < 1e-9
    net.zero_grads()
    net.backward_from_logits(dlogits)
    assert max(np.abs(g).max() for g in net.gradients()) < 1e-9


def test_softmax_cross_entropy_values():
    logits = np.log(np.array([[0.7, 0.2, 0.1]]))
    loss, grad, probs = softmax_cross_entropy(logits, np.array([0]))
    assert loss == pytest.approx(-math.log(0.7))
    assert probs[0].tolist() == pytest.approx([0.7, 0.2, 0.1])
    assert grad[0].tolist() == pytest.approx([0.7 - 1.0, 0.2, 0.1])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    net = build_deepbrainnet_mini(16, 4, seed=21, dropout_rate=0.25, base_channels=4)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.n_classes == 4
    assert loaded.input_size == 16
    assert loaded.dropout.rate == pytest.approx(0.25)
    for original, restored in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(restored, original.astype("<f4").astype(np.float64))


def test_checkpoint_resave_is_byte_identical(tmp_path):
    net = build_deepbrainnet_mini(16, 3, seed=22, base_channels=4)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(net, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_sidecar_lists_layers(tmp_path):
    net = build_deepbrainnet_mini(16, 4, seed=23, base_channels=4)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    sidecar = (tmp_path / "ck.bin.layers.csv").read_text()
    lines = sidecar.strip().splitlines()
    assert lines[0] == "index,layer,kind,param,shape"
    assert len(lines) - 1 == len(net.parameters())
    assert any("residual_block" in line for line in lines)
    assert any("ds_block" in line for line in lines)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + bytes(64))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = build_deepbrainnet_mini(16, 4, seed=24, base_channels=4)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [
    12,  # inside the fixed header
    31,  # last byte of the fixed header missing
    40,  # inside the shape table
    -4 * 1000,  # inside the payload
    -1,  # last payload byte missing
])
def test_checkpoint_rejects_cut_file(tmp_path, cut):
    path = tmp_path / "ck.bin"
    save_checkpoint(build_deepbrainnet_mini(16, 4, seed=25, base_channels=8), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(CheckpointError, match="truncated checkpoint .*ck.bin"):
        load_checkpoint(path)


@pytest.mark.parametrize("patches", [
    {16: 2**30},  # class count
    {20: 2**30},  # base channel count
    {20: 2**16, 34: 2**16},  # base channels and the stem's first dim: the table outgrows the file
])
def test_checkpoint_header_is_checked_before_building(tmp_path, patches):
    path = tmp_path / "ck.bin"
    save_checkpoint(build_deepbrainnet_mini(16, 4, seed=25, base_channels=8), path)
    blob = bytearray(path.read_bytes())
    for offset, value in patches.items():
        struct.pack_into("<I", blob, offset, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="disagrees with its shape table|truncated checkpoint"):
        load_checkpoint(path)


def test_checkpoint_format_is_pinned(tmp_path):
    """Bytes of the v1 format, as first written; any layout change must bump VERSION."""
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(build_deepbrainnet_mini(16, 4, seed=0), path)
    for file, size, digest in (
        (path, 12024, "98583e8c8e5e3412171ba69460ceb9343cd91ee5a242870e618ed9ea054bdefa"),
        (tmp_path / "checkpoint.bin.layers.csv", 852,
         "1407f8877ca476b103102b82c04e1f557bdb82c2725774b24fce2199af0883f0"),
    ):
        blob = file.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, digest)
