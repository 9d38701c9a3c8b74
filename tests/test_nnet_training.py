import hashlib

import numpy as np
import pytest

from deepbrainnet import parallel
from deepbrainnet.nnet import (
    Adam,
    NonFiniteLossError,
    TrainConfig,
    build_deepbrainnet_mini,
    evaluate_loss,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from deepbrainnet.nnet import network as network_module
from deepbrainnet.nnet import training as training_module
from deepbrainnet.rng import Prng


def toy_dataset(rng, n_per_class=8, size=16, classes=3):
    """Trivially separable: class k fills a distinct horizontal band."""
    xs, ys = [], []
    for k in range(classes):
        for _ in range(n_per_class):
            img = np.zeros((3, size, size))
            band = slice(k * size // classes, (k + 1) * size // classes)
            img[:, band, :] = 0.6 + 0.3 * rng.uniform()
            img += 0.02 * rng.normals((3, size, size))
            xs.append(np.clip(img, 0.0, 1.0))
            ys.append(k)
    return np.stack(xs), np.array(ys)


def small_config(**overrides):
    defaults = dict(
        epochs=12,
        batch_size=8,
        learning_rate=5e-3,
        early_stop_patience=6,
        lr_reduce_patience=3,
        seed=5,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def build_and_split(seed=3):
    rng = Prng(seed)
    x, y = toy_dataset(rng)
    train_idx = [i for i in range(len(y)) if i % 4 != 0]
    val_idx = [i for i in range(len(y)) if i % 4 == 0]
    return (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx])


def test_training_learns_toy_bands():
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=1, dropout_rate=0.0, base_channels=4)
    history = train(net, train_set, val_set, small_config())
    assert max(history.train_acc) >= 0.95
    assert len(history) == len(history.val_loss) == len(history.lr)


def test_identical_seed_identical_history():
    train_set, val_set = build_and_split()
    histories = []
    for _ in range(2):
        net = build_deepbrainnet_mini(16, 3, seed=1, dropout_rate=0.2, base_channels=4)
        histories.append(train(net, train_set, val_set, small_config(epochs=6)))
    a, b = histories
    assert a.train_loss == b.train_loss
    assert a.val_loss == b.val_loss
    assert a.train_acc == b.train_acc
    assert a.lr == b.lr


def test_lr_trace_never_increases_and_steps_by_factor():
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=2, dropout_rate=0.0, base_channels=4)
    config = small_config(epochs=20, lr_reduce_patience=2, lr_reduce_factor=0.5)
    history = train(net, train_set, val_set, config)
    for prev, cur in zip(history.lr, history.lr[1:]):
        assert cur <= prev
        assert cur == prev or cur == pytest.approx(prev * 0.5)


def test_best_restore_gives_min_val_loss():
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=3, dropout_rate=0.0, base_channels=4)
    history = train(net, train_set, val_set, small_config(epochs=15))
    restored_loss, _ = evaluate_loss(net, val_set[0], val_set[1])
    assert restored_loss == pytest.approx(min(history.val_loss), abs=1e-12)
    assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)


def test_early_stopping_halts_before_epoch_budget():
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=4, dropout_rate=0.0, base_channels=4)
    # learning rate 0 never improves, so training stops after the patience runs out
    config = small_config(epochs=30, learning_rate=0.0, early_stop_patience=3)
    history = train(net, train_set, val_set, config)
    assert len(history) == 1 + 3  # first epoch sets the best, then 3 stale


def test_validation_losses_drive_the_rate_halvings_the_best_epoch_and_the_stop(monkeypatch):
    """A fixed sequence of validation losses: each run of lr_reduce_patience epochs
    without a strict improvement halves the rate, and early_stop_patience of them stop."""
    losses = iter([1.0, 0.9, 0.95, 0.95, 0.95, 0.8, 0.8, 0.9, 0.9, 0.9, 0.9, 0.1])
    monkeypatch.setattr(training_module, "evaluate_loss", lambda *args: (next(losses), 0.5))
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=7, base_channels=4)
    config = small_config(epochs=20, learning_rate=1e-3, lr_reduce_patience=2, early_stop_patience=5)
    history = train(net, train_set, val_set, config)
    halvings = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3]
    assert history.lr == [1e-3 * 0.5**k for k in halvings]
    assert history.best_epoch == 6 and len(history) == 11


def test_loss_windows_mostly_non_increasing():
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=6, dropout_rate=0.0, base_channels=4)
    history = train(net, train_set, val_set, small_config(epochs=20))
    losses = history.train_loss
    windows = [(i, i + 4) for i in range(len(losses) - 4)]
    good = sum(1 for a, b in windows if losses[b] <= losses[a])
    assert good >= 0.9 * len(windows)


def test_augment_fn_changes_history_under_same_seed():
    train_set, val_set = build_and_split()
    rng = Prng(77)
    noise = {(i, e): 0.05 * rng.normals(train_set[0][0].shape) for i in range(len(train_set[1]))
             for e in range(1, 4)}

    def augment_fn(batch, epoch):
        return np.stack([np.clip(train_set[0][i] + noise[(i, epoch)], 0.0, 1.0) for i in batch])

    histories = []
    for fn in (None, augment_fn):
        net = build_deepbrainnet_mini(16, 3, seed=8, dropout_rate=0.0, base_channels=4)
        histories.append(train(net, train_set, val_set, small_config(epochs=3), augment_fn=fn))
    assert histories[0].train_loss != histories[1].train_loss


def _train_until_non_finite(net, train_set, val_set, config):
    """Run `train` into NonFiniteLossError; no parameter moved in the failing batch."""
    before = []
    step = net.train_step

    def recording(*args):
        before[:] = [p.copy() for p in net.parameters()]
        return step(*args)

    net.train_step = recording
    with pytest.raises(NonFiniteLossError, match="training loss at epoch"):
        train(net, train_set, val_set, config)
    for param, weight in zip(net.parameters(), before, strict=True):
        assert np.array_equal(param, weight, equal_nan=True)


def test_non_finite_loss_aborts():
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=9, dropout_rate=0.0, base_channels=4)
    _train_until_non_finite(net, train_set, val_set, small_config(epochs=10, learning_rate=1e30))


def test_nan_conv_weight_is_a_non_finite_loss():
    """ReLU passes NaN on, so a NaN weight cannot be masked into finite logits."""
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=9, dropout_rate=0.0, base_channels=4)
    net.branch_a[2].conv1.w[0, 0, 1, 1] = np.nan
    assert not np.isfinite(net.forward_logits(train_set[0][:2])).any()
    _train_until_non_finite(net, train_set, val_set, small_config(epochs=2))


def test_float32_overflow_in_the_validation_pass_is_a_non_finite_loss():
    """With one batch per epoch, the first lr-1e30 step first overflows float32 in the
    validation forward: a NonFiniteLossError there, not a RuntimeWarning."""
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=9, dropout_rate=0.0, base_channels=4, dtype=np.float32)
    with pytest.raises(NonFiniteLossError, match="validation loss at epoch 1"):
        train(net, train_set, val_set, small_config(epochs=2, batch_size=32, learning_rate=1e30))


def test_a_poisoned_later_micro_batch_never_reaches_adam(monkeypatch):
    """Earlier micro-batches of the batch run backward, but no Adam step follows."""
    (train_x, train_y), val_set = build_and_split()
    image_bytes = train_x[0].nbytes
    monkeypatch.setattr(network_module, "_CHUNK_BYTES", 2 * image_bytes)  # 2 images a chunk
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)  # chunks on workers
    order = list(range(len(train_y)))
    Prng(5).shuffle(order)  # the first epoch's order: `train` draws it first from the seed
    train_x = train_x.copy()
    train_x[order[2:], 0, 0, 0] = np.nan  # only the first batch's first micro-batch is finite
    net = build_deepbrainnet_mini(16, 3, seed=9, dropout_rate=0.0, base_channels=4)
    _train_until_non_finite(net, (train_x, train_y), val_set, small_config(epochs=1))


def test_seeded_train_at_32_px_pins_its_weights():
    """At 32 px a batch of 32 is one micro-batch, so the weights stay those of one pass.

    The digest was computed with the flat-plane weight gradients (one GEMM per
    image over each tap's slice), on numpy 2.4 with OpenBLAS 0.3.31; another
    BLAS build may round the GEMMs differently.
    """
    x, y = toy_dataset(Prng(41), n_per_class=16, size=32)
    train_idx = [i for i in range(len(y)) if i % 4 != 0]  # 36 images: batches of 32 and 4
    val_idx = [i for i in range(len(y)) if i % 4 == 0]
    net = build_deepbrainnet_mini(32, 3, seed=42)  # dropout on
    train(net, (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx]),
          TrainConfig(epochs=2, batch_size=32, seed=43))
    digest = hashlib.sha256(b"".join(p.tobytes() for p in net.parameters())).hexdigest()
    assert digest == "6cc52bbc34951783813468935b970cb616493e662d336346ea7fbe9d61b26520"


def test_float32_step_and_adam_update_stay_in_float32():
    """No array of a float32 step is promoted, under either numpy casting rule (NEP 50 or
    the value-based one of numpy 1.x); predict still returns float64 probability rows."""
    net = build_deepbrainnet_mini(16, 3, seed=4, dtype=np.float32)
    returned = []
    for layer in net.iter_layers():
        for name in ("forward", "backward"):
            def recorded(*args, _pass=getattr(layer, name), **kwargs):
                result = _pass(*args, **kwargs)
                if result is not None:  # the input layers return no input gradient
                    returned.append(result)
                return result
            setattr(layer, name, recorded)
    (x, y), _ = build_and_split()  # float64 inputs, cast by the network
    config = small_config()
    optimizer = Adam(net.flat_params, config.beta1, config.beta2, config.adam_epsilon)
    net.train_step(x, y, Prng(6))
    optimizer.step(net.flat_grads, config.learning_rate)
    arrays = [*net.parameters(), *net.gradients(), net.flat_params, net.flat_grads,
              optimizer.m, optimizer.v, *returned]
    assert len(returned) > 2 * len(net.named_layers())
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    scores = predict(net, x)
    assert scores.dtype == np.float64 and np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9
    reference = build_deepbrainnet_mini(16, 3, dtype=np.float64)  # the same weights, in float64
    reference.flat_params[...] = net.flat_params
    assert np.abs(scores - predict(reference, x)).max() < 1e-5


def _per_array_adam_step(state, params, grads, lr, beta1, beta2, epsilon):
    """The Adam update as one loop over the parameter arrays, each with its own moments:
    the reference the flat update must equal bit for bit."""
    state["t"] += 1
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = beta1 * state["m"][i] + (1 - beta1) * g
        state["v"][i] = beta2 * state["v"][i] + (1 - beta2) * g * g
        m_hat = state["m"][i] / (1 - beta1 ** state["t"])
        v_hat = state["v"][i] / (1 - beta2 ** state["t"])
        p -= lr * m_hat / (np.sqrt(v_hat) + epsilon)


def test_the_flat_adam_step_equals_the_per_array_update_bit_for_bit():
    """300 float32 steps over the network's arrays, on gradients of magnitude 1e-6 to 1
    and a learning rate halved every 50 steps."""
    net = build_deepbrainnet_mini(16, 3, seed=11, base_channels=4, dtype=np.float32)
    config = small_config()
    hyper = (config.beta1, config.beta2, config.adam_epsilon)
    optimizer = Adam(net.flat_params, *hyper)
    reference = [p.copy() for p in net.parameters()]
    state = {"t": 0, "m": [np.zeros_like(p) for p in reference], "v": [np.zeros_like(p) for p in reference]}
    rng = np.random.default_rng(12)
    lr = 1e-2
    for step in range(300):
        if step and step % 50 == 0:
            lr *= 0.5
        size = net.flat_grads.size
        net.flat_grads[...] = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-6.0, 0.0, size)
        optimizer.step(net.flat_grads, lr)
        _per_array_adam_step(state, reference, [g.copy() for g in net.gradients()], lr, *hyper)
    assert optimizer.m.dtype == np.float32 and optimizer.t == 300
    for (name, param, _), expected in zip(net.named_parameters(), reference, strict=True):
        assert np.array_equal(param, expected), name


def test_reloaded_float32_checkpoint_predicts_bit_identically(tmp_path):
    """The checkpoint stores the float32 weights that were trained, and loads as float32."""
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=7, dtype=np.float32)
    train(net, train_set, val_set, small_config(epochs=2))
    save_checkpoint(net, tmp_path / "ck.bin")
    loaded = load_checkpoint(tmp_path / "ck.bin")
    assert loaded.dtype == np.float32
    assert np.array_equal(predict(loaded, val_set[0]), predict(net, val_set[0]))


def test_empty_dataset_rejected():
    net = build_deepbrainnet_mini(16, 3, seed=10, base_channels=4)
    empty = (np.zeros((0, 3, 16, 16)), np.zeros(0, dtype=int))
    filled = (np.zeros((2, 3, 16, 16)), np.array([0, 1]))
    with pytest.raises(ValueError):
        train(net, empty, filled, small_config())


def test_out_of_range_labels_rejected():
    net = build_deepbrainnet_mini(16, 3, seed=11, base_channels=4)
    data = (np.zeros((2, 3, 16, 16)), np.array([0, 5]))
    with pytest.raises(ValueError):
        train(net, data, data, small_config())


def test_history_csv_format(tmp_path):
    train_set, val_set = build_and_split()
    net = build_deepbrainnet_mini(16, 3, seed=12, dropout_rate=0.0, base_channels=4)
    history = train(net, train_set, val_set, small_config(epochs=3))
    path = tmp_path / "history.csv"
    history.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
    assert len(lines) - 1 == len(history.train_loss) <= 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_reduce_factor=1.0)
    for bad in ({"learning_rate": -1.0}, {"beta1": 1.0}, {"beta2": -0.1}, {"adam_epsilon": 0.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
