"""Adam training loop with early stopping and plateau learning-rate reduction.

One xorshift stream seeded from the config drives epoch shuffling and dropout
masks in a fixed order, so identical configurations reproduce identical
histories byte for byte. Validation loss drives both schedules: no strict
improvement for `lr_reduce_patience` epochs halves (by `lr_reduce_factor`)
the learning rate, and none for `early_stop_patience` epochs stops training;
the weights of the best-validation-loss epoch are restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dataio import write_atomic
from ..rng import Prng
from .network import Network, softmax_cross_entropy


class NonFiniteLossError(ArithmeticError):
    """Training produced a NaN or infinite loss, or a forward pass non-finite scores."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    early_stop_patience: int = 5
    lr_reduce_factor: float = 0.5
    lr_reduce_patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "early_stop_patience", "lr_reduce_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.adam_epsilon > 0.0:
            raise ValueError("adam_epsilon must be > 0")
        if not 0.0 < self.lr_reduce_factor < 1.0:
            raise ValueError("lr_reduce_factor must be in (0, 1)")


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def __len__(self):
        return len(self.train_loss)

    def save_csv(self, path) -> None:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc,lr"]
        for i in range(len(self.train_loss)):
            lines.append(
                f"{i + 1},{self.train_loss[i]:.10g},{self.train_acc[i]:.10g},"
                f"{self.val_loss[i]:.10g},{self.val_acc[i]:.10g},{self.lr[i]:.10g}"
            )
        write_atomic(path, "\n".join(lines) + "\n")


class Adam:
    """First/second moment state with bias correction over one parameter array,
    such as a network's `flat_params`, updated in place by each step."""

    def __init__(self, params: np.ndarray, beta1: float, beta2: float, epsilon: float):
        self.params = params
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1 - self.beta2) * grads * grads
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        self.params -= lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


def evaluate_loss(network: Network, x: np.ndarray, labels: np.ndarray):
    """Mean loss and accuracy over a dataset, dropout disabled."""
    loss, _, probs = softmax_cross_entropy(network.inference_logits(x), labels)
    return loss, int((probs.argmax(axis=1) == labels).sum()) / x.shape[0]


def train(
    network: Network,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    augment_fn=None,
) -> TrainingHistory:
    """Minibatch Adam on softmax cross-entropy with seeded determinism.

    `augment_fn(batch_indices, epoch)`, when given, supplies the (B, C, H, W)
    training tensor of one minibatch in place of `train_x[batch_indices]`:
    the samples at those indices, in that order, augmented for that epoch (or
    not; the CLI also builds its unaugmented batches this way). Validation
    data are never augmented. Each batch takes one Adam step, of every
    parameter, on gradients that `Network.train_step` sums over cache-sized
    micro-batches, which run on one worker per CPU.
    """
    train_x, train_y = train_set
    val_x, val_y = val_set
    train_x = np.asarray(train_x)
    val_x = np.asarray(val_x)
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise ValueError("training and validation sets must be nonempty")
    for labels in (train_y, val_y):
        if labels.size and (labels.min() < 0 or labels.max() >= network.n_classes):
            raise ValueError(f"labels must lie in [0, {network.n_classes})")

    rng = Prng(config.seed)
    optimizer = Adam(network.flat_params, config.beta1, config.beta2, config.adam_epsilon)

    history = TrainingHistory()
    lr = config.learning_rate
    best_val = np.inf
    best_weights = network.flat_params.copy()
    stale_stop = 0
    stale_lr = 0
    n = train_x.shape[0]

    for epoch in range(1, config.epochs + 1):
        order = list(range(n))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb = train_x[batch] if augment_fn is None else augment_fn(batch, epoch)
            yb = train_y[batch]
            # a diverging float32 run overflows before its loss is checked, here
            # and in the validation pass; the non-finite loss reports it
            with np.errstate(over="ignore", invalid="ignore"):
                loss, probs = network.train_step(xb, yb, rng)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite training loss at epoch {epoch}, batch start {start}"
                )
            optimizer.step(network.flat_grads, lr)
            epoch_loss += loss * len(batch)
            epoch_correct += int((probs.argmax(axis=1) == yb).sum())

        with np.errstate(over="ignore", invalid="ignore"):
            val_loss, val_acc = evaluate_loss(network, val_x, val_y)
        if not np.isfinite(val_loss):
            raise NonFiniteLossError(f"non-finite validation loss at epoch {epoch}")
        history.train_loss.append(epoch_loss / n)
        history.train_acc.append(epoch_correct / n)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        history.lr.append(lr)

        if val_loss < best_val:
            best_val = val_loss
            best_weights = network.flat_params.copy()
            history.best_epoch = epoch
            stale_stop = 0
            stale_lr = 0
        else:
            stale_stop += 1
            stale_lr += 1
            if stale_lr >= config.lr_reduce_patience:
                lr *= config.lr_reduce_factor
                stale_lr = 0
            if stale_stop >= config.early_stop_patience:
                break

    network.flat_params[...] = best_weights
    return history
