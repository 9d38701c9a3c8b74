"""Two-branch convolutional classifier and whole-network utilities.

The mini network feeds the same input through a residual branch (stem
convolution, two residual blocks) and a depthwise-separable branch (two
ds blocks), global-average-pools both, concatenates the pooled features, and
classifies through dropout -> dense -> softmax. It keeps the two architectural
mechanisms of the full-scale hybrid (identity skips and separable
convolutions) at a few thousand parameters.
"""

from __future__ import annotations

import numpy as np

from ..rng import Prng, derive_seed
from .layers import (
    Conv2d,
    Dense,
    Dropout,
    DsBlock,
    GlobalAvgPool,
    Layer,
    ReLU,
    ResidualBlock,
    Softmax,
    as_tensor4,
)


class Network(Layer):
    """Branch lists, fusion by feature concatenation, and the classifier head.

    Its children are the named layers, so `named_parameters()` yields names
    such as `branch_a.2.conv1.weight` and `head.dense.bias`.
    """

    kind = "network"

    def __init__(
        self,
        branch_a: list[Layer],
        branch_b: list[Layer],
        dropout: Dropout,
        dense: Dense,
        n_classes: int,
        input_size: int,
        base_channels: int,
    ):
        self.branch_a = branch_a
        self.branch_b = branch_b
        self.dropout = dropout
        self.dense = dense
        self.softmax = Softmax()
        self.n_classes = n_classes
        self.input_size = input_size
        self.base_channels = base_channels
        self._split = None

    # -- plumbing ----------------------------------------------------------

    def named_layers(self) -> list[tuple[str, Layer]]:
        named = [(f"branch_a.{i}", layer) for i, layer in enumerate(self.branch_a)]
        named += [(f"branch_b.{i}", layer) for i, layer in enumerate(self.branch_b)]
        named += [("head.dropout", self.dropout), ("head.dense", self.dense), ("head.softmax", self.softmax)]
        return named

    def children(self) -> dict[str, Layer]:
        return dict(self.named_layers())

    def iter_layers(self):
        """Every layer, descending into composite blocks."""

        def walk(layer):
            yield layer
            for child in layer.children().values():
                yield from walk(child)

        for layer in self.children().values():
            yield from walk(layer)

    def relu_kink_margin(self, x) -> float:
        """Smallest |pre-activation| any ReLU saw on a forward pass of x.

        Finite-difference gradient checks flip a ReLU branch when a
        pre-activation lies within the probe step of zero; callers keep
        their probes valid by requiring this margin to exceed the step.
        """
        self.forward_logits(x, training=False)
        margins = [
            layer.last_min_abs_input
            for layer in self.iter_layers()
            if isinstance(layer, ReLU)
        ]
        return min(margins, default=np.inf)

    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError("weight list length mismatch")
        for p, w in zip(params, weights):
            if p.shape != w.shape:
                raise ValueError(f"weight shape mismatch: {p.shape} vs {w.shape}")
            p[...] = w

    # -- forward / backward -------------------------------------------------

    def forward_logits(self, x, training: bool = False, rng: Prng | None = None) -> np.ndarray:
        x = as_tensor4(x)
        if x.shape[2] != self.input_size or x.shape[3] != self.input_size:
            raise ValueError(
                f"expected {self.input_size}x{self.input_size} inputs, got {x.shape[2]}x{x.shape[3]}"
            )
        fa = x
        for layer in self.branch_a:
            fa = layer.forward(fa, training=training, rng=rng)
        fb = x
        for layer in self.branch_b:
            fb = layer.forward(fb, training=training, rng=rng)
        self._split = fa.shape[1]
        fused = np.concatenate([fa, fb], axis=1)
        dropped = self.dropout.forward(fused, training=training, rng=rng)
        return self.dense.forward(dropped)

    def backward_from_logits(self, grad_logits: np.ndarray) -> np.ndarray:
        grad = self.dense.backward(grad_logits)
        grad = self.dropout.backward(grad)
        ga, gb = grad[:, : self._split], grad[:, self._split :]
        for layer in reversed(self.branch_a):
            ga = layer.backward(ga)
        for layer in reversed(self.branch_b):
            gb = layer.backward(gb)
        return ga + gb

    def forward(self, x) -> np.ndarray:
        """Class probabilities with dropout disabled."""
        return self.softmax.forward(self.forward_logits(x, training=False))


def build_deepbrainnet_mini(input_size: int, n_classes: int, seed: int = 0,
                            dropout_rate: float = 0.3, base_channels: int = 8) -> Network:
    """Construct the two-branch classifier with seeded Kaiming initialization.

    Branch A: stride-2 stem convolution then two residual blocks.
    Branch B: stride-2 ds block then a second stride-2 ds block doubling the
    channel count. Both end in global average pooling; the head sees
    base_channels + 2*base_channels fused features.
    """
    if input_size < 16:
        raise ValueError(f"input_size must be >= 16 for the stride plan, got {input_size}")
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if base_channels < 1:
        raise ValueError(f"base_channels must be >= 1, got {base_channels}")
    c = base_channels
    rng = Prng(derive_seed(seed, 0xBEEF))
    branch_a: list[Layer] = [
        Conv2d(3, c, kernel=3, stride=2, padding=1, rng=rng),
        ReLU(),
        ResidualBlock(c, kernel=3, rng=rng),
        ResidualBlock(c, kernel=3, rng=rng),
        GlobalAvgPool(),
    ]
    branch_b: list[Layer] = [
        DsBlock(3, c, kernel=3, stride=2, padding=1, rng=rng),
        DsBlock(c, 2 * c, kernel=3, stride=2, padding=1, rng=rng),
        GlobalAvgPool(),
    ]
    dropout = Dropout(dropout_rate)
    dense = Dense(3 * c, n_classes, rng=rng)
    return Network(branch_a, branch_b, dropout, dense, n_classes, input_size, base_channels)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch plus its gradient w.r.t. the logits."""
    labels = np.asarray(labels)
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    picked = probs[np.arange(n), labels]
    with np.errstate(divide="ignore"):
        loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n, probs


def predict(network: Network, images) -> np.ndarray:
    """Probability matrix (n, K); deterministic, rows sum to 1."""
    return network.forward(images)


def gradient_check(
    network: Network,
    sample,
    epsilon: float = 1e-5,
    max_params_per_array: int | None = None,
) -> float:
    """Worst mismatch between analytic and central-finite-difference gradients.

    Checks every parameter of every layer (or an evenly spaced subsample per
    parameter array). The reported figure is |numeric - analytic| /
    max(|numeric| + |analytic|, 1e-5); the absolute floor keeps round-off on
    near-zero gradients from registering as relative error. Dropout is
    disabled throughout.
    """
    x, labels = sample
    x = as_tensor4(x)

    def loss_value() -> float:
        logits = network.forward_logits(x, training=False)
        loss, _, _ = softmax_cross_entropy(logits, labels)
        return loss

    network.zero_grads()
    logits = network.forward_logits(x, training=False)
    _, dlogits, _ = softmax_cross_entropy(logits, labels)
    network.backward_from_logits(dlogits)

    worst = 0.0
    for _, param, grad in network.named_parameters():
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        if max_params_per_array is not None and flat.size > max_params_per_array:
            step = flat.size / max_params_per_array
            indices = [int(i * step) for i in range(max_params_per_array)]
        else:
            indices = range(flat.size)
        for i in indices:
            original = flat[i]
            flat[i] = original + epsilon
            plus = loss_value()
            flat[i] = original - epsilon
            minus = loss_value()
            flat[i] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            err = abs(numeric - gflat[i]) / max(abs(numeric) + abs(gflat[i]), 1e-5)
            if err > worst:
                worst = err
    return worst
