"""Two-branch convolutional classifier and whole-network utilities.

The mini network feeds the same input through a residual branch (stem
convolution, two residual blocks) and a depthwise-separable branch (two
ds blocks), global-average-pools both, concatenates the pooled features, and
classifies through dropout -> dense -> softmax. It keeps the two architectural
mechanisms of the full-scale hybrid (identity skips and separable
convolutions) at a few thousand parameters.
"""

from __future__ import annotations

import math

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
    as_tensor4,
)

# Input bytes that inference sends through the branches, and a training step
# through the whole network, at once: at 224 px 6 images in float64 and 13 in
# float32, and over 300 at 32 px.
_CHUNK_BYTES = 8 << 20


def _chunk_starts(x: np.ndarray) -> tuple[int, range]:
    """Images per chunk of x, and the chunks' first rows; an empty x has one chunk."""
    chunk = max(1, _CHUNK_BYTES // (x.itemsize * math.prod(x.shape[1:])))
    return chunk, range(0, max(x.shape[0], 1), chunk)


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
        self.n_classes = n_classes
        self.input_size = input_size
        self.base_channels = base_channels
        self._split = None

    # -- plumbing ----------------------------------------------------------

    def named_layers(self) -> list[tuple[str, Layer]]:
        named = [(f"branch_a.{i}", layer) for i, layer in enumerate(self.branch_a)]
        named += [(f"branch_b.{i}", layer) for i, layer in enumerate(self.branch_b)]
        named += [("head.dropout", self.dropout), ("head.dense", self.dense)]
        return named

    def children(self) -> dict[str, Layer]:
        return dict(self.named_layers())

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and of what the layers compute."""
        return self.dense.w.dtype

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
        their probes valid by requiring this margin to exceed the step. Each
        ReLU records its margin only while this pass has handed it a list.
        """
        margins = [np.inf]
        relus = [layer for layer in self.iter_layers() if isinstance(layer, ReLU)]
        for relu in relus:
            relu._margins = margins
        try:
            self.forward_logits(x, training=False)
        finally:
            for relu in relus:
                del relu._margins
        return min(margins)

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

    def _checked(self, x) -> np.ndarray:
        x = as_tensor4(x, self.dtype)
        if x.shape[2] != self.input_size or x.shape[3] != self.input_size:
            raise ValueError(
                f"expected {self.input_size}x{self.input_size} inputs, got {x.shape[2]}x{x.shape[3]}"
            )
        return x

    def _fused(self, x: np.ndarray, training: bool, rng: Prng | None) -> np.ndarray:
        """Both branches' pooled features of x, concatenated."""
        fa = x
        for layer in self.branch_a:
            fa = layer.forward(fa, training=training, rng=rng)
        fb = x
        for layer in self.branch_b:
            fb = layer.forward(fb, training=training, rng=rng)
        self._split = fa.shape[1]
        return np.concatenate([fa, fb], axis=1)

    def forward_logits(self, x, training: bool = False, rng: Prng | None = None) -> np.ndarray:
        fused = self._fused(self._checked(x), training, rng)
        return self.dense.forward(self.dropout.forward(fused, training=training, rng=rng))

    def inference_logits(self, x) -> np.ndarray:
        """Logits with dropout disabled, the branches run over cache-sized chunks.

        Each chunk holds about `_CHUNK_BYTES` of input, so a conv's padded
        input and taps stay near the cache instead of spanning the whole set.
        The branches treat every image alone, so their features do not depend
        on the chunk size; the head runs once over all of them, because a
        one-row chunk would take the BLAS matrix-vector path in `Dense` and
        round differently.
        """
        x = self._checked(x)
        # an empty set still makes one (empty) pass, so its logits are (0, K)
        chunk, starts = _chunk_starts(x)
        fused = [self._fused(x[i : i + chunk], False, None) for i in starts]
        return self.dense.forward(self.dropout.forward(np.concatenate(fused)))

    def train_step(self, x, labels, rng: Prng) -> tuple[float, np.ndarray | None]:
        """Gradients of the mean loss over x, dropout on, summed over micro-batches.

        Zeroes the parameter gradients, then runs forward, loss gradient and
        backward on each chunk of `inference_logits`'s size in turn, so the
        layers' caches and taps stay near the cache; the layers add each
        chunk's parameter gradients to the last. A chunk's logit gradient is
        (p - onehot) / n with n the rows of x, and dropout draws the stream in
        row order, so a step differs from one whole-batch pass only in
        rounding: the order in which gradients are summed, and the BLAS
        matrix-vector path `Dense` takes on a one-row chunk. A batch that
        fits one chunk is bit-identical to that pass. Returns the whole
        batch's mean loss and probabilities, computed over all chunks' logits
        at once. The first non-finite chunk loss is returned as it is, with no
        probabilities and no later chunk run.
        """
        x = self._checked(x)
        chunk, starts = _chunk_starts(x)
        self.zero_grads()
        logits = []
        for i in starts:
            part = self.forward_logits(x[i : i + chunk], training=True, rng=rng)
            loss, grad, _ = softmax_cross_entropy(part, labels[i : i + chunk], x.shape[0])
            if not np.isfinite(loss):
                return loss, None
            self.backward_from_logits(grad)
            logits.append(part)
        loss, _, probs = softmax_cross_entropy(np.concatenate(logits), labels)
        return loss, probs

    def backward_from_logits(self, grad_logits: np.ndarray) -> None:
        """Accumulate every parameter gradient; the input gradient is not computed."""
        grad = self.dense.backward(grad_logits.astype(self.dtype, copy=False))
        grad = self.dropout.backward(grad)
        ga, gb = grad[:, : self._split], grad[:, self._split :]
        for layer in reversed(self.branch_a):
            ga = layer.backward(ga)
        for layer in reversed(self.branch_b):
            gb = layer.backward(gb)

    def forward(self, x) -> np.ndarray:
        """Class probabilities with dropout disabled."""
        return softmax(self.inference_logits(x))


def build_deepbrainnet_mini(input_size: int, n_classes: int, seed: int = 0,
                            dropout_rate: float = 0.3, base_channels: int = 8,
                            dtype=np.float64) -> Network:
    """Construct the two-branch classifier with seeded Kaiming initialization.

    Branch A: stride-2 stem convolution then two residual blocks.
    Branch B: stride-2 ds block then a second stride-2 ds block doubling the
    channel count. Both end in global average pooling; the head sees
    base_channels + 2*base_channels fused features. The two convolutions that
    read the input compute no input gradient. The weights are drawn in
    float64 and stored in `dtype`, which every layer then computes in.
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
    # nothing reads the gradient of the network input
    branch_a[0].input_grad = False
    branch_b[0].depthwise.input_grad = False
    dropout = Dropout(dropout_rate)
    dense = Dense(3 * c, n_classes, rng=rng)
    network = Network(branch_a, branch_b, dropout, dense, n_classes, input_size, base_channels)
    for layer in network.iter_layers():
        if layer.params:
            layer._register(layer.w.astype(dtype), layer.b.astype(dtype))
    return network


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise float64 probabilities of logits, each row shifted by its maximum first."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, batch_size: int | None = None):
    """Mean cross-entropy over the rows plus its gradient w.r.t. the logits, in float64.

    The gradient is divided by `batch_size`, by default the number of rows; a
    micro-batch passes the size of its whole batch, so its gradient rows are
    those of the whole batch.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    with np.errstate(divide="ignore"):
        loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / (n if batch_size is None else batch_size), probs


def predict(network: Network, images) -> np.ndarray:
    """Probability matrix (n, K); deterministic, rows sum to 1."""
    return network.forward(images)


def gradient_check(network: Network, sample, epsilon: float = 1e-5) -> float:
    """Worst mismatch between analytic and central-finite-difference gradients.

    Checks every parameter of every layer. The reported figure is
    |numeric - analytic| / max(|numeric| + |analytic|, 1e-5); the absolute
    floor keeps round-off on near-zero gradients from registering as relative
    error. Dropout is disabled throughout.
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
        for i in range(flat.size):
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
