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

from .. import parallel
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

# Input bytes, in the network's dtype, that inference sends through the
# branches, and a training step through the whole network, at once: sized so
# that a chunk's conv planes, tap products and outputs stay in a core's L2
# cache. That is one image at 224 px in either dtype, 6 float32 images at
# 112 px, and 85 float32 or 42 float64 images at 32 px, so a batch of 32 is one
# chunk there.
_CHUNK_BYTES = 1 << 20


def _chunk_starts(x: np.ndarray, dtype) -> tuple[int, range]:
    """Images per chunk of x computed in `dtype` (not x's own: a uint8 input is
    sized as the floats it becomes), and the chunks' first rows; an empty x has
    one chunk."""
    chunk = max(1, _CHUNK_BYTES // (np.dtype(dtype).itemsize * math.prod(x.shape[1:])))
    return chunk, range(0, max(x.shape[0], 1), chunk)


class Network(Layer):
    """Branch lists, fusion by feature concatenation, and the classifier head.

    Its children are the named layers, so `named_parameters()` yields names
    such as `branch_a.2.conv1.weight` and `head.dense.bias`, in the order of
    the flat buffers `flat_params` and `flat_grads` that they view (`_bind`).
    Branch A's pooled features are the first `base_channels` of the fused ones.

    Inputs are (N, 3, H, W) tensors. A uint8 tensor holds pixel values: each
    chunk becomes `np.divide(chunk, 255.0, dtype=self.dtype)` where it runs,
    so no float copy of the whole input is ever made. Any other dtype is taken
    as it is and cast to `self.dtype`, also one chunk at a time.
    """

    kind = "network"

    def __init__(self, input_size: int, n_classes: int, base_channels: int, dropout_rate: float,
                 dtype, rng: Prng | None = None):
        """The two-branch classifier, its weights drawn from `rng` or zeros without one.

        Branch A: stride-2 stem convolution then two residual blocks.
        Branch B: stride-2 ds block then a second stride-2 ds block doubling the
        channel count. Both end in global average pooling; the head sees
        base_channels + 2*base_channels fused features. The two convolutions that
        read the input compute no input gradient, and the stem hands its phase
        planes of the input to branch B's depthwise stage. The weights are drawn
        in float64 and stored in `dtype`, which every layer then computes in.
        """
        if input_size < 16:
            raise ValueError(f"input_size must be >= 16 for the stride plan, got {input_size}")
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        if base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {base_channels}")
        c = base_channels
        self.branch_a: list[Layer] = [
            Conv2d(3, c, kernel=3, stride=2, padding=1, rng=rng),
            ReLU(),
            ResidualBlock(c, kernel=3, rng=rng),
            ResidualBlock(c, kernel=3, rng=rng),
            GlobalAvgPool(),
        ]
        self.branch_b: list[Layer] = [
            DsBlock(3, c, kernel=3, stride=2, padding=1, rng=rng),
            DsBlock(c, 2 * c, kernel=3, stride=2, padding=1, rng=rng),
            GlobalAvgPool(),
        ]
        # nothing reads the gradient of the network input, which the two read alike
        self.branch_a[0].input_grad = False
        self.branch_b[0].depthwise.input_grad = False
        self.branch_a[0].share_planes_with(self.branch_b[0].depthwise)
        self.dropout = Dropout(dropout_rate)
        self.dense = Dense(3 * c, n_classes, rng=rng)
        self.n_classes = n_classes
        self.input_size = input_size
        self.base_channels = base_channels
        self._replicas = {True: [], False: []}  # idle replicas by `keep_caches` (`_map_chunks`)
        params = np.concatenate([p.ravel() for p in self.parameters()]).astype(dtype)
        self._bind(params, np.zeros_like(params))

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
        return self.flat_params.dtype

    def _bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Make `params` and `grads` the flat buffers, and each layer's w, b, dw and db
        their views at its offset, in `named_parameters()` order."""
        self.flat_params, self.flat_grads = params, grads
        offset = 0
        for layer in self.iter_layers():
            for name in ("w", "b") if layer.w is not None else ():
                old = getattr(layer, name)
                setattr(layer, name, params[offset : offset + old.size].reshape(old.shape))
                setattr(layer, "d" + name, grads[offset : offset + old.size].reshape(old.shape))
                offset += old.size

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

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
            self.forward_logits(x)
        finally:
            for relu in relus:
                del relu._margins
        return min(margins)

    # -- forward / backward -------------------------------------------------

    def _checked(self, x) -> np.ndarray:
        """x as a 4-D array of the input size, in its own dtype (see `_input`)."""
        x = as_tensor4(x)
        if x.shape[2] != self.input_size or x.shape[3] != self.input_size:
            raise ValueError(
                f"expected {self.input_size}x{self.input_size} inputs, got {x.shape[2]}x{x.shape[3]}"
            )
        return x

    def _input(self, x: np.ndarray) -> np.ndarray:
        """A checked chunk in `self.dtype`: uint8 pixel values divided by 255, any
        other dtype cast. A chunk whose channels view one plane (channel stride 0)
        converts that plane once and stays a one-plane view."""
        one_plane = x.strides[1] == 0
        source = x[:, :1] if one_plane else x
        if source.dtype == np.uint8:
            source = np.divide(source, 255.0, dtype=self.dtype)
        else:
            source = source.astype(self.dtype, copy=False)
        return np.broadcast_to(source, x.shape) if one_plane else source

    def _fused(self, x: np.ndarray) -> np.ndarray:
        """Both branches' pooled features of x, concatenated.

        The stem runs first and branch B right after it: branch B's first
        depthwise stage reads the stem's phase planes of x (`share_planes_with`)
        while the stem's output is the only other activation alive, so a pass
        that keeps no caches holds those planes only through the two
        convolutions that read them. The rest of branch A runs last.
        """
        fa = self.branch_a[0].forward(x)
        fb = x
        for layer in self.branch_b:
            fb = layer.forward(fb)
        for layer in self.branch_a[1:]:
            fa = layer.forward(fa)
        return np.concatenate([fa, fb], axis=1)

    def forward_logits(self, x, uniforms: np.ndarray | None = None) -> np.ndarray:
        """Logits of x in one pass; dropout is on with `uniforms`, one per fused feature."""
        fused = self._fused(self._input(self._checked(x)))
        return self.dense.forward(self.dropout.forward(fused, uniforms))

    def _instrumented(self) -> bool:
        """Whether a layer's forward or backward is an instance attribute: a timing or
        recording wrapper bound to this network's layers, which a replica, a fresh
        tree, does not carry."""
        return any("forward" in vars(layer) or "backward" in vars(layer)
                   for layer in self.iter_layers())

    def _replica(self, keep_caches: bool = True) -> Network:
        """A fresh network of this one's shape that views its parameter buffer and owns
        its gradient buffer and caches.

        It is built by the constructor, so it holds none of this network's caches,
        idle replicas or layer wrappers. Without `keep_caches` the replica's layers
        keep nothing for a backward pass, which only inference may then run on it.
        """
        replica = Network(self.input_size, self.n_classes, self.base_channels, self.dropout.rate,
                          self.dtype)
        replica._bind(self.flat_params, replica.flat_grads)
        if not keep_caches:
            for layer in replica.iter_layers():
                layer._keep_caches = False
        return replica

    def _map_chunks(self, run, starts: range, keep_caches: bool = True) -> list:
        """[run(network, i) for i in starts], the chunks spread over worker threads.

        Each worker of `parallel.map_on_workers` (one worker runs in the calling
        thread) runs its chunks on its own replica with `keep_caches`, taken from
        this network's idle ones (or made) and put back once every chunk has run.
        Only wrappers on the layers make the chunks run on this network: a replica
        is a fresh tree that does not carry them.
        """
        if self._instrumented():
            return [run(self, i) for i in starts]
        idle, taken = self._replicas[keep_caches], []

        def take() -> Network:
            try:
                taken.append(idle.pop())  # atomic: concurrent calls never share a replica
            except IndexError:
                taken.append(self._replica(keep_caches))
            return taken[-1]

        results = parallel.map_on_workers(run, starts, take)
        idle.extend(taken)
        return results

    def inference_logits(self, x) -> np.ndarray:
        """Logits with dropout disabled, the branches run over cache-sized chunks.

        Each chunk holds about `_CHUNK_BYTES` of input in the network's dtype
        (one image at 224 px), so a conv's padded input, taps and output stay
        in L2 instead of spanning the whole set; the chunks run on one worker
        per available CPU (`_map_chunks`), on replicas that keep no backward
        caches, and each becomes floats there (`_input`), so no per-image
        array outlives its chunk. The branches treat every image alone, so their
        features do not depend on the chunk size or on the worker that ran
        them; the head runs once over all of them, because a one-row chunk
        would take the BLAS matrix-vector path in `Dense` and round
        differently.
        """
        x = self._checked(x)
        # an empty set still makes one (empty) pass, so its logits are (0, K)
        chunk, starts = _chunk_starts(x, self.dtype)
        fused = self._map_chunks(lambda net, i: net._fused(net._input(x[i : i + chunk])), starts,
                                 keep_caches=False)
        logits = self.dense.forward(self.dropout.forward(np.concatenate(fused)))
        self.dense._cache = None  # no backward follows inference
        return logits

    def train_step(self, x, labels, rng: Prng) -> tuple[float, np.ndarray | None]:
        """Gradients of the mean loss over x, dropout on, summed over micro-batches.

        Draws the whole batch's dropout uniforms from `rng` at once (none when
        the rate is 0), then runs forward, loss gradient and backward on each
        chunk of `inference_logits`'s size (one image at 224 px, a whole batch
        of 32 at 32 px), so the layers' caches and taps stay in L2; the chunks
        run on one worker per available CPU (`_map_chunks`). Each chunk starts
        from zeroed gradients, and the chunks' gradients are then added into
        zeroed parameter gradients in chunk order, the order in which the
        layers would add them in one pass over the chunks, so the result does
        not depend on the worker count. A chunk's logit gradient is
        (p - onehot) / n with n the rows of x, and row r takes row r of the
        uniforms, so a step differs from one whole-batch pass only in
        rounding: the order in which gradients are summed, and the BLAS
        matrix-vector path `Dense` takes on a one-row chunk. A batch that fits
        one chunk is bit-identical to that pass. Returns the whole batch's mean
        loss and probabilities, computed over all chunks' logits at once. The
        first non-finite chunk loss in chunk order is returned as it is, with
        no probabilities; later chunks may have run, and the parameter
        gradients then hold the sum of the chunks before it.
        """
        x = self._checked(x)
        n = x.shape[0]
        chunk, starts = _chunk_starts(x, self.dtype)
        # one draw per batch, in row order: the workers never share the stream
        uniforms = rng.uniforms((n, self.dense.features_in)) if self.dropout.rate else None

        def step(net: Network, i: int):
            rows = slice(i, i + chunk)
            part = net.forward_logits(x[rows], None if uniforms is None else uniforms[rows])
            loss, grad, _ = softmax_cross_entropy(part, labels[rows], n)
            if not np.isfinite(loss):
                return part, loss, None
            net.zero_grads()
            net.backward_from_logits(grad)
            return part, loss, net.flat_grads.copy()

        results = self._map_chunks(step, starts)
        self.zero_grads()
        for _, loss, grads in results:
            if grads is None:
                self._replicas[True].clear()  # a replica that skipped backward holds its caches
                return loss, None
            self.flat_grads += grads
        loss, _, probs = softmax_cross_entropy(np.concatenate([part for part, _, _ in results]), labels)
        return loss, probs

    def backward_from_logits(self, grad_logits: np.ndarray) -> None:
        """Accumulate every parameter gradient; the input gradient is not computed.

        Each layer drops its caches as its backward reads them. Branch B, the
        smaller, runs first, so that branch A's larger backward transients meet
        none of branch B's caches; the branches share no parameter, so the order
        changes no gradient.
        """
        grad = self.dense.backward(grad_logits.astype(self.dtype, copy=False))
        grad = self.dropout.backward(grad)
        ga, gb = grad[:, : self.base_channels], grad[:, self.base_channels :]
        for layer in reversed(self.branch_b):
            gb = layer.backward(gb)
        for layer in reversed(self.branch_a):
            ga = layer.backward(ga)


def build_deepbrainnet_mini(input_size: int, n_classes: int, seed: int = 0,
                            dropout_rate: float = 0.3, base_channels: int = 8,
                            dtype=np.float64) -> Network:
    """The mini network (`Network`) with Kaiming-normal weights drawn from `seed`."""
    return Network(input_size, n_classes, base_channels, dropout_rate, dtype,
                   Prng(derive_seed(seed, 0xBEEF)))


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
    """Probability matrix (n, K) of `inference_logits`; deterministic, rows sum to 1."""
    return softmax(network.inference_logits(images))


def gradient_check(network: Network, sample, epsilon: float = 1e-5) -> float:
    """Worst mismatch between analytic and central-finite-difference gradients.

    Checks every parameter of every layer. The reported figure is
    |numeric - analytic| / max(|numeric| + |analytic|, 1e-5); the absolute
    floor keeps round-off on near-zero gradients from registering as relative
    error. Dropout is disabled throughout.
    """
    x, labels = sample
    x = as_tensor4(x)
    params, grads = network.flat_params, network.flat_grads

    def loss_at(i: int, value) -> float:
        params[i] = value
        return softmax_cross_entropy(network.forward_logits(x), labels)[0]

    network.zero_grads()
    logits = network.forward_logits(x)
    _, dlogits, _ = softmax_cross_entropy(logits, labels)
    network.backward_from_logits(dlogits)

    worst = 0.0
    for i in range(params.size):
        original = params[i]
        numeric = (loss_at(i, original + epsilon) - loss_at(i, original - epsilon)) / (2.0 * epsilon)
        params[i] = original
        worst = max(worst, abs(numeric - grads[i]) / max(abs(numeric) + abs(grads[i]), 1e-5))
    return worst
