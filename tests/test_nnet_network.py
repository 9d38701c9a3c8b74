import hashlib
import json
import math
import os
import runpy
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deepbrainnet import cli, parallel
from deepbrainnet.nnet import (
    CheckpointError,
    LayerSpec,
    build_deepbrainnet_mini,
    gradient_check,
    load_checkpoint,
    param_count,
    predict,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
)
from deepbrainnet.nnet import layers as layers_module
from deepbrainnet.nnet import network as network_module
from deepbrainnet.rng import Prng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer, _instrument_network  # noqa: E402


def sample_batch(rng, n, size):
    x = np.array([rng.uniform_in(0.0, 1.0) for _ in range(n * 3 * size * size)])
    return x.reshape(n, 3, size, size)


def test_forward_rows_are_probability_vectors():
    net = build_deepbrainnet_mini(16, 4, seed=1, dropout_rate=0.0, base_channels=4)
    x = sample_batch(Prng(2), 5, 16)
    probs = predict(net, x)
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
    total = sum(p.size for p in net.parameters())
    assert total == expected == net.flat_params.size
    assert total < 100_000


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


def test_predict_of_an_empty_batch_is_an_empty_matrix():
    net = build_deepbrainnet_mini(16, 4, seed=11, base_channels=4)
    assert predict(net, np.zeros((0, 3, 16, 16))).shape == (0, 4)


CHUNK_224 = network_module._chunk_starts(np.empty((0, 3, 224, 224)), np.float64)[0]  # images per branch pass


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_chunk_is_one_image_at_224_px_and_a_whole_batch_of_32_at_32_px(dtype):
    """The L2-sized chunk plan. At 32 px a batch of 32 stays one pass, which keeps
    32 px training (the desk workload, the pinned 32 px weights) bit-identical to
    whole-batch steps."""
    chunk, starts = network_module._chunk_starts(np.empty((3, 3, 224, 224)), dtype)
    assert (chunk, list(starts)) == (1, [0, 1, 2])
    chunk, starts = network_module._chunk_starts(np.empty((32, 3, 32, 32)), dtype)
    assert chunk >= 32 and list(starts) == [0]


def test_chunked_predict_equals_one_whole_forward_at_224_px():
    """Chunked inference gives the whole-batch probabilities bit for bit.

    The branches treat each image alone, so chunking them changes no bit. The
    head must still run once over the whole set: on a one-row chunk `Dense`
    takes the BLAS matrix-vector path, which rounds differently (by up to
    2.2e-16) from the matrix-matrix product of a larger batch.
    """
    net = build_deepbrainnet_mini(224, 4, seed=31)
    for n in sorted({1, 2, CHUNK_224 + 1}):  # the last leaves a one-image tail chunk
        x = Prng(32 + n).uniforms((n, 3, 224, 224))
        whole = softmax(net.forward_logits(x))
        assert np.array_equal(predict(net, x), whole), n


def _record_stem_batches(net):
    sizes = []
    forward = net.branch_a[0].forward

    def recording(x, *args, **kwargs):
        sizes.append(x.shape[0])
        return forward(x, *args, **kwargs)

    net.branch_a[0].forward = recording
    return sizes


def test_predict_runs_the_branches_in_cache_sized_chunks():
    assert CHUNK_224 >= 1
    net = build_deepbrainnet_mini(224, 4, seed=33)
    sizes = _record_stem_batches(net)
    n = 2 * CHUNK_224 + 1
    predict(net, Prng(34).uniforms((n, 3, 224, 224)))
    assert max(sizes) <= CHUNK_224 and sum(sizes) == n, sizes

    net = build_deepbrainnet_mini(32, 4, seed=35)
    sizes = _record_stem_batches(net)
    predict(net, Prng(36).uniforms((40, 3, 32, 32)))  # the desk workload's validation set
    assert sizes == [40]


def pin_workers(monkeypatch, workers):
    """Run the chunks on `workers` threads whatever this machine's CPU count."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: workers)


def _peak_bytes(run) -> int:
    """Peak traced allocation of run(), over every thread."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_predict_holds_under_half_the_memory_of_a_whole_forward(monkeypatch):
    """With one worker and with four (each holding one chunk's working set)."""
    net = build_deepbrainnet_mini(224, 4, seed=37)
    x = Prng(38).uniforms((24, 3, 224, 224))
    whole = _peak_bytes(lambda: net.forward_logits(x))
    for workers in (1, 4):
        pin_workers(monkeypatch, workers)
        chunked = _peak_bytes(lambda: predict(net, x))
        assert chunked < whole / 2, (workers, chunked, whole)


def _uint8_view(seed, n, size):
    """(n, 3, size, size) uint8 pixel values whose channels view one plane, as the CLI feeds them."""
    planes = Prng(seed).belows(np.full((n, size, size), 256)).astype(np.uint8)
    return np.broadcast_to(planes[:, None], (n, 3, size, size))


def test_a_uint8_batch_is_chunked_as_the_floats_it_becomes():
    """Chunks are sized by the network's dtype, not the input's: a uint8 batch at
    224 px still runs one image per chunk, and one of 32 at 32 px one chunk."""
    for size, n, expected in ((224, 3, [1, 1, 1]), (32, 32, [32])):
        net = build_deepbrainnet_mini(size, 4, seed=39, dtype=np.float32)
        x = _uint8_view(40, n, size)
        sizes = _record_stem_batches(net)
        predict(net, x)
        net.train_step(x, np.arange(n) % 4, Prng(41))
        assert sizes == expected + expected, (size, sizes)


def test_uint8_predict_holds_nothing_per_image_beyond_its_chunk(monkeypatch):
    """Each chunk becomes floats where it runs and leaves only its pooled features,
    so the traced peak of 24 images at 224 px is within 64 KiB of that of 4."""
    pin_workers(monkeypatch, 1)
    net = build_deepbrainnet_mini(224, 4, seed=42, dtype=np.float32)
    few, many = _uint8_view(43, 4, 224), _uint8_view(44, 24, 224)
    for x in (few, many):  # the first passes allocate the layers' caches
        predict(net, x)
    peaks = [_peak_bytes(lambda x=x: predict(net, x)) for x in (few, many)]
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


def test_an_inference_replica_keeps_no_backward_caches(monkeypatch):
    """The replicas that `predict` runs its chunks on hold no conv planes, ReLU masks
    or Dense inputs after their chunks; training replicas hold none once their
    chunks' backward passes have read them."""
    pin_workers(monkeypatch, 2)
    replicas = []
    make = network_module.Network._replica

    def recording(self, *args, **kwargs):
        replicas.append(make(self, *args, **kwargs))
        return replicas[-1]

    monkeypatch.setattr(network_module.Network, "_replica", recording)
    net = build_deepbrainnet_mini(224, 4, seed=45, dtype=np.float32)
    x = _uint8_view(46, 4, 224)
    predict(net, x)
    assert len(replicas) == 2
    for replica in replicas:
        for layer in replica.iter_layers():
            assert getattr(layer, "_cache", None) is None and getattr(layer, "_mask", None) is None
    replicas.clear()
    net.train_step(x, np.arange(4) % 4, Prng(47))
    assert len(replicas) == 2
    for replica in replicas:
        for layer in replica.iter_layers():
            assert getattr(layer, "_cache", None) is None and getattr(layer, "_mask", None) is None


def test_a_train_step_peaks_where_its_forward_does(monkeypatch):
    """Backward drops each cache as it reads it, and its transients fit in what the
    forward freed: a one-image 224 px step peaks within 256 KiB of that image's
    forward with caches on."""
    pin_workers(monkeypatch, 1)
    net = build_deepbrainnet_mini(224, 4, seed=51, dtype=np.float32)
    x, labels = _uint8_view(52, 1, 224), np.array([2])
    uniforms = Prng(53).uniforms((1, net.dense.features_in))
    forward = _peak_bytes(lambda: net.forward_logits(x, uniforms))
    step = _peak_bytes(lambda: net.train_step(x, labels, Prng(54)))
    assert step - forward < 256 * 1024, (step, forward)


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the CLI sets allocator thresholds on glibc only")
def test_train_steps_reuse_their_pages_once_the_cli_has_set_the_heap_thresholds(monkeypatch):
    """With the thresholds `cli.main` sets, ten warm 32 px batch-32 steps take their
    activations from memory the earlier steps freed: fewer than 1,000 minor page
    faults, where glibc's defaults hand those pages back and fault in about 10,000."""
    import resource

    pin_workers(monkeypatch, 1)
    cli._keep_freed_heap()
    net = build_deepbrainnet_mini(32, 4, seed=55, dtype=np.float32)
    x, labels = _uint8_view(56, 32, 32), np.arange(32) % 4
    rng = Prng(57)
    for _ in range(3):
        net.train_step(x, labels, rng)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        net.train_step(x, labels, rng)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults


LIBRARY_CALLER = """
import ctypes
lookups = []

class Recording(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            lookups.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Recording
import numpy as np
import deepbrainnet
import deepbrainnet.cli
from deepbrainnet.nnet import build_deepbrainnet_mini, predict

predict(build_deepbrainnet_mini(16, 4), np.zeros((2, 3, 16, 16)))
library = len(lookups)
deepbrainnet.cli.main(["report-demo"])
print(library, len(lookups) - library)
"""


def test_a_library_caller_keeps_its_allocator():
    """Importing deepbrainnet, and its CLI module, and predicting never reach mallopt;
    only `cli.main` does, on glibc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", LIBRARY_CALLER], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    library, cli_main = map(int, done.stdout.split()[-2:])
    assert (library, cli_main) == (0, 1 if _on_glibc() else 0), done.stdout


@pytest.mark.parametrize("size", [32, 224])
def test_one_worker_leaves_no_caches_on_the_network(monkeypatch, size):
    """On one CPU the chunks also run on a replica, so neither `predict` (one chunk at
    32 px, one per image at 224 px) nor `train_step` leaves conv planes or ReLU and
    dropout masks on the network's own layers."""
    pin_workers(monkeypatch, 1)
    net = build_deepbrainnet_mini(size, 4, seed=48, dtype=np.float32)
    x = _uint8_view(49, 2, size)
    for run in (lambda: predict(net, x), lambda: net.train_step(x, np.arange(2) % 4, Prng(50))):
        run()
        for layer in net.iter_layers():
            assert getattr(layer, "_cache", None) is None and getattr(layer, "_mask", None) is None


def _whole_batch_step(net, x, labels, rng):
    """One training step without micro-batches: the reference for `train_step`."""
    net.zero_grads()
    uniforms = rng.uniforms((x.shape[0], net.dense.features_in))
    loss, grad, probs = softmax_cross_entropy(net.forward_logits(x, uniforms), labels)
    net.backward_from_logits(grad)
    return loss, probs


def test_micro_batched_step_matches_the_whole_batch_step_at_224_px():
    """Summed micro-batch gradients equal one whole-batch pass up to summation order.

    A batch of chunk + 1 images ends in a one-row micro-batch (at 224 px every
    chunk is one image), on which `Dense` takes the BLAS matrix-vector path;
    that row's probabilities may round differently, while the first chunk's
    rows are bit-equal.
    """
    net = build_deepbrainnet_mini(224, 4, seed=51)
    n = CHUNK_224 + 1
    x = Prng(52).uniforms((n, 3, 224, 224))
    labels = np.arange(n) % 4
    whole_rng, micro_rng = Prng(53), Prng(53)
    whole_loss, whole_probs = _whole_batch_step(net, x, labels, whole_rng)
    whole_grads = [g.copy() for g in net.gradients()]
    loss, probs = net.train_step(x, labels, micro_rng)
    for (name, _, grad), reference in zip(net.named_parameters(), whole_grads):
        assert np.abs(grad - reference).max() <= 1e-12 * np.abs(reference).max(), name
    assert loss == pytest.approx(whole_loss, rel=1e-15, abs=0.0)
    assert np.array_equal(probs[:CHUNK_224], whole_probs[:CHUNK_224])
    assert np.abs(probs - whole_probs).max() <= 1e-15
    assert micro_rng.next_u64() == whole_rng.next_u64()  # dropout drew the same stream


def test_a_one_chunk_train_step_is_forward_logits_on_the_batch_uniforms():
    """A batch that fits one chunk: `train_step` gives the loss, probabilities and
    gradients of `forward_logits(x, uniforms)` on the batch's one draw, bit for bit."""
    net = build_deepbrainnet_mini(32, 4, seed=96)
    x = Prng(97).uniforms((6, 3, 32, 32))
    labels = np.arange(6) % 4
    assert len(network_module._chunk_starts(x, net.dtype)[1]) == 1
    whole_loss, whole_probs = _whole_batch_step(net, x, labels, Prng(98))
    whole_grads = [g.copy() for g in net.gradients()]
    loss, probs = net.train_step(x, labels, Prng(98))
    assert loss == whole_loss and np.array_equal(probs, whole_probs)
    for (name, _, grad), reference in zip(net.named_parameters(), whole_grads, strict=True):
        assert np.array_equal(grad, reference), name


def test_micro_batched_step_holds_under_three_quarters_of_the_whole_step_memory(monkeypatch):
    """With one worker and with four (each holding one chunk's working set)."""
    net = build_deepbrainnet_mini(224, 4, seed=61)
    x = Prng(62).uniforms((12, 3, 224, 224))  # the paper workload's batch
    labels = np.arange(12) % 4
    whole = _peak_bytes(lambda: _whole_batch_step(net, x, labels, Prng(63)))
    for workers in (1, 4):
        pin_workers(monkeypatch, workers)
        micro = _peak_bytes(lambda: net.train_step(x, labels, Prng(63)))
        assert micro < 0.75 * whole, (workers, micro, whole)


def _outcomes(net, x, labels, seed):
    """predict's rows, then train_step's loss, probabilities, gradients and next draw."""
    probs = predict(net, x)
    rng = Prng(seed)
    loss, step_probs = net.train_step(x, labels, rng)
    return [probs, loss, step_probs, *(g.copy() for g in net.gradients()), rng.next_u64()]


def _one_pass_gradients(net, x, labels, seed):
    """Gradients of one pass over the chunks in turn, each chunk's backward adding into
    the layers' buffers and dropout drawing per chunk: the reference summation order."""
    chunk, starts = network_module._chunk_starts(x, net.dtype)
    rng = Prng(seed)
    net.zero_grads()
    for i in starts:
        rows = x[i : i + chunk]
        part = net.forward_logits(rows, rng.uniforms((rows.shape[0], net.dense.features_in)))
        _, grad, _ = softmax_cross_entropy(part, labels[i : i + chunk], x.shape[0])
        net.backward_from_logits(grad)
    return [g.copy() for g in net.gradients()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_and_train_step_are_bit_identical_for_any_worker_count(monkeypatch, dtype):
    """Each chunk runs alone on some worker's replica, and its gradients are added in
    chunk order, so the worker count changes no bit and leaves no thread behind; the
    gradients are those of one pass over the chunks."""
    net = build_deepbrainnet_mini(224, 4, seed=81, dtype=dtype)
    threads = threading.active_count()
    for n in (1, 2, 3, 5, 12):
        x = Prng(82 + n).uniforms((n, 3, 224, 224)).astype(dtype)
        labels = np.arange(n) % 4
        runs = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            runs.append(_outcomes(net, x, labels, 83))
            assert threading.active_count() == threads, (n, workers)
        for workers, run in zip((2, 3), runs[1:]):
            for k, (serial, parallel) in enumerate(zip(runs[0], run)):
                assert np.array_equal(serial, parallel), (n, workers, k)
        gradients = runs[0][3:-1]
        for k, (g, reference) in enumerate(zip(gradients, _one_pass_gradients(net, x, labels, 83),
                                                strict=True)):
            assert np.array_equal(g, reference), (n, k)


def test_many_workers_on_few_cores_still_run_each_chunk_once(monkeypatch):
    """Eight workers take 40 one-image chunks under a 1 us switch interval, so the
    shared chunk counter is contended; a chunk run twice or skipped would change
    the summed gradients. The call runs in a thread joined with a timeout."""
    net = build_deepbrainnet_mini(16, 4, seed=84, base_channels=4)
    x = Prng(85).uniforms((40, 3, 16, 16))
    labels = np.arange(40) % 4
    monkeypatch.setattr(network_module, "_CHUNK_BYTES", x[0].nbytes)
    pin_workers(monkeypatch, 1)
    serial = _outcomes(net, x, labels, 86)
    pin_workers(monkeypatch, 8)
    parallel = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: parallel.extend(_outcomes(net, x, labels, 86)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(parallel) == len(serial)
    for k, (a, b) in enumerate(zip(serial, parallel)):
        assert np.array_equal(a, b), k


def test_a_replica_shares_the_parameters_and_owns_its_gradients_but_no_caches():
    """Its parameters view the network's buffer and its gradients a buffer of its own;
    its stem still hands its planes to its own branch B depthwise conv."""
    net = build_deepbrainnet_mini(224, 4, seed=87, dtype=np.float32)
    uniforms = Prng(89).uniforms((1, net.dense.features_in))
    net.forward_logits(Prng(88).uniforms((1, 3, 224, 224)), uniforms)  # fills caches
    replica = net._replica()
    assert np.shares_memory(replica.flat_params, net.flat_params)
    assert not np.shares_memory(replica.flat_grads, net.flat_grads)
    for (name, p, g), (_, rp, rg) in zip(net.named_parameters(), replica.named_parameters(), strict=True):
        assert np.shares_memory(rp, p) and rp.shape == p.shape, name
        assert np.shares_memory(rg, replica.flat_grads) and not np.shares_memory(rg, net.flat_grads), name
    _assert_wired(replica)
    assert _holds_no_caches(replica)
    assert net.branch_a[0]._cache is not None and net.dropout._mask is not None


def _assert_wired(net):
    """The constructor's wiring: neither input convolution computes an input gradient,
    and the stem hands its planes to the network's own branch B depthwise conv."""
    assert net.branch_a[0].input_grad is False and net.branch_b[0].depthwise.input_grad is False
    assert net.branch_a[0]._planes_to == (net.branch_b[0].depthwise,)


def _no_kaiming(*args):
    raise AssertionError("drew Kaiming weights")


def _holds_no_caches(net) -> bool:
    return all(getattr(layer, name, None) is None
               for layer in net.iter_layers() for name in ("_cache", "_mask", "_handed"))


def test_replicas_draw_no_weights_and_return_the_bits_of_one_worker(monkeypatch):
    """A replica is built without an rng and then views the network's parameters, so with
    Kaiming draws made to fail, `predict` and `train_step` still run on two workers and
    give the rows, loss, probabilities and gradients of a one-worker run."""
    _one_image_chunks(monkeypatch, 32)
    pin_workers(monkeypatch, 1)
    x, labels = _uint8_view(98, 5, 32), np.arange(5) % 4
    reference = _outcomes(build_deepbrainnet_mini(32, 4, seed=97, dtype=np.float32), x, labels, 99)
    net = build_deepbrainnet_mini(32, 4, seed=97, dtype=np.float32)
    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(layers_module, "_kaiming", _no_kaiming)
    _assert_wired(net._replica())
    for k, (a, b) in enumerate(zip(_outcomes(net, x, labels, 99), reference, strict=True)):
        assert np.array_equal(a, b), k
    assert [len(net._replicas[keep]) for keep in (False, True)] == [2, 2]


def _one_image_chunks(monkeypatch, size):
    """Chunks of one float32 image at `size` px, on two workers."""
    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(network_module, "_CHUNK_BYTES", 3 * size * size * 4)


def test_a_second_call_reuses_the_kept_replicas_and_returns_the_same_bits(monkeypatch):
    """`predict` and `train_step` take the replicas the first call of each made, one per
    worker: the second calls make none and return the first calls' bits."""
    _one_image_chunks(monkeypatch, 32)
    made = []
    make = network_module.Network._replica

    def counting(self, *args, **kwargs):
        made.append(make(self, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(network_module.Network, "_replica", counting)
    net = build_deepbrainnet_mini(32, 4, seed=90, dtype=np.float32)
    x, labels = _uint8_view(91, 5, 32), np.arange(5) % 4
    first = _outcomes(net, x, labels, 92)
    assert len(made) == 4  # two workers, each with an inference and a training replica
    second = _outcomes(net, x, labels, 92)
    assert len(made) == 4
    assert sorted(map(id, made)) == sorted(id(r) for pool in net._replicas.values() for r in pool)
    for k, (a, b) in enumerate(zip(first, second, strict=True)):
        assert np.array_equal(a, b), k


def test_no_kept_replica_holds_a_cache_after_predict_train_step_or_a_non_finite_loss(monkeypatch):
    """A training replica whose chunk loss is not finite skips backward with its caches
    full, so the training replicas of that call are not kept; the next step makes new
    ones and gives the gradients of a network that never met the poisoned batch."""
    _one_image_chunks(monkeypatch, 32)
    net = build_deepbrainnet_mini(32, 4, seed=93, dtype=np.float32)
    x, labels = Prng(94).uniforms((4, 3, 32, 32)), np.arange(4) % 4
    reference = _outcomes(build_deepbrainnet_mini(32, 4, seed=93, dtype=np.float32), x, labels, 95)
    predict(net, x)
    net.train_step(x, labels, Prng(95))
    assert [len(net._replicas[keep]) for keep in (False, True)] == [2, 2]
    assert all(_holds_no_caches(r) for pool in net._replicas.values() for r in pool)
    poisoned = x.copy()
    poisoned[-1] = np.nan  # the last chunk: no later one clears its replica's caches
    with np.errstate(invalid="ignore"):
        loss, probs = net.train_step(poisoned, labels, Prng(95))
    assert not np.isfinite(loss) and probs is None
    assert all(_holds_no_caches(r) for pool in net._replicas.values() for r in pool)
    for k, (a, b) in enumerate(zip(_outcomes(net, x, labels, 95), reference, strict=True)):
        assert np.array_equal(a, b), k


def _in_threads(calls, timeout=120) -> list:
    """The results of calls, each run in its own thread at once."""
    results = [None] * len(calls)
    threads = [threading.Thread(target=lambda k=k: results.__setitem__(k, calls[k]()))
               for k in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive()
    return results


def test_two_threads_predicting_on_one_network_at_once_hold_two_replicas(monkeypatch):
    """Each call takes its replica before either runs a chunk, so they never share one,
    and each gets the rows a serial call gets. Then four threads predict three times
    each, on three workers apiece, under a 1 us switch interval: every call still gets
    the serial rows, and no replica is lost from the pool or kept in it twice."""
    pin_workers(monkeypatch, 1)
    net = build_deepbrainnet_mini(32, 4, seed=96, dtype=np.float32)
    xs = [_uint8_view(seed, 5, 32) for seed in (97, 98)]
    serial = [predict(net, x) for x in xs]
    real, barrier, held = parallel.map_on_workers, threading.Barrier(2, timeout=60), []

    def holding(run, items, make_worker):
        worker = make_worker()
        held.append(worker)
        barrier.wait()  # each call holds its replica until the other has taken one
        return real(run, items, lambda: worker)

    monkeypatch.setattr(parallel, "map_on_workers", holding)
    results = _in_threads([lambda x=x: predict(net, x) for x in xs])
    assert len(held) == 2 and held[0] is not held[1]
    for k in range(2):
        assert np.array_equal(results[k], serial[k]), k
    assert len(net._replicas[False]) == 2

    monkeypatch.setattr(parallel, "map_on_workers", real)
    _one_image_chunks(monkeypatch, 32)
    pin_workers(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _in_threads([lambda k=k: [predict(net, xs[k % 2]) for _ in range(3)] for k in range(4)])
    finally:
        sys.setswitchinterval(interval)
    for k, rows in enumerate(results):
        assert all(np.array_equal(r, serial[k % 2]) for r in rows), k
    idle = net._replicas[False]
    assert len({id(r) for r in idle}) == len(idle) >= 3


def test_train_step_draws_the_batch_dropout_uniforms_once(monkeypatch):
    """The whole batch's uniforms come from one draw, and chunk k's masks are its rows:
    bit for bit the masks of one draw per chunk, and the stream ends where one
    `uniforms((n, 3 * base_channels))` call leaves it."""
    pin_workers(monkeypatch, 1)
    n = 5
    net = build_deepbrainnet_mini(224, 4, seed=88, dtype=np.float32)
    masks = []
    forward = net.dropout.forward

    def recording(*args, **kwargs):
        out = forward(*args, **kwargs)
        masks.append(net.dropout._mask)
        return out

    net.dropout.forward = recording
    rng = Prng(89)
    net.train_step(Prng(90).uniforms((n, 3, 224, 224)), np.arange(n) % 4, rng)
    reference = Prng(89)
    chunk = network_module._chunk_starts(np.empty((n, 3, 224, 224)), np.float32)[0]
    assert len(masks) == -(-n // chunk)
    rate = net.dropout.rate
    for mask in masks:  # the draw the parent made per chunk
        keep = reference.uniforms(mask.shape) >= rate
        assert np.array_equal(mask, (keep / (1.0 - rate)).astype(np.float32))
    whole = Prng(89)
    whole.uniforms((n, 3 * net.base_channels))
    assert rng.next_u64() == reference.next_u64() == whole.next_u64()


def test_an_instrumented_network_runs_its_chunks_on_the_calling_thread(monkeypatch):
    """perfbench's layer wrappers are bound to the original layers, which a replica
    would share across threads: such a network runs its chunks serially, to the
    unwrapped network's gradients bit for bit, and every span is on one thread."""
    pin_workers(monkeypatch, 3)
    n = 3
    x = Prng(91).uniforms((n, 3, 224, 224)).astype(np.float32)
    labels = np.arange(n) % 4
    plain = build_deepbrainnet_mini(224, 4, seed=92, dtype=np.float32)
    tracer = Tracer()
    span, threads = tracer.span, set()

    def span_on_thread(name):
        threads.add(threading.get_ident())
        return span(name)

    tracer.span = span_on_thread
    wrapped = _instrument_network(tracer, build_deepbrainnet_mini(224, 4, seed=92, dtype=np.float32))
    expected = _outcomes(plain, x, labels, 93)
    for k, (a, b) in enumerate(zip(expected, _outcomes(wrapped, x, labels, 93))):
        assert np.array_equal(a, b), k
    assert threads == {threading.get_ident()}
    layers = len(wrapped.named_layers())
    # predict: the branches per one-image chunk, the head once; train_step: both passes
    # of every layer per chunk
    assert len(tracer.spans) == ((layers - 2) * n + 2) + 2 * layers * n


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_chunk_raises_its_own_exception_in_the_caller(monkeypatch, workers):
    pin_workers(monkeypatch, workers)
    net = build_deepbrainnet_mini(224, 4, seed=94, dtype=np.float32)
    threads = threading.active_count()
    x = np.zeros((3, 2, 224, 224), np.float32)
    with pytest.raises(ValueError, match="^expected 3 input channels, got 2$"):
        predict(net, x)
    with pytest.raises(ValueError, match="^expected 3 input channels, got 2$"):
        net.train_step(x, np.arange(3) % 4, Prng(95))
    assert threading.active_count() == threads


def test_full_network_gradient_check():
    net = build_deepbrainnet_mini(16, 4, seed=12, dropout_rate=0.0, base_channels=4)
    rng = Prng(13)
    for _ in range(50):  # redraw until pre-activations clear the relu kink
        x = sample_batch(rng, 2, 16) + 0.05
        if net.relu_kink_margin(x) > 1e-3:
            break
    labels = np.array([1, 3])
    worst = gradient_check(net, (x, labels))
    assert worst < 1e-4


def test_input_layers_return_no_input_gradient_and_the_same_parameter_gradients():
    net = build_deepbrainnet_mini(16, 4, seed=71, base_channels=4)
    x = Prng(72).uniforms((3, 3, 16, 16))
    _, dlogits, _ = softmax_cross_entropy(net.forward_logits(x), np.array([0, 1, 3]))
    stem, first_ds = net.branch_a[0], net.branch_b[0]

    def backward() -> list[np.ndarray]:
        net.zero_grads()
        net.forward_logits(x)
        assert net.backward_from_logits(dlogits) is None
        return [g.copy() for g in net.gradients()]

    for layer in (stem, first_ds):
        assert layer.backward(np.ones_like(layer.forward(x))) is None
    skipped = backward()
    stem.input_grad = first_ds.depthwise.input_grad = True
    for layer in (stem, first_ds):
        assert layer.backward(np.ones_like(layer.forward(x))).shape == x.shape
    for (name, _, _), without, with_input_grad in zip(net.named_parameters(), skipped, backward()):
        assert np.array_equal(without, with_input_grad), name


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
    _assert_wired(loaded)


def test_a_loaded_network_draws_no_weights_and_holds_the_saved_ones(tmp_path, monkeypatch):
    """Loading builds the network without an rng and fills it from the payload: with
    Kaiming draws made to fail it still returns the saved float32 parameters."""
    net = build_deepbrainnet_mini(32, 4, seed=26, dtype=np.float32)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    monkeypatch.setattr(layers_module, "_kaiming", _no_kaiming)
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float32 and np.array_equal(loaded.flat_params, net.flat_params)
    assert not loaded.flat_grads.any()


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


def test_chunk_sweep_tool_times_each_chunk_size_and_restores_the_budget(capsys):
    """tools/chunk_sweep.py (benchmark helper) reports both timings per chunk size."""
    tool = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "chunk_sweep.py"))
    budget = network_module._CHUNK_BYTES
    argv = ["--size", "16", "--chunks", "1,3", "--predict", "3", "--batch", "2", "--rounds", "1"]
    assert tool["main"](argv) == 0
    report = json.loads(capsys.readouterr().out)
    for chunk in ("1", "3"):
        assert report[chunk]["predict_s"] > 0.0 and report[chunk]["train_step_s"] > 0.0
    assert network_module._CHUNK_BYTES == budget


END_TO_END_METRICS = ("pipeline_s", "setup_s", "peak_rss_mb", "output_mb")


@pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_committed_bench_file_records_machine_and_runs(path):
    """Each BENCH_<topic>.json names its machine and parent and keeps every run's figures."""
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"cpu_count", "numpy", "blas"} <= set(bench["machine"])
    assert bench["parent_commit"]
    workloads = {name: w for name, w in bench["end_to_end"].items() if name != "command"}
    assert workloads
    for name, workload in workloads.items():
        for metric in END_TO_END_METRICS:
            parent, change = workload[metric]["parent"]["runs"], workload[metric]["change"]["runs"]
            assert isinstance(parent, list) and isinstance(change, list), (name, metric)
            assert len(parent) == len(change) > 0, (name, metric)
