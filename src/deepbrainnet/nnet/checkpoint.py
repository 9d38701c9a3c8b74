"""Flat binary checkpoints for the mini network.

Layout (all integers little-endian):

    bytes 0..7    magic b"DBNMINI\\0"
    u32           format version (1)
    u32           input size
    u32           class count
    u32           base channel count
    f32           dropout rate
    u32           number of parameter arrays
    per array:    kind code u8, ndim u8, then ndim u32 dimensions
    then          every parameter as f32, flattened C-order, in declaration order

The file holds exactly the float32 model that `train` computed with, and
loading constructs a float32 network from the header values and fills its
parameters from the payload, so a reloaded model predicts as the one that
was saved. A float64 network is rounded to float32 when saved.
Loading rejects a parameter value that is NaN or infinite. A sidecar CSV
(same path + ".layers.csv") lists layer names, kinds, parameter names, and
shapes for inspection.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..dataio import write_atomic
from .network import Network

MAGIC = b"DBNMINI\x00"
VERSION = 1

# kinds of the named layers that own parameters; the numbers are on disk
_KIND_CODES = {
    "conv2d": 1,
    "dense": 4,
    "ds_block": 5,
    "residual_block": 6,
}


class CheckpointError(ValueError):
    pass


def _param_records(network: Network):
    """(layer name, kind, param name, array) in declaration order."""
    return [
        (name, layer.kind, pname, param)
        for name, layer in network.named_layers()
        for pname, param, _ in layer.named_parameters()
    ]


def save_checkpoint(network: Network, path) -> None:
    records = _param_records(network)
    header = bytearray()
    header += MAGIC
    header += struct.pack(
        "<IIIIfI",
        VERSION,
        network.input_size,
        network.n_classes,
        network.base_channels,
        network.dropout.rate,
        len(records),
    )
    for _, kind, _, param in records:
        header += struct.pack("<BB", _KIND_CODES[kind], param.ndim)
        header += struct.pack(f"<{param.ndim}I", *param.shape)
    write_atomic(path, bytes(header) + network.flat_params.astype("<f4").tobytes())

    lines = ["index,layer,kind,param,shape"]
    for i, (name, kind, pname, param) in enumerate(records):
        shape = "x".join(str(d) for d in param.shape)
        lines.append(f"{i},{name},{kind},{pname},{shape}")
    write_atomic(f"{path}.layers.csv", "\n".join(lines) + "\n")


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"bad magic in {path!r}")
    pos = 8

    def take(size: int, what: str) -> int:
        """Claim the next `size` bytes; return their offset."""
        nonlocal pos
        if pos + size > len(blob):
            raise CheckpointError(
                f"truncated checkpoint {path!r}: {what} needs bytes {pos}..{pos + size}, "
                f"file has {len(blob)}"
            )
        pos += size
        return pos - size

    version, input_size, n_classes, base_channels, dropout_rate, n_arrays = struct.unpack_from(
        "<IIIIfI", blob, take(struct.calcsize("<IIIIfI"), "header")
    )
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} in {path!r}")

    shapes = []
    for _ in range(n_arrays):
        kind_code, ndim = struct.unpack_from("<BB", blob, take(2, "shape table"))
        dims = struct.unpack_from(f"<{ndim}I", blob, take(4 * ndim, "shape table"))
        shapes.append((kind_code, dims))
    # the header sizes the network, so it must agree with the table (the first
    # array is the stem weight, the last the dense bias) and the table with the
    # file length before anything is built
    if not shapes or shapes[0][1][:1] != (base_channels,) or shapes[-1][1] != (n_classes,):
        raise CheckpointError(
            f"header of {path!r} ({n_classes} classes, {base_channels} base channels) "
            "disagrees with its shape table"
        )
    payload = take(4 * sum(math.prod(dims) for _, dims in shapes), "payload")
    if pos != len(blob):
        raise CheckpointError(f"{len(blob) - pos} trailing bytes in {path!r}")

    try:
        network = Network(input_size, n_classes, base_channels, dropout_rate, np.float32)
    except ValueError as exc:  # a header value the network cannot take
        raise CheckpointError(f"bad header in {path!r}: {exc}") from exc
    records = _param_records(network)
    if len(records) != n_arrays:
        raise CheckpointError(
            f"checkpoint {path!r} lists {n_arrays} parameter arrays, network has {len(records)}"
        )
    for (name, kind, pname, param), (kind_code, dims) in zip(records, shapes):
        if _KIND_CODES[kind] != kind_code or tuple(param.shape) != dims:
            raise CheckpointError(
                f"layer table mismatch in {path!r} at {name}.{pname}: "
                f"expected {kind}{tuple(param.shape)}, found code {kind_code} dims {dims}"
            )
    network.flat_params[...] = np.frombuffer(blob, "<f4", network.flat_params.size, payload)
    for name, _, pname, param in records:
        if not np.isfinite(param).all():
            raise CheckpointError(f"non-finite value in {name}.{pname} of {path!r}")
    return network
