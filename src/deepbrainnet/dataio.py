"""Image I/O, dataset manifests, deterministic splits, and synthetic data.

Only Netpbm PGM files are read and written (P5 binary and P2 ASCII, maxval up
to 255). Datasets are plain directories with one subdirectory per class;
manifests are derived by scanning and exported as CSV. Conversion from other
formats is left to external tools.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass
from pathlib import PurePath

import numpy as np

from . import parallel
from .rng import Prng, derive_seed


class PgmError(ValueError):
    """A PGM file could not be decoded; the message names the byte offset."""


class MalformedHeaderError(PgmError):
    pass


class UnsupportedMaxvalError(PgmError):
    pass


class TruncatedPayloadError(PgmError):
    pass


class DatasetError(ValueError):
    """A dataset directory violates the expected class-per-directory layout."""


class GrayImage:
    """8-bit single-channel raster stored row-major as a uint8 (height, width) array.

    Instances are treated as immutable after construction; the pixel buffer is
    copied in and marked read-only.
    """

    __slots__ = ("width", "height", "data")

    def __init__(self, width: int, height: int, data):
        width = int(width)
        height = int(height)
        if width < 1 or height < 1:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        arr = np.asarray(data)
        if arr.size != width * height:
            raise ValueError(f"data length {arr.size} != width*height = {width * height}")
        if arr.dtype != np.uint8:
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = np.array(arr, dtype=np.uint8, copy=True).reshape(height, width)
        arr.flags.writeable = False
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GrayImage is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GrayImage)
            and self.width == other.width
            and self.height == other.height
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"

    def tobytes(self) -> bytes:
        return self.data.tobytes()


# ---------------------------------------------------------------------------
# PGM reading / writing
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"
_IS_WHITESPACE = np.isin(np.arange(256), np.frombuffer(_WHITESPACE, dtype=np.uint8))
# The Netpbm token grammar: whitespace and '#' comments (up to the next line
# break) separate tokens. No quantifier nests, so any header matches in linear time.
_COMMENT = re.compile(rb"#[^\r\n]*")
_TOKEN = re.compile(rb"(?:[%s]|%s)*([^%s#]*)" % (
    re.escape(_WHITESPACE), _COMMENT.pattern, re.escape(_WHITESPACE)))


def _next_token(blob: bytes, pos: int) -> tuple[bytes, int, int]:
    """Next header token, skipping whitespace and '#' comments.

    Returns (token, token_start_offset, offset_past_token).
    """
    match = _TOKEN.match(blob, pos)
    if not match[1]:
        raise MalformedHeaderError(f"unexpected end of header at byte {match.start(1)}")
    return match[1], match.start(1), match.end(1)


def _header_int(blob: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, end = _next_token(blob, pos)
    if not token.isdigit():
        raise MalformedHeaderError(f"non-numeric {what} {token!r} at byte {start}")
    return int(token), start, end


def _p2_samples(blob: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The first `count` ASCII samples after byte `pos`, read as `_header_int` would
    read them one at a time: whitespace-separated tokens, where a '#' outside a
    comment starts one that runs to the next line break."""
    raster = blob[pos:]
    if b"#" in raster:  # blank each comment, keeping every offset
        raster = _COMMENT.sub(lambda m: b" " * len(m[0]), raster)
    raw = np.frombuffer(raster, dtype=np.uint8)
    space = _IS_WHITESPACE[raw]
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    starts, ends = edges[0::2][:count], edges[1::2][:count]  # token k is raw[starts[k]:ends[k]]
    # prefix sums count a token's non-digit bytes and its digits above '0'
    non_digit = np.concatenate(([0], np.cumsum((raw < ord("0")) | (raw > ord("9")))))
    above_zero = np.concatenate(([0], np.cumsum(raw > ord("0"))))
    numeric = non_digit[ends] == non_digit[starts]
    values = np.zeros(len(starts), dtype=np.int64)
    for place in (3, 2, 1):  # the last three digits; a nonzero one before them makes >= 1000
        at = ends - place
        values = values * 10 + np.where(at >= starts, raw[np.maximum(at, starts)].astype(np.int64) - ord("0"), 0)
    over = (above_zero[np.maximum(ends - 3, starts)] > above_zero[starts]) | (values > maxval)
    bad = ~numeric | over
    if len(starts) == count and not bad.any():
        return values.astype(np.uint8)
    i = int(np.argmax(bad)) if bad.any() else len(starts)  # the first sample the loop would reject
    if i == len(starts):
        raise TruncatedPayloadError(
            f"raster needs {count} samples, got {i}: unexpected end of header at byte {len(blob)}")
    token, start = blob[pos + starts[i] : pos + ends[i]], pos + int(starts[i])
    if not numeric[i]:
        raise TruncatedPayloadError(
            f"raster needs {count} samples, got {i}: non-numeric sample {token!r} at byte {start}")
    raise PgmError(f"sample {int(token)} exceeds maxval {maxval} at byte {start}")


def load_pgm(path) -> GrayImage:
    """Decode a PGM (P5 binary or P2 ASCII) file with maxval <= 255.

    Pixel values are taken verbatim; no maxval rescaling is applied. Raises
    MalformedHeaderError, UnsupportedMaxvalError, or TruncatedPayloadError
    with the offending byte offset in the message.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, start, pos = _next_token(blob, 0)
    if magic not in (b"P5", b"P2"):
        raise MalformedHeaderError(f"unsupported magic {magic!r} at byte {start}")
    width, wstart, pos = _header_int(blob, pos, "width")
    if width == 0:
        raise MalformedHeaderError(f"zero width at byte {wstart}")
    height, hstart, pos = _header_int(blob, pos, "height")
    if height == 0:
        raise MalformedHeaderError(f"zero height at byte {hstart}")
    maxval, mstart, pos = _header_int(blob, pos, "maxval")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} > 255 at byte {mstart}")
    if maxval == 0:
        raise MalformedHeaderError(f"zero maxval at byte {mstart}")
    count = width * height

    if magic == b"P5":
        if pos >= len(blob) or blob[pos : pos + 1] not in _WHITESPACE:
            raise MalformedHeaderError(f"missing raster separator at byte {pos}")
        pos += 1  # exactly one whitespace byte before the raster
        raster = blob[pos : pos + count]
        if len(raster) < count:
            raise TruncatedPayloadError(
                f"raster needs {count} bytes, file holds {len(raster)}"
            )
        data = np.frombuffer(raster, dtype=np.uint8)
        over = np.flatnonzero(data > maxval)
        if over.size:
            i = int(over[0])
            raise PgmError(f"sample {data[i]} exceeds maxval {maxval} at byte {pos + i}")
    else:
        # every sample needs a separator and a digit; check before allocating
        if len(blob) - pos < 2 * count:
            raise TruncatedPayloadError(
                f"raster needs {count} samples, at least {2 * count} bytes after byte {pos}; "
                f"file ends at byte {len(blob)}"
            )
        data = _p2_samples(blob, pos, count, maxval)
    return GrayImage(width, height, data)


def save_pgm(image: GrayImage, path) -> None:
    """Write a binary P5 file with maxval 255; load_pgm round-trips it exactly."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    write_atomic(path, header + image.tobytes())


def write_atomic(path, data: str | bytes) -> None:
    """Write `data` (str as UTF-8) to `<path>.tmp`, then rename it onto `path`.

    An interrupted write leaves the old file or the new one, never a part of
    either. The parent directory must exist. No fsync: this guards against a
    killed process, not against power loss.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp_path = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    """Scanned class-per-directory dataset: relative paths plus class indices.

    `entries` is sorted by path (plain codepoint comparison, locale
    independent); `class_names` is the sorted list of class directory names.
    """

    root: str
    entries: tuple[tuple[str, int], ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        k = len(self.class_names)
        if k < 2:
            raise DatasetError(f"need at least 2 classes, got {k}")
        paths = sorted(p for p, _ in self.entries)
        if len(set(paths)) != len(paths):
            raise DatasetError(f"duplicate path {next(a for a, b in zip(paths, paths[1:]) if a == b)!r}")
        for path, idx in self.entries:
            if not 0 <= idx < k:
                raise DatasetError(f"class index {idx} out of range for {path}")

    def __len__(self):
        return len(self.entries)

    def full_path(self, rel_path: str) -> str:
        return os.path.join(self.root, rel_path)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def scan_dataset(root_dir) -> DatasetManifest:
    """Build a manifest from root/<class>/<image>.pgm, classes sorted by name."""
    root_dir = os.fspath(root_dir)
    if not os.path.isdir(root_dir):
        raise DatasetError(f"dataset root {root_dir!r} is not a directory")
    class_names = sorted(
        name for name in os.listdir(root_dir) if os.path.isdir(os.path.join(root_dir, name))
    )
    if len(class_names) < 2:
        raise DatasetError(f"need at least 2 class directories under {root_dir!r}, got {len(class_names)}")
    entries = []
    for idx, name in enumerate(class_names):
        files = sorted(
            f for f in os.listdir(os.path.join(root_dir, name)) if f.endswith(".pgm")
        )
        if not files:
            raise DatasetError(f"class directory {name!r} contains no .pgm files")
        entries.extend((f"{name}/{f}", idx) for f in files)
    entries.sort(key=lambda e: e[0])
    for rel_path, _ in entries:  # later stages write paths into CSVs unquoted
        if any(ch in rel_path for ch in ",\n\r"):
            raise DatasetError(f"dataset path {rel_path!r} contains a comma or line break")
    return DatasetManifest(root_dir, tuple(entries), tuple(class_names))


def split_manifest(
    manifest: DatasetManifest, spec: SplitSpec
) -> tuple[DatasetManifest, DatasetManifest]:
    """Stratified deterministic split into (train, val) manifests.

    Each class is shuffled with its own xorshift64* stream derived from
    (seed, class index); the first round(fraction * n) entries (clamped so
    both sides stay nonempty) go to train. Entries in both outputs keep the
    sorted-by-path manifest order.
    """
    per_class: dict[int, list[tuple[str, int]]] = {}
    for entry in manifest.entries:
        per_class.setdefault(entry[1], []).append(entry)
    train_entries: list[tuple[str, int]] = []
    val_entries: list[tuple[str, int]] = []
    for idx in range(len(manifest.class_names)):
        group = per_class.get(idx, [])
        n = len(group)
        if n < 2:
            raise DatasetError(
                f"class {manifest.class_names[idx]!r} has {n} entries; need >= 2 to stratify"
            )
        rng = Prng(derive_seed(spec.seed, idx))
        shuffled = list(group)
        rng.shuffle(shuffled)
        n_train = int(np.floor(spec.train_fraction * n + 0.5))
        n_train = min(max(n_train, 1), n - 1)
        train_entries.extend(shuffled[:n_train])
        val_entries.extend(shuffled[n_train:])
    train_entries.sort(key=lambda e: e[0])
    val_entries.sort(key=lambda e: e[0])
    return (
        DatasetManifest(manifest.root, tuple(train_entries), manifest.class_names),
        DatasetManifest(manifest.root, tuple(val_entries), manifest.class_names),
    )


def manifest_to_csv(manifest: DatasetManifest, path) -> None:
    """Export as CSV with header path,class_index,class_name (LF endings, UTF-8)."""
    lines = ["path,class_index,class_name"]
    for rel_path, idx in manifest.entries:
        lines.append(f"{rel_path},{idx},{manifest.class_names[idx]}")
    write_atomic(path, "\n".join(lines) + "\n")


def manifest_from_csv(path, root: str) -> DatasetManifest:
    """Read a manifest whose paths are relative to `root` and stay below it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(number, line.rstrip("\n")) for number, line in enumerate(fh, 1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise DatasetError(f"cannot decode manifest {path!r}: {exc}") from exc
    if not lines or lines[0][1] != "path,class_index,class_name":
        raise DatasetError(f"bad manifest header in {path!r}")
    entries = []
    names: dict[int, str] = {}
    for number, line in lines[1:]:
        fields = line.split(",", 2)
        if len(fields) < 3:
            raise DatasetError(f"manifest {path!r} line {number} has {len(fields)} of the 3 fields "
                               "path,class_index,class_name")
        rel_path, idx_s, name = fields
        rel = PurePath(rel_path)
        if rel.anchor or ".." in rel.parts:
            raise DatasetError(f"manifest {path!r} lists {rel_path!r}, which leaves its root")
        if not rel_path.endswith(".pgm"):  # later stages name their outputs by the stem before it
            raise DatasetError(f"manifest {path!r} line {number} lists {rel_path!r}, not a .pgm file")
        try:
            idx = int(idx_s)
        except ValueError:
            raise DatasetError(f"manifest {path!r} line {number} has the class index {idx_s!r}, "
                               "not an integer") from None
        entries.append((rel_path, idx))
        if names.setdefault(idx, name) != name:
            raise DatasetError(f"manifest {path!r} line {number} names class {idx} {name!r}, not {names[idx]!r}")
    class_names = tuple(names[i] for i in sorted(names))
    try:
        return DatasetManifest(root, tuple(sorted(entries)), class_names)
    except DatasetError as exc:
        raise DatasetError(f"manifest {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

SYNTHETIC_CLASSES = ("blank", "blob", "ring", "stripe")


def _texture(class_name: str, size: int, rng: Prng) -> GrayImage:
    """One noisy image: pixels in the class's bright region draw lo + below(span),
    the others below(background). The geometry is drawn first, then every
    pixel in row-major order."""
    ys, xs = np.mgrid[0:size, 0:size]
    if class_name == "blank":
        inside, lo, span, background = np.zeros((size, size), dtype=bool), 0, 1, 61
    elif class_name == "stripe":
        period = max(4, size // 8)
        phase = rng.below(period)
        inside = (xs + phase) % period < period // 2
        lo, span, background = 200, 56, 31
    else:  # blob and ring share a center/radius jitter scheme
        jitter = size // 8
        cx = size / 2 + rng.below(2 * jitter + 1) - jitter
        cy = size / 2 + rng.below(2 * jitter + 1) - jitter
        if class_name == "blob":
            radius = size / 4 + rng.below(size // 8 + 1) - size // 16
            r2_outer, r2_inner = radius * radius, -1.0
            lo, span = 170, 71
        else:  # ring
            outer = size / 3 + rng.below(size // 8 + 1) - size // 16
            inner = 0.55 * outer
            r2_outer, r2_inner = outer * outer, inner * inner
            lo, span = 120, 61
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        inside = (r2_inner < d2) & (d2 <= r2_outer)
        background = 31
    draws = rng.belows(np.where(inside, span, background)).astype(np.int64)
    return GrayImage(size, size, np.where(inside, lo, 0) + draws)


def generate_synthetic_dataset(
    root_dir, n_per_class: int, image_size: int, seed: int
) -> DatasetManifest:
    """Write a 4-class textured PGM dataset under root_dir; return its manifest.

    Classes (blank noise, bright blob, bright ring, vertical stripes) occupy
    distinct intensity bands and spatial patterns, so a small classifier can
    separate them. Identical seeds give bit-identical files: each image is
    drawn from its own stream, one job per image on `parallel.map_on_workers`.
    The manifest
    lists the files written by this call only, in `scan_dataset` order, so
    files an earlier run left under root_dir are not counted as its output.
    """
    if n_per_class < 2:
        raise ValueError(f"n_per_class must be >= 2, got {n_per_class}")
    if image_size < 16:
        raise ValueError(f"image_size must be >= 16, got {image_size}")
    root_dir = os.fspath(root_dir)
    for name in SYNTHETIC_CLASSES:
        os.makedirs(os.path.join(root_dir, name), exist_ok=True)

    def write(_, job: tuple[int, int]) -> tuple[str, int]:
        class_idx, i = job
        name = SYNTHETIC_CLASSES[class_idx]
        rel = f"{name}/{name}_{i:03d}.pgm"
        rng = Prng(derive_seed(seed, class_idx, i))
        save_pgm(_texture(name, image_size, rng), os.path.join(root_dir, rel))
        return rel, class_idx

    jobs = [(class_idx, i) for class_idx in range(len(SYNTHETIC_CLASSES)) for i in range(n_per_class)]
    entries = parallel.map_on_workers(write, jobs, item_pixels=image_size * image_size)
    return DatasetManifest(root_dir, tuple(sorted(entries)), SYNTHETIC_CLASSES)
