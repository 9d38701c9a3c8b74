import ast
import errno
import hashlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import deepbrainnet
from deepbrainnet import dataio
from deepbrainnet.dataio import (
    DatasetError,
    GrayImage,
    MalformedHeaderError,
    PgmError,
    SplitSpec,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    generate_synthetic_dataset,
    load_pgm,
    manifest_from_csv,
    manifest_to_csv,
    save_pgm,
    scan_dataset,
    split_manifest,
    write_atomic,
)
from deepbrainnet.rng import Prng, derive_seed


# ---------------------------------------------------------------------------
# PGM decode / encode
# ---------------------------------------------------------------------------


def test_p5_decode_is_identity(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7]))
    image = load_pgm(path)
    assert (image.width, image.height) == (2, 2)
    assert image.data.ravel().tolist() == [0, 255, 128, 7]


def test_p2_single_pixel(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 1 1 255 200")
    image = load_pgm(path)
    assert (image.width, image.height) == (1, 1)
    assert image.data[0, 0] == 200


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# comment line\n2 1 # trailing\n255\n" + bytes([9, 8]))
    image = load_pgm(path)
    assert image.data.ravel().tolist() == [9, 8]


@pytest.mark.parametrize("blob,message", [
    (b"P5 0 4 255 ", "zero width at byte 3"),
    (b"P5 4 0 255 ", "zero height at byte 5"),
], ids=["width", "height"])
def test_zero_dimension_is_rejected(tmp_path, blob, message):
    path = tmp_path / "a.pgm"
    path.write_bytes(blob)
    with pytest.raises(MalformedHeaderError, match=f"^{message}$"):
        load_pgm(path)


@pytest.mark.parametrize("blob", [b"P5 1 1 255", b"P5 1 1 255#\n\x07"], ids=["end of file", "comment"])
def test_p5_raster_needs_its_separator(tmp_path, blob):
    path = tmp_path / "a.pgm"
    path.write_bytes(blob)
    with pytest.raises(MalformedHeaderError, match="^missing raster separator at byte 10$"):
        load_pgm(path)


def test_large_maxval_is_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 2 2 65535 " + bytes(8))
    with pytest.raises(UnsupportedMaxvalError, match="65535"):
        load_pgm(path)


@pytest.mark.parametrize("blob", [
    b"P5\n2 2\n100\n" + bytes([7, 100, 200, 255]),
    b"P2 2 2 100 7 200 100 9",
    b"P2 2 2 100 7 0200 100 9",
], ids=["P5", "P2", "P2 leading zeros"])
def test_sample_above_maxval_is_rejected(tmp_path, blob):
    path = tmp_path / "a.pgm"
    path.write_bytes(blob)
    with pytest.raises(PgmError, match=r"^sample 200 exceeds maxval 100 at byte 13$"):
        load_pgm(path)


def test_truncated_raster_is_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(TruncatedPayloadError, match="4 bytes") as caught:
        load_pgm(path)
    assert str(caught.value).endswith("file holds 2")


@pytest.mark.parametrize("blob,message", [
    (b"P2 2 2 255 1 2 3", "raster needs 4 samples"),
    (b"P2 2 2 255 1 2 3    ", "raster needs 4 samples, got 3: unexpected end of header"),
    (b"P2 2 1 255 7#8 9\n", "raster needs 2 samples, got 1: unexpected end of header at byte 17$"),
    (b"P2 2 1 255 7 # 8\n 1x", "raster needs 2 samples, got 1: non-numeric sample b'1x' at byte 18$"),
], ids=["short file", "cut between samples", "cut by a comment", "non-numeric"])
def test_p2_truncated_samples(tmp_path, blob, message):
    path = tmp_path / "a.pgm"
    path.write_bytes(blob)
    with pytest.raises(TruncatedPayloadError, match=message):
        load_pgm(path)


def test_p2_huge_header_on_short_file_allocates_nothing(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 10000 10000 255 1 2 3")
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError, match="100000000 samples"):
            load_pgm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_p2_twin_of_a_224_px_p5_file_decodes_to_its_pixels(tmp_path):
    pixels = np.random.default_rng(3).integers(0, 256, (224, 224), dtype=np.uint8)
    p5 = tmp_path / "a.pgm"
    save_pgm(GrayImage(224, 224, pixels), p5)
    rows = [b" ".join(b"%d" % v for v in row) for row in pixels]
    rows[7] += b"# a comment 1 2 3"  # cut short at its line break, and no sample
    p2 = tmp_path / "b.pgm"
    p2.write_bytes(b"P2\n# made by hand\n224 224\n255\n" + b"\r\n\t".join(rows) + b"\n")
    assert load_pgm(p2) == load_pgm(p5)
    assert np.array_equal(load_pgm(p2).data, pixels)


def _next_token_byte_by_byte(blob, pos):
    """The header scanner as it was first written, one byte per loop pass."""
    n = len(blob)
    while pos < n:
        ch = blob[pos : pos + 1]
        if ch in b" \t\r\n\x0b\x0c":
            pos += 1
        elif ch == b"#":
            while pos < n and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeaderError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and blob[pos : pos + 1] not in b" \t\r\n\x0b\x0c#":
        pos += 1
    return blob[start:pos], start, pos


def _token_or_error(scan, blob, pos):
    try:
        return scan(blob, pos)
    except MalformedHeaderError as exc:
        return str(exc)


def test_header_tokens_are_read_as_the_byte_by_byte_scanner_read_them():
    """Random short blobs over whitespace, '#', letters and digits, each read from a random
    start: the pattern gives the scanner's token and offsets, or its error message."""
    rng = np.random.default_rng(32)
    alphabet = np.frombuffer(b" \t\r\n\x0b\x0c#ab12", dtype=np.uint8)
    lengths = rng.integers(0, 12, 100_000)
    letters = alphabet[rng.integers(0, len(alphabet), int(lengths.sum()))].tobytes()
    cuts = np.concatenate(([0], np.cumsum(lengths)))
    outcomes = set()
    for length, cut in zip(lengths.tolist(), cuts.tolist()):
        blob, pos = letters[cut : cut + length], int(rng.integers(0, length + 1))
        expected = _token_or_error(_next_token_byte_by_byte, blob, pos)
        assert _token_or_error(dataio._next_token, blob, pos) == expected, (blob, pos)
        outcomes.add(type(expected))
    assert outcomes == {tuple, str}


def _p2_samples_one_at_a_time(blob, pos, count, maxval):
    """The P2 decoder as it first read samples: one header token per sample."""
    values = np.empty(count, dtype=np.uint8)
    for i in range(count):
        try:
            token, vstart, pos = _next_token_byte_by_byte(blob, pos)
        except MalformedHeaderError as exc:
            raise TruncatedPayloadError(f"raster needs {count} samples, got {i}: {exc}") from None
        if not token.isdigit():
            raise TruncatedPayloadError(
                f"raster needs {count} samples, got {i}: non-numeric sample {token!r} at byte {vstart}")
        value = int(token)
        if value > maxval:
            raise PgmError(f"sample {value} exceeds maxval {maxval} at byte {vstart}")
        values[i] = value
    return values


def _decoded_or_error(decode, *args):
    try:
        return "pixels", decode(*args).tolist()
    except PgmError as exc:
        return type(exc).__name__, str(exc)


def test_p2_raster_decodes_as_one_sample_at_a_time_did():
    """Random rasters with every whitespace byte, comments anywhere (inside a token, holding
    '#', ended by CR or LF), leading zeros, long and foreign tokens, too few or too many
    samples: the array decoder gives the loop's pixels, or its error type and message."""
    rng = Prng(77)
    pick = lambda options: options[rng.below(len(options))]  # noqa: E731
    separators = [b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"  ", b"\r\n",
                  b"#c\n", b"# 1 #2\r", b"#\n\n", b" #x 9"]
    outcomes = set()
    for _ in range(600):
        count, maxval = 1 + rng.below(9), pick([1, 9, 100, 255])
        tokens = [pick([b"%d" % rng.below(maxval + 1)] * 12 + [
            b"00%d" % rng.below(maxval + 1), b"%d" % (maxval + 1 + rng.below(9000)),
            b"0000%d" % (maxval + 1), b"1a", b"x", b"-3", b"\xff", b"12#c\n"])
            for _ in range(max(0, count - 2 + rng.below(5)))]
        raster = b"".join(pick(separators) + token for token in tokens) + pick([b"", b" ", b"#end"])
        header = b"P2 %d 1 %d" % (count, maxval)
        blob = header + raster
        if len(raster) < 2 * count:  # load_pgm rejects these before decoding
            continue
        args = (blob, len(header), count, maxval)
        expected = _decoded_or_error(_p2_samples_one_at_a_time, *args)
        assert _decoded_or_error(dataio._p2_samples, *args) == expected, blob
        outcomes.add(expected[0])
    assert outcomes == {"pixels", "PgmError", "TruncatedPayloadError"}


def test_bad_magic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P6 1 1 255 abc")
    with pytest.raises(MalformedHeaderError, match="byte 0"):
        load_pgm(path)


def test_round_trip_random_rasters(tmp_path):
    rng = Prng(100)
    for case in range(30):
        w = 1 + rng.below(17)
        h = 1 + rng.below(17)
        data = np.array([rng.below(256) for _ in range(w * h)], dtype=np.uint8)
        image = GrayImage(w, h, data)
        path = tmp_path / f"r{case}.pgm"
        save_pgm(image, path)
        assert load_pgm(path) == image


def test_small_file_shape(tmp_path):
    path = tmp_path / "one.pgm"
    save_pgm(GrayImage(1, 1, [0]), path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5")
    assert len(blob) <= 15


def test_save_to_unwritable_directory(tmp_path):
    with pytest.raises(OSError):
        save_pgm(GrayImage(1, 1, [0]), tmp_path / "missing" / "a.pgm")


def _write_half_then_fail(real_open):
    def opener(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        real_write = fh.write

        def write(data):
            real_write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = write
        return fh

    return opener


def _interrupt(*_args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, failure):
    target = tmp_path / "a.csv"
    write_atomic(target, "old\n")
    if failure == "write":
        monkeypatch.setattr(dataio, "open", _write_half_then_fail(open), raising=False)
    else:
        monkeypatch.setattr(os, "replace", _interrupt)
    with pytest.raises((OSError, KeyboardInterrupt)):
        write_atomic(target, b"new contents " * 100)
    monkeypatch.undo()
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_write_atomic_replaces_and_encodes(tmp_path):
    target = tmp_path / "a.txt"
    write_atomic(target, b"\x00\xff")
    write_atomic(target, "caf\u00e9\n")
    assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["a.txt"]


# calls that write a file whatever their arguments, besides os.* and shutil.* file calls
_WRITING_CALLS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed",
                  "savetxt", "mkstemp", "NamedTemporaryFile", "TemporaryFile"}


def _opens_for_writing(call: ast.Call) -> bool:
    """True unless the call is known to leave the file system alone or only read."""
    func = call.func
    owner = getattr(func.value, "id", "") if isinstance(func, ast.Attribute) else ""
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in _WRITING_CALLS or owner == "shutil" or (name in ("open", "fdopen") and owner == "os"):
        return True
    if name != "open":
        return False
    # open(file, mode) and io.open(file, mode) take the mode second, Path.open(mode) first
    modes = call.args[1:2] if isinstance(func, ast.Name) or owner == "io" else call.args[:1]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str) and not set(m.value) & set("wax+"))
        for m in modes
    )


class _WriteFinder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.scope = [module]
        self.writers: set[str] = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if _opens_for_writing(node):
            self.writers.add(".".join(self.scope))
        self.generic_visit(node)


def test_write_atomic_is_the_only_file_writer():
    package = Path(deepbrainnet.__file__).parent
    writers = set()
    for path in sorted(package.rglob("*.py")):
        finder = _WriteFinder(".".join(path.relative_to(package).with_suffix("").parts))
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        writers |= finder.writers
    assert writers == {"dataio.write_atomic"}


def _referenced_names(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name in the tree."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def test_every_public_definition_has_a_non_test_caller():
    # callers: the package itself (outside __init__ re-exports and the definition's
    # own body), the benchmark harness, the tools and the acceptance suite
    repo = Path(__file__).resolve().parents[1]
    package = Path(deepbrainnet.__file__).parent
    defined, used = set(), set()
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.add(node.name)
            used |= names
    callers = [*(repo / "perfbench").rglob("*.py"), *(repo / "tools").rglob("*.py"),
               repo / "tests" / "test_acceptance.py"]
    for path in callers:
        used |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(defined - used)
    assert not unused, f"public names that only tests use: {unused}"


def test_gray_image_validates_bounds():
    with pytest.raises(ValueError):
        GrayImage(2, 2, [0, 1, 2])
    with pytest.raises(ValueError):
        GrayImage(0, 2, [])
    with pytest.raises(ValueError):
        GrayImage(1, 1, [300])


# ---------------------------------------------------------------------------
# Dataset scanning and splitting
# ---------------------------------------------------------------------------


def _make_tree(root, classes, per_class):
    for name in classes:
        os.makedirs(root / name, exist_ok=True)
        for i in range(per_class):
            save_pgm(GrayImage(4, 4, [i % 256] * 16), root / name / f"{name}_{i:03d}.pgm")


def test_scan_orders_classes_alphabetically(tmp_path):
    _make_tree(tmp_path, ["pituitary", "glioma", "notumor", "meningioma"], 2)
    manifest = scan_dataset(tmp_path)
    assert manifest.class_names == ("glioma", "meningioma", "notumor", "pituitary")
    assert [p for p, _ in manifest.entries] == sorted(p for p, _ in manifest.entries)


def test_scan_rejects_single_class(tmp_path):
    _make_tree(tmp_path, ["only"], 3)
    with pytest.raises(DatasetError):
        scan_dataset(tmp_path)


def test_scan_counts_entries(tmp_path):
    _make_tree(tmp_path, ["a", "b"], 3)
    assert len(scan_dataset(tmp_path)) == 6


def test_scan_rejects_empty_class(tmp_path):
    _make_tree(tmp_path, ["a", "b"], 2)
    os.makedirs(tmp_path / "c")
    with pytest.raises(DatasetError, match="'c'"):
        scan_dataset(tmp_path)


def test_split_fractions_are_exact(tmp_path):
    _make_tree(tmp_path, ["a", "b"], 100)
    manifest = scan_dataset(tmp_path)
    train, val = split_manifest(manifest, SplitSpec(0.8, seed=1))
    assert sorted(idx for _, idx in train.entries) == [0] * 80 + [1] * 80
    assert sorted(idx for _, idx in val.entries) == [0] * 20 + [1] * 20


def test_split_half_and_half(tmp_path):
    _make_tree(tmp_path, ["a", "b"], 10)
    train, val = split_manifest(scan_dataset(tmp_path), SplitSpec(0.5, seed=2))
    for part in (train, val):
        assert sorted(idx for _, idx in part.entries) == [0] * 5 + [1] * 5


def test_split_is_deterministic_and_a_partition(tmp_path):
    _make_tree(tmp_path, ["a", "b", "c"], 9)
    manifest = scan_dataset(tmp_path)
    spec = SplitSpec(0.7, seed=33)
    t1, v1 = split_manifest(manifest, spec)
    t2, v2 = split_manifest(manifest, spec)
    assert t1.entries == t2.entries and v1.entries == v2.entries
    together = sorted(t1.entries + v1.entries)
    assert together == sorted(manifest.entries)
    assert not set(p for p, _ in t1.entries) & set(p for p, _ in v1.entries)


def test_split_rejects_tiny_class(tmp_path):
    _make_tree(tmp_path, ["a", "b"], 2)
    os.makedirs(tmp_path / "c")
    save_pgm(GrayImage(4, 4, [0] * 16), tmp_path / "c" / "c_000.pgm")
    manifest = scan_dataset(tmp_path)
    with pytest.raises(DatasetError, match="'c'"):
        split_manifest(manifest, SplitSpec(0.8, seed=0))


def test_split_spec_validates_fraction():
    with pytest.raises(ValueError):
        SplitSpec(1.0, seed=0)


# ---------------------------------------------------------------------------
# Manifest CSV
# ---------------------------------------------------------------------------


def test_manifest_csv_round_trip(tmp_path):
    _make_tree(tmp_path / "data", ["x", "y"], 3)
    manifest = scan_dataset(tmp_path / "data")
    csv_path = tmp_path / "manifest.csv"
    manifest_to_csv(manifest, csv_path)
    text = csv_path.read_text(encoding="utf-8")
    assert text.startswith("path,class_index,class_name\n")
    assert "\r" not in text
    loaded = manifest_from_csv(csv_path, str(tmp_path / "data"))
    assert loaded.entries == manifest.entries
    assert loaded.class_names == manifest.class_names


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------


def test_synthetic_counts_and_classes(tmp_path):
    manifest = generate_synthetic_dataset(tmp_path, 10, 32, seed=7)
    assert len(manifest) == 40
    assert manifest.class_names == ("blank", "blob", "ring", "stripe")


def test_synthetic_is_bit_deterministic(tmp_path):
    m1 = generate_synthetic_dataset(tmp_path / "one", 3, 32, seed=9)
    m2 = generate_synthetic_dataset(tmp_path / "two", 3, 32, seed=9)
    for (p1, _), (p2, _) in zip(m1.entries, m2.entries):
        assert Path(m1.full_path(p1)).read_bytes() == Path(m2.full_path(p2)).read_bytes()


def test_synthetic_bytes_are_pinned(tmp_path):
    """One digest over the rows and PGM bytes of a paper-size dataset, measured
    before synth drew its pixels as array blocks, so any change to the
    generator, the stream or the PGM writer shows."""
    manifest = generate_synthetic_dataset(tmp_path, 2, 224, seed=11)
    digest = hashlib.sha256()
    for rel, label in manifest.entries:
        digest.update(f"{rel},{label}\n".encode())
        digest.update(Path(manifest.full_path(rel)).read_bytes())
    assert digest.hexdigest() == "1012b2200571bd4f4c18940a303ffc94ef51e07b49eaee9288ed04e12afc8732"


def reference_texture(class_name, size, rng):
    """Per-pixel loop form of dataio._texture: geometry first, then row-major draws."""
    pixels = np.zeros((size, size), dtype=np.uint8)
    if class_name == "blank":
        inside = lambda x, y: False  # noqa: E731
        lo = span = 0
        background = 61
    elif class_name == "stripe":
        period = max(4, size // 8)
        phase = rng.below(period)
        inside = lambda x, y: (x + phase) % period < period // 2  # noqa: E731
        lo, span, background = 200, 56, 31
    else:
        jitter = size // 8
        cx = size / 2 + rng.below(2 * jitter + 1) - jitter
        cy = size / 2 + rng.below(2 * jitter + 1) - jitter
        if class_name == "blob":
            radius = size / 4 + rng.below(size // 8 + 1) - size // 16
            r2_outer, r2_inner, lo, span = radius * radius, -1.0, 170, 71
        else:
            outer = size / 3 + rng.below(size // 8 + 1) - size // 16
            r2_outer, r2_inner, lo, span = outer * outer, (0.55 * outer) ** 2, 120, 61
        inside = lambda x, y: r2_inner < (x - cx) ** 2 + (y - cy) ** 2 <= r2_outer  # noqa: E731
        background = 31
    for y in range(size):
        for x in range(size):
            pixels[y, x] = lo + rng.below(span) if inside(x, y) else rng.below(background)
    return pixels


@pytest.mark.parametrize("size", [16, 37, 64])
def test_synthetic_texture_matches_pixel_loop(size):
    for class_idx, name in enumerate(dataio.SYNTHETIC_CLASSES):
        for i in range(3):
            seed = derive_seed(4, class_idx, i, size)
            image = dataio._texture(name, size, Prng(seed))
            assert np.array_equal(image.data, reference_texture(name, size, Prng(seed)))


def test_synthetic_validates_args(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic_dataset(tmp_path, 1, 32, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_dataset(tmp_path, 4, 8, seed=0)


def test_synthetic_class_histograms_differ(tmp_path):
    """Chi-square distance between class-mean histograms, computed after generation."""
    manifest = generate_synthetic_dataset(tmp_path, 10, 32, seed=5)
    histograms = {}
    for name in manifest.class_names:
        rasters = [
            load_pgm(manifest.full_path(p)).data.ravel()
            for p, idx in manifest.entries
            if manifest.class_names[idx] == name
        ]
        hist = np.zeros(256)
        for raster in rasters:
            hist += np.bincount(raster, minlength=256)
        histograms[name] = hist / hist.sum()
    names = list(histograms)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = histograms[names[i]], histograms[names[j]]
            mask = (a + b) > 0
            chi2 = float(((a - b) ** 2 / np.where(mask, a + b, 1))[mask].sum())
            assert chi2 > 0.1, f"{names[i]} vs {names[j]}: chi2={chi2}"
