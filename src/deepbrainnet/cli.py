"""Command-line pipeline: synth, preprocess, fcm, train, evaluate, report-demo.

Every command takes `--config <path>` (flat key = value file, see config.py)
plus targeted overrides (--seed, --epochs, --size). One global seed fans out
to per-stage streams via documented hashing, so each stage is independently
reproducible and identical configurations emit byte-identical CSV artifacts
and checkpoints.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__, parallel
from .config import ConfigError, RunConfig, parse_config
from .dataio import (
    DatasetError,
    DatasetManifest,
    GrayImage,
    PgmError,
    SplitSpec,
    generate_synthetic_dataset,
    load_pgm,
    manifest_from_csv,
    manifest_to_csv,
    save_pgm,
    scan_dataset,
    split_manifest,
    write_atomic,
)
from .fcm import fcm_segment, format_run_summary, save_matrix_csv
from .imaging import auto_crop_margins, box_blur, clahe, equalize_histogram, resize_bilinear
from .imaging import augment as augment_image
from .metrics import classification_report, confusion_svg, confusion_to_csv
from .metrics import report_to_csv, report_to_text, roc_curve, roc_svg, roc_to_csv
from .nnet import (
    NonFiniteLossError,
    build_deepbrainnet_mini,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .rng import derive_seed, stage_seed

# Published per-class reference metrics bundled for the aggregation demo
# (precision, recall, f1).
REFERENCE_CLASS_METRICS = (
    ("Glioma tumor", 0.914, 0.932, 0.923),
    ("Meningioma tumor", 0.819, 0.798, 0.808),
    ("No tumor", 0.946, 0.875, 0.909),
    ("Pituitary tumor", 0.868, 0.945, 0.905),
)


def reference_macro_metrics() -> dict:
    """Unweighted means over the bundled reference per-class metrics."""
    precisions = [row[1] for row in REFERENCE_CLASS_METRICS]
    recalls = [row[2] for row in REFERENCE_CLASS_METRICS]
    f1s = [row[3] for row in REFERENCE_CLASS_METRICS]
    return {
        "macro_precision": sum(precisions) / len(precisions),
        "macro_recall": sum(recalls) / len(recalls),
        "macro_f1": sum(f1s) / len(f1s),
    }


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _preprocessed_dir(config: RunConfig) -> str:
    return os.path.join(config.output_dir, "preprocessed")


def _fcm_dir(config: RunConfig) -> str:
    return os.path.join(config.output_dir, "fcm")


def _train_dir(config: RunConfig) -> str:
    return os.path.join(config.output_dir, "train")


def _eval_dir(config: RunConfig) -> str:
    return os.path.join(config.output_dir, "eval")


def _preprocessed_manifest(config: RunConfig) -> DatasetManifest:
    """The images the last preprocess run wrote, as listed in its manifest.csv."""
    root = _preprocessed_dir(config)
    path = os.path.join(root, "manifest.csv")
    if not os.path.isfile(path):
        raise DatasetError(f"no manifest at {path!r}; run the preprocess command first")
    return manifest_from_csv(path, root)


def _split(config: RunConfig, manifest: DatasetManifest):
    """(train, val) manifests and a SHA-256 over their entries, train's first."""
    spec = SplitSpec(config.train_fraction, stage_seed(config.seed, "split"))
    train_manifest, val_manifest = split_manifest(manifest, spec)
    digest = hashlib.sha256()
    for side, part in (("train", train_manifest), ("val", val_manifest)):
        for rel_path, class_index in part.entries:
            digest.update(f"{side},{rel_path},{class_index}\n".encode())
    return train_manifest, val_manifest, digest.hexdigest()


def _images_sha256(manifest: DatasetManifest) -> str:
    """SHA-256 over each image's path and bytes, in manifest order."""
    digest = hashlib.sha256()
    for rel_path, _ in manifest.entries:
        with open(manifest.full_path(rel_path), "rb") as fh:
            data = fh.read()
        digest.update(f"{rel_path},{len(data)}\n".encode() + data)
    return digest.hexdigest()


def _check_recorded(config: RunConfig, command: str, key: str, current, problem: str) -> None:
    """Raise if the command's run record holds a `key` line whose value is not `current()`.

    With no record or no such line (a checkpoint written by `save_checkpoint`
    alone, an fcm record older than `images_sha256`) there is nothing to
    compare, and the check passes. A value that is no SHA-256 digest means a damaged record.
    """
    path = os.path.join(config.output_dir, f"runrecord_{command}.txt")
    if not os.path.isfile(path):
        return
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = next((line.split(": ", 1)[1].strip() for line in fh if line.startswith(f"{key}: ")), None)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"cannot decode run record {path!r}: {exc}") from exc
    if recorded is not None and (len(recorded) != 64 or set(recorded) - set("0123456789abcdef")):
        raise DatasetError(f"run record {path!r} is damaged: its {key} is no SHA-256 digest; rerun {command}")
    if recorded is not None and recorded != current():
        raise DatasetError(f"{problem}; {path!r} records another {key}; rerun {command}")


def _check_masks(config: RunConfig, manifest: DatasetManifest) -> None:
    """With masks on, raise if fcm segmented other images than the preprocessed ones:
    its label maps were computed from an earlier preprocess run."""
    if config.fcm_mask_enabled:
        _check_recorded(config, "fcm", "images_sha256", lambda: _images_sha256(manifest),
                        "the preprocessed images differ from the ones fcm segmented "
                        "(preprocess ran again since fcm)")


def _fcm_path(config: RunConfig, rel_path: str, suffix: str) -> str:
    """`fcm/<stem>_<suffix>` of a manifest path, which ends in `.pgm`."""
    return os.path.join(_fcm_dir(config), f"{rel_path[:-4]}_{suffix}")


def _decoded(path: str):
    """The PGM at `path`; a decoding error names the file."""
    try:
        return load_pgm(path)
    except PgmError as exc:
        raise DatasetError(f"cannot decode PGM {path!r}: {exc}") from None


def _read_plane(path: str, size: int, what: str, remedy: str) -> np.ndarray:
    """The (size, size) pixels of the PGM at `path`; errors name the file."""
    image = _decoded(path)
    if (image.width, image.height) != (size, size):
        raise DatasetError(f"{what} {path!r} is {image.width}x{image.height}, not {size}x{size}; {remedy}")
    return image.data


def _to_tensor(planes: np.ndarray) -> np.ndarray:
    """(N, 3, H, W) uint8 of (N, H, W) gray planes: a read-only view whose three
    channels are one plane.

    The network reads uint8 as pixel values and turns each chunk into floats in
    [0, 1] where it runs, so neither the channels nor a float copy of the set
    are ever made: the view holds N * H * W bytes where three float32 copies
    held twelve times that (3.2 MB against 38.5 MB for 64 images at 224 px).
    """
    return np.broadcast_to(planes[:, None], (planes.shape[0], 3, *planes.shape[1:]))


def _load_tensors(config: RunConfig, manifest: DatasetManifest):
    """The (N, H, W) uint8 gray planes, their (N, 3, H, W) tensors and the labels."""
    size = config.image_size
    planes = np.empty((len(manifest), size, size), dtype=np.uint8)
    for k, (rel_path, _) in enumerate(manifest.entries):
        planes[k] = _read_plane(manifest.full_path(rel_path), size, "preprocessed image", "rerun preprocess")
        if config.fcm_mask_enabled:  # keep the pixels whose FCM label is not 0
            labels_file = _fcm_path(config, rel_path, "labels.pgm")
            if not os.path.exists(labels_file):
                raise DatasetError(f"fcm_mask_enabled but no label map at {labels_file!r}; "
                                   "run the fcm command first")
            planes[k] *= _read_plane(labels_file, size, "label map", "rerun fcm") != 0
    labels = np.array([idx for _, idx in manifest.entries], dtype=np.int64)
    return planes, _to_tensor(planes), labels


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_run_record(config: RunConfig, command: str, seconds: float, record: dict[str, str],
                      artifacts: list[str]) -> None:
    """Plain-text key: value record: the total seconds, the command's own lines, the
    config, and a digest per artifact."""
    lines = [f"command: {command}", f"tool_version: {__version__}", f"duration_s.total: {seconds:.3f}"]
    lines += [f"{key}: {value}" for key, value in record.items()]
    for line in config.to_text().splitlines():
        key, _, value = line.partition(" = ")
        lines.append(f"config.{key}: {value}")
    for path in sorted(artifacts):
        rel = os.path.relpath(path, config.output_dir)
        lines.append(f"artifact: {_sha256(path)}  {rel}")
    os.makedirs(config.output_dir, exist_ok=True)
    write_atomic(os.path.join(config.output_dir, f"runrecord_{command}.txt"), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands: each returns the artifacts it wrote and its own run-record
# lines; main times it and writes the run record
# ---------------------------------------------------------------------------


def cmd_synth(config: RunConfig) -> tuple[list[str], dict[str, str]]:
    manifest = generate_synthetic_dataset(
        config.dataset_root,
        config.synth_per_class,
        config.image_size,
        stage_seed(config.seed, "synth"),
    )
    artifacts = [manifest.full_path(rel) for rel, _ in manifest.entries]
    print(f"synth: wrote {len(manifest)} images across {len(manifest.class_names)} classes "
          f"under {config.dataset_root}")
    return artifacts, {}


def _enhance(config: RunConfig, image: GrayImage) -> GrayImage:
    for step in config.enhancement:
        if step == "blur":
            image = box_blur(image, config.blur_kernel, config.blur_kernel)
        elif step == "hist_eq":
            image = equalize_histogram(image)
        elif step == "clahe":
            image = clahe(image, config.clahe_params())
    return image


def _preprocess_one(config: RunConfig, manifest: DatasetManifest, rel_path: str) -> str | None:
    """Crop, resize, enhance and save one dataset image; its skip message, or None."""
    try:
        image = load_pgm(manifest.full_path(rel_path))
        cropped = auto_crop_margins(image, config.background_threshold)
        resized = resize_bilinear(cropped, config.image_size, config.image_size)
        enhanced = _enhance(config, resized)
        out_path = os.path.join(_preprocessed_dir(config), rel_path)
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        save_pgm(enhanced, out_path)
    except (PgmError, ValueError, OSError) as exc:
        return str(exc)
    return None


def cmd_preprocess(config: RunConfig) -> tuple[list[str], dict[str, str]]:
    manifest = scan_dataset(config.dataset_root)
    out_root = _preprocessed_dir(config)
    # one image per job on the workers; the skips are reported in manifest order
    skips = parallel.map_on_workers(lambda _, rel_path: _preprocess_one(config, manifest, rel_path),
                                    [rel_path for rel_path, _ in manifest.entries],
                                    item_pixels=config.image_size ** 2)
    written = []
    failures = []
    for (rel_path, class_index), skip in zip(manifest.entries, skips):
        if skip is None:
            written.append((rel_path, class_index))
        else:
            failures.append(rel_path)
            print(f"preprocess: skipped {rel_path}: {skip}", file=sys.stderr)
    if failures and len(failures) > 0.10 * len(manifest):
        raise DatasetError(
            f"preprocess failed on {len(failures)} of {len(manifest)} images (> 10%)"
        )
    emptied = sorted(set(range(len(manifest.class_names))) - {idx for _, idx in written})
    if emptied:  # manifest.csv cannot list a class without images
        raise DatasetError(f"preprocess wrote no image of class {manifest.class_names[emptied[0]]!r}")
    # only this run's images: files left by an earlier run stay out of later stages
    out_manifest = DatasetManifest(out_root, tuple(written), manifest.class_names)
    manifest_csv = os.path.join(out_root, "manifest.csv")
    manifest_to_csv(out_manifest, manifest_csv)
    artifacts = [out_manifest.full_path(rel) for rel, _ in written] + [manifest_csv]
    print(f"preprocess: wrote {len(out_manifest)} images at {config.image_size}x"
          f"{config.image_size} under {out_root} ({len(failures)} skipped)")
    return artifacts, {}


def cmd_fcm(config: RunConfig) -> tuple[list[str], dict[str, str]]:
    manifest = _preprocessed_manifest(config)
    out_root = _fcm_dir(config)
    fcm_seed = stage_seed(config.seed, "fcm")
    artifacts = []
    summaries = []
    iterations, converged, level_counts = [], 0, []
    for index, (rel_path, _) in enumerate(manifest.entries):
        image = _decoded(manifest.full_path(rel_path))
        try:
            label_map, result = fcm_segment(image, config.fcm_config(derive_seed(fcm_seed, index)))
        except ValueError as exc:
            raise DatasetError(f"fcm failed on {rel_path}: {exc}") from exc
        labels_path = _fcm_path(config, rel_path, "labels.pgm")
        os.makedirs(os.path.dirname(labels_path), exist_ok=True)
        save_pgm(label_map, labels_path)
        memberships_path = _fcm_path(config, rel_path, "U.csv")
        save_matrix_csv(np.column_stack([result.levels, result.memberships]), memberships_path)
        artifacts.extend([labels_path, memberships_path])
        centroids = ",".join(f"{v:.17g}" for v in result.centroids[:, 0])
        summaries.append(f"{rel_path},{format_run_summary(result)},{centroids}")
        iterations.append(result.iterations_run)
        converged += result.converged
        level_counts.append(result.levels.size)
    header = "path,iterations,final_shift,converged" + "".join(f",v_{j}" for j in range(config.fcm_clusters))
    summary_path = os.path.join(out_root, "summaries.csv")
    write_atomic(summary_path, "\n".join([header, *summaries]) + "\n")
    artifacts.append(summary_path)
    print(f"fcm: segmented {len(manifest)} images with c={config.fcm_clusters} under {out_root}; "
          f"converged {converged}/{len(manifest)}, iterations median "
          f"{np.median(iterations):g} max {max(iterations)}, "
          f"gray levels median {np.median(level_counts):g}")
    return artifacts, {"images_sha256": _images_sha256(manifest)}


def cmd_train(config: RunConfig) -> tuple[list[str], dict[str, str]]:
    manifest = _preprocessed_manifest(config)
    _check_masks(config, manifest)
    train_manifest, val_manifest, split_sha256 = _split(config, manifest)
    load_started = time.perf_counter()
    train_planes, train_x, train_y = _load_tensors(config, train_manifest)
    _, val_x, val_y = _load_tensors(config, val_manifest)
    load_seconds = time.perf_counter() - load_started

    network = build_deepbrainnet_mini(
        config.image_size,
        len(manifest.class_names),
        seed=stage_seed(config.seed, "init"),
        dropout_rate=config.dropout_rate,
        base_channels=config.base_channels,
        dtype=np.float32,
    )
    train_config = config.train_config(stage_seed(config.seed, "train"))
    params = config.augment_params()
    augment_seed = stage_seed(config.seed, "augment")

    def batch_tensor(batch: list[int], epoch: int) -> np.ndarray:
        """The batch's tensor view, built from its planes alone; augmented if enabled."""
        planes = train_planes[batch]
        if config.augment_enabled:
            seeds = [derive_seed(augment_seed, epoch, index) for index in batch]
            planes = augment_image(planes, params, seeds)
        return _to_tensor(planes)

    history = train(network, (train_x, train_y), (val_x, val_y), train_config, augment_fn=batch_tensor)

    out_dir = _train_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
    save_checkpoint(network, checkpoint_path)
    history_path = os.path.join(out_dir, "history.csv")
    history.save_csv(history_path)
    artifacts = [checkpoint_path, f"{checkpoint_path}.layers.csv", history_path]
    print(
        f"train: {len(history)} epochs (best {history.best_epoch}), "
        f"final train_acc={history.train_acc[-1]:.3f} val_acc={history.val_acc[-1]:.3f}; "
        f"checkpoint at {checkpoint_path}"
    )
    return artifacts, {"duration_s.load": f"{load_seconds:.3f}", "split_sha256": split_sha256}


def cmd_evaluate(config: RunConfig) -> tuple[list[str], dict[str, str]]:
    checkpoint_path = os.path.join(_train_dir(config), "checkpoint.bin")
    network = load_checkpoint(checkpoint_path)
    if network.input_size != config.image_size:
        raise DatasetError(f"checkpoint {checkpoint_path!r} has input_size {network.input_size}, "
                           f"but image_size is {config.image_size}")
    manifest = _preprocessed_manifest(config)
    if network.n_classes != len(manifest.class_names):
        manifest_path = os.path.join(_preprocessed_dir(config), "manifest.csv")
        raise DatasetError(f"checkpoint {checkpoint_path!r} expects {network.n_classes} classes, "
                           f"but {manifest_path!r} lists {len(manifest.class_names)}")
    _, val_manifest, split_sha256 = _split(config, manifest)
    _check_recorded(config, "train", "split_sha256", lambda: split_sha256, "the validation split differs "
                    "from the one train used (seed or train_fraction changed since train)")
    _check_masks(config, manifest)
    _, val_x, val_y = _load_tensors(config, val_manifest)

    with np.errstate(over="ignore", invalid="ignore"):  # a float32 overflow shows as non-finite scores
        scores = predict(network, val_x)
    non_finite = int((~np.isfinite(scores).all(axis=1)).sum())
    if non_finite:
        raise NonFiniteLossError(f"checkpoint {checkpoint_path!r} overflows float32: {non_finite} of "
                                 f"{len(scores)} validation score rows are not finite")
    report = classification_report(val_y, scores, class_names=manifest.class_names)
    cm = report.confusion
    curves = [roc_curve(scores[:, j], val_y, j) for j in range(cm.n_classes)]
    predictions = ["path,true,pred," + ",".join(f"p_{j}" for j in range(cm.n_classes))]
    for (rel_path, true_idx), pred, row in zip(val_manifest.entries, scores.argmax(axis=1), scores):
        probs = ",".join(f"{p:.17g}" for p in row)
        predictions.append(f"{rel_path},{true_idx},{pred},{probs}")
    report_text = report_to_text(report, curves)
    texts = {
        "report.csv": report_to_csv(report, curves),
        "report.txt": report_text,
        "confusion.csv": confusion_to_csv(cm),
        "confusion.svg": confusion_svg(cm),
        **{f"roc_{name}.csv": roc_to_csv(curve) for name, curve in zip(cm.class_names, curves)},
        "roc.svg": roc_svg(curves, cm.class_names),
        "predictions.csv": "\n".join(predictions) + "\n",
    }

    out_dir = _eval_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        write_atomic(path, text)
        artifacts.append(path)

    print(report_text)
    print(f"evaluate: {len(val_manifest)} validation images, accuracy {report.accuracy:.3f}; "
          f"artifacts under {out_dir}")
    return artifacts, {}


def cmd_report_demo() -> int:
    macros = reference_macro_metrics()
    width = max(len(row[0]) for row in REFERENCE_CLASS_METRICS) + 2
    print("Aggregation demo over the bundled published per-class metrics:")
    print(f"{'label':<{width}}{'precision':>10}{'recall':>8}{'f1-score':>10}")
    for name, precision, recall, f1 in REFERENCE_CLASS_METRICS:
        print(f"{name:<{width}}{precision:>10.3f}{recall:>8.3f}{f1:>10.3f}")
    print(
        f"{'macro avg':<{width}}{macros['macro_precision']:>10.3f}"
        f"{macros['macro_recall']:>8.3f}{macros['macro_f1']:>10.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "fcm": cmd_fcm,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
}


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, where argparse would print usage and exit 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deepbrainnet",
        description="Desk-scale brain-MRI classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate the 4-class synthetic PGM dataset"),
        ("preprocess", "crop, resize, and enhance every dataset image"),
        ("fcm", "fuzzy c-means segmentation of preprocessed images"),
        ("train", "train the two-branch classifier"),
        ("evaluate", "evaluate a checkpoint and emit report artifacts"),
        ("report-demo", "aggregate the bundled published per-class metrics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a key = value config file")
        cmd.add_argument("--seed", type=int, help="override the global seed")
        cmd.add_argument("--epochs", type=int, help="override the training epoch count")
        cmd.add_argument("--size", type=int, help="override the target image size")
    return parser


# mallopt(3) parameter numbers, and the thresholds the CLI fixes; 32 MiB is the
# largest mmap threshold glibc takes on a 64-bit system
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES, _TRIM_THRESHOLD_BYTES = 32 << 20, 128 << 20


def _keep_freed_heap() -> None:
    """On glibc, keep the memory this process frees for its next allocation.

    Each training step and inference chunk frees its activations. With glibc's
    defaults the large blocks are unmapped or trimmed back to the kernel, so the
    next step faults in fresh zero pages. Fixed thresholds keep blocks up to
    32 MiB on the heap and trim only above 128 MiB of free top. Only `main`
    calls this, so a library caller keeps its own allocator settings. On
    another libc it does nothing; a value glibc declines (mallopt returns 0)
    leaves that setting as it was.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc without the name
        return
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(
            args.config,
            overrides={"seed": args.seed, "epochs": args.epochs, "image_size": args.size},
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.command == "report-demo":
        return cmd_report_demo()
    try:
        started = time.perf_counter()
        artifacts, record = COMMANDS[args.command](config)
        _write_run_record(config, args.command, time.perf_counter() - started, record, artifacts)
        return 0
    except NonFiniteLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, PgmError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
