import contextlib
import hashlib
import math
import os
import re
import shutil
import struct
import sys
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from deepbrainnet import cli, dataio, parallel
from deepbrainnet.config import ConfigError, RunConfig, parse_config
from deepbrainnet.dataio import GrayImage, load_pgm, manifest_to_csv, save_pgm, scan_dataset
from deepbrainnet.nnet import build_deepbrainnet_mini, load_checkpoint, predict, save_checkpoint
from deepbrainnet.rng import Prng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer, instrument  # noqa: E402


def write_config(path, **overrides):
    defaults = dict(
        image_size=32,
        synth_per_class=4,
        epochs=4,
        batch_size=8,
        learning_rate=0.005,
        dropout_rate=0.0,
        augment_enabled="false",
        seed=11,
    )
    defaults.update(overrides)
    lines = [f"{key} = {value}" for key, value in defaults.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(*args):
    return cli.main(list(args))


@pytest.fixture()
def workspace(tmp_path):
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
    )
    return tmp_path, cfg


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_defaults_without_file():
    config = parse_config(None)
    assert config.image_size == 224
    assert config.epochs == 40
    assert config.batch_size == 32
    assert config.enhancement == ("blur", "clahe")
    assert config.train_fraction == 0.8


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigError, match="no_such_key"):
        parse_config(path)


def test_the_removed_freeze_key_is_a_config_error(tmp_path, capsys):
    """`freeze_branches_epochs` froze freshly seeded branches and is gone."""
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out", freeze_branches_epochs=0)
    assert run("train", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:"), err
    assert err.endswith(": unknown key 'freeze_branches_epochs'\n"), err


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# a comment\n\nepochs = 7  # trailing\n")
    assert parse_config(path).epochs == 7


def test_enhancement_list_parsing(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("enhancement = clahe,blur\n")
    assert parse_config(path).enhancement == ("clahe", "blur")
    path.write_text("enhancement = none\n")
    assert parse_config(path).enhancement == ()
    path.write_text("enhancement = sharpen\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_overrides_take_precedence(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("epochs = 7\nseed = 3\n")
    config = parse_config(path, overrides={"epochs": 9, "seed": None})
    assert config.epochs == 9
    assert config.seed == 3


def test_validation_catches_bad_combos(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("blur_kernel = 4\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_readme_config_table_lists_every_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    keys = set()
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert keys == {f.name for f in fields(RunConfig)}


# ---------------------------------------------------------------------------
# synth + preprocess
# ---------------------------------------------------------------------------


def test_synth_writes_counted_dataset(workspace):
    tmp_path, cfg = workspace
    assert run("synth", "--config", cfg) == 0
    classes = sorted(os.listdir(tmp_path / "dataset"))
    assert classes == ["blank", "blob", "ring", "stripe"]
    total = sum(len(os.listdir(tmp_path / "dataset" / c)) for c in classes)
    assert total == 16


def test_synth_into_a_used_root_reports_only_its_own_files(tmp_path, capsys):
    """A smaller synth over a root an earlier synth filled lists only the files it wrote."""
    big = write_config(tmp_path / "big.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", synth_per_class=6)
    small = write_config(tmp_path / "small.cfg", dataset_root=tmp_path / "dataset",
                         output_dir=tmp_path / "out", synth_per_class=3)
    assert run("synth", "--config", big) == 0
    capsys.readouterr()
    assert run("synth", "--config", small) == 0
    assert "synth: wrote 12 images across 4 classes" in capsys.readouterr().out
    record = (tmp_path / "out" / "runrecord_synth.txt").read_text().splitlines()
    listed = [line.rsplit("  ", 1)[1] for line in record if line.startswith("artifact: ")]
    assert len(listed) == 12
    assert all(re.search(r"_00[0-2]\.pgm$", path) for path in listed)


def test_preprocess_outputs_match_target_size(workspace):
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    assert run("preprocess", "--config", cfg) == 0
    out_root = tmp_path / "out" / "preprocessed"
    images = sorted(out_root.rglob("*.pgm"))
    assert len(images) == 16
    for path in images:
        image = load_pgm(path)
        assert (image.width, image.height) == (32, 32)
    assert (out_root / "manifest.csv").exists()


def test_preprocess_empty_enhancement_is_crop_resize_only(tmp_path):
    from deepbrainnet.imaging import auto_crop_margins, resize_bilinear

    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
        enhancement="",
    )
    run("synth", "--config", cfg)
    assert run("preprocess", "--config", cfg) == 0
    rel = "blob/blob_000.pgm"
    source = load_pgm(tmp_path / "dataset" / rel)
    cropped = auto_crop_margins(source, 10)
    expected = resize_bilinear(cropped, 32, 32)
    assert load_pgm(tmp_path / "out" / "preprocessed" / rel) == expected


def test_preprocess_reruns_byte_identically(workspace):
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    run("preprocess", "--config", cfg)
    first = {
        p.relative_to(tmp_path / "out"): p.read_bytes()
        for p in (tmp_path / "out" / "preprocessed").rglob("*")
        if p.is_file()
    }
    run("preprocess", "--config", cfg)
    for p, blob in first.items():
        assert (tmp_path / "out" / p).read_bytes() == blob


def test_preprocess_skips_bad_files_up_to_threshold(workspace, capsys):
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    # corrupt one of 16 files (6% failure rate, below the 10% abort threshold)
    victim = next((tmp_path / "dataset" / "blob").glob("*.pgm"))
    victim.write_bytes(b"P5 trash")
    assert run("preprocess", "--config", cfg) == 0
    err = capsys.readouterr().err
    assert "skipped" in err
    images = list((tmp_path / "out" / "preprocessed").rglob("*.pgm"))
    assert len(images) == 15


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_and_preprocess_artifacts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    trees = []
    for workers in (1, 4):
        monkeypatch.setattr(parallel, "available_cpus", lambda workers=workers: workers)
        root = tmp_path / f"workers{workers}"
        cfg = write_config(root.with_suffix(".cfg"), dataset_root=root / "dataset",
                           output_dir=root / "out", synth_per_class=5, image_size=96)
        for command in ("synth", "preprocess"):
            assert run(command, "--config", cfg) == 0, (workers, command)
        (root / "out" / "runrecord_synth.txt").unlink()  # they name their paths and seconds
        (root / "out" / "runrecord_preprocess.txt").unlink()
        trees.append(_tree_bytes(root))
    assert len(trees[0]) == 2 * 20 + 1  # the dataset, the preprocessed images and manifest.csv
    assert trees[0] == trees[1]


def test_preprocess_on_workers_reports_skips_in_manifest_order(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", synth_per_class=10, image_size=96)
    assert run("synth", "--config", cfg) == 0
    victims = ["blob/blob_007.pgm", "ring/ring_002.pgm"]
    for victim in victims:
        (tmp_path / "dataset" / victim).write_bytes(b"P5 trash")
    capsys.readouterr()
    assert run("preprocess", "--config", cfg) == 0
    skipped = [line for line in capsys.readouterr().err.splitlines() if "skipped" in line]
    assert [line.split()[2].rstrip(":") for line in skipped] == victims
    listed = (tmp_path / "out" / "preprocessed" / "manifest.csv").read_text(encoding="utf-8")
    assert len(listed.splitlines()) == 1 + 40 - 2 and not any(v in listed for v in victims)


def test_preprocess_aborts_over_failure_threshold(workspace):
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    for victim in list((tmp_path / "dataset" / "blob").glob("*.pgm"))[:3]:
        victim.write_bytes(b"P5 trash")
    assert run("preprocess", "--config", cfg) == 2


def test_preprocess_that_empties_a_class_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", synth_per_class=12)
    assert run("synth", "--config", cfg) == 0
    shutil.rmtree(tmp_path / "dataset" / "blank")
    os.makedirs(tmp_path / "dataset" / "empty")
    (tmp_path / "dataset" / "empty" / "bad.pgm").write_bytes(b"P5 4 4 255\n")
    capsys.readouterr()
    assert run("preprocess", "--config", cfg) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "data error: preprocess wrote no image of class 'empty'"
    )


def test_missing_dataset_is_data_error(workspace):
    _, cfg = workspace
    assert run("preprocess", "--config", cfg) == 2


def test_comma_in_dataset_path_is_data_error(workspace, capsys):
    # the manifest and result CSVs hold paths unquoted, so preprocess refuses them
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    blob = tmp_path / "dataset" / "blob"
    os.rename(blob / "blob_000.pgm", blob / "blob,000.pgm")
    capsys.readouterr()
    assert run("preprocess", "--config", cfg) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "data error: dataset path 'blob/blob,000.pgm' contains a comma or line break\n"
    )
    assert not (tmp_path / "out" / "preprocessed").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "abc"],
    ["train", "--no-such-flag"],
    [],
], ids=["bad-flag-value", "unknown-flag", "missing-command"])
def test_usage_error_is_one_line_exit_1(capsys, argv):
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("train", "--help")
    assert exc.value.code == 0
    assert "--epochs" in capsys.readouterr().out


# (command, key, bad value, name the message must contain); every case is
# caught when the config loads, before the command touches the disk
BAD_SETTINGS = [
    ("synth", "image_size", 1000000, "image_size"),
    ("train", "epochs", -2, "epochs"),
    ("fcm", "fcm_max_iter", 0, "max_iter"),
    ("fcm", "fcm_epsilon", 0, "epsilon"),
    ("fcm", "fcm_epsilon", "nan", "fcm_epsilon"),
    ("fcm", "fcm_clusters", 300, "fcm_clusters"),
    ("preprocess", "background_threshold", 300, "background_threshold"),
    ("preprocess", "clahe_tiles", 64, "clahe_tiles"),
    ("preprocess", "blur_kernel", 200001, "blur_kernel"),
    ("train", "base_channels", 1000000, "base_channels"),
    ("train", "early_stop_patience", 0, "early_stop_patience"),
    ("train", "lr_reduce_patience", 0, "lr_reduce_patience"),
    ("train", "augment_rotation", -5, "rotation_range"),
    ("train", "augment_zoom", -1, "zoom_range"),
    ("train", "augment_zoom", 1.5, "zoom_range"),
    ("train", "augment_shear", 90, "shear_range"),
    ("train", "augment_brightness_lo", 0, "brightness_range"),
    ("train", "beta1", 1.5, "beta1"),
    ("train", "adam_epsilon", 0, "adam_epsilon"),
    ("train", "learning_rate", -1, "learning_rate"),
    ("train", "learning_rate", "inf", "learning_rate"),
]


@pytest.mark.parametrize("command,key,value,name", BAD_SETTINGS,
                         ids=[f"{key}={value}" for _, key, value, _ in BAD_SETTINGS])
def test_bad_config_is_usage_error(tmp_path, capsys, command, key, value, name):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "bad.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=out_dir, **{key: value})
    assert run(command, "--config", cfg) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert name in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert not out_dir.exists() and not (tmp_path / "dataset").exists()


@pytest.mark.parametrize("line,fragment", [
    ("augment_enabled = maybe", "bad value for augment_enabled: not a boolean: 'maybe'"),
    ("epochs 4", "expected 'key = value', got 'epochs 4'"),
], ids=["not a boolean", "no equals sign"])
def test_a_bad_config_line_is_one_config_error_naming_its_line(tmp_path, capsys, line, fragment):
    path = tmp_path / "run.cfg"
    path.write_text(f"epochs = 1\n{line}\n")
    assert run("train", "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {path}:2: {fragment}\n"
    assert "Traceback" not in captured.out


def test_zero_base_channels_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", base_channels=0)
    assert run("train", "--config", cfg) == 1
    assert capsys.readouterr().err == "config error: base_channels must be >= 1\n"


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"epochs = 4\n# caf\xff\n")
    assert run("train", "--config", str(path)) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: cannot read config {str(path)!r}: ")
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# fcm stage
# ---------------------------------------------------------------------------


def kmeans_partition(values, centers, iters=200):
    centers = list(centers)
    for _ in range(iters):
        assign = [0 if abs(v - centers[0]) <= abs(v - centers[1]) else 1 for v in values]
        new = []
        for j in range(2):
            members = [v for v, a in zip(values, assign) if a == j]
            new.append(float(np.mean(members)) if members else centers[j])
        if new == centers:
            break
        centers = new
    return assign


def test_fcm_masks_bilevel_image(tmp_path):
    # hand-built two-class dataset of bi-level images
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
        fcm_mask_enabled="true",
        fcm_clusters=2,
    )
    rng = Prng(5)
    preprocessed = tmp_path / "out" / "preprocessed"
    for class_name in ("dark", "lit"):
        os.makedirs(preprocessed / class_name)
        for i in range(2):
            base = 200 if class_name == "lit" else 0
            data = [
                (base if rng.coin() else 30) for _ in range(16 * 16)
            ]
            save_pgm(GrayImage(16, 16, data), preprocessed / class_name / f"{class_name}_{i}.pgm")
    manifest_to_csv(scan_dataset(preprocessed), preprocessed / "manifest.csv")
    assert run("fcm", "--config", str(tmp_path / "run.cfg")) == 0

    out_root = tmp_path / "out" / "fcm"
    labels = load_pgm(out_root / "lit" / "lit_0_labels.pgm")
    source = load_pgm(tmp_path / "out" / "preprocessed" / "lit" / "lit_0.pgm")
    header, *rows = (out_root / "summaries.csv").read_text().splitlines()
    assert header.endswith(",v_0,v_1")
    row = next(row.split(",") for row in rows if row.startswith("lit/lit_0.pgm,"))
    centroids = [float(v) for v in row[4:]]
    assert centroids == sorted(centroids)
    km = kmeans_partition(source.data.ravel().astype(float).tolist(), centroids)
    mine = labels.data.ravel()
    # same partition up to label swap
    agreement = (mine == np.array(km)).mean()
    assert agreement in (0.0, 1.0)

    # the mask train applies, labels != 0, keeps exactly the bright population
    bright = source.data == 200
    assert np.array_equal(labels.data != 0, bright)
    assert sorted(p.name for p in (out_root / "lit").iterdir()) == [
        "lit_0_U.csv", "lit_0_labels.pgm", "lit_1_U.csv", "lit_1_labels.pgm"]


def test_fcm_uniform_mask_for_single_cluster(tmp_path):
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
        fcm_clusters=1,
    )
    run("synth", "--config", cfg)
    run("preprocess", "--config", cfg)
    assert run("fcm", "--config", cfg) == 0
    label_files = list((tmp_path / "out" / "fcm").rglob("*_labels.pgm"))
    assert label_files
    for path in label_files:
        assert set(np.unique(load_pgm(path).data)) == {0}


def test_fcm_summary_has_one_line_per_image(workspace, capsys):
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    run("preprocess", "--config", cfg)
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 0
    lines = (tmp_path / "out" / "fcm" / "summaries.csv").read_text().strip().splitlines()
    assert lines[0] == "path,iterations,final_shift,converged,v_0,v_1"
    assert len(lines) - 1 == 16
    # the stdout line reports the same convergence the summaries record
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 6 and float(row[4]) <= float(row[5]) for row in rows)  # ascending centroids
    iterations = [int(row[1]) for row in rows]
    converged = sum(row[3] == "true" for row in rows)
    preprocessed = tmp_path / "out" / "preprocessed"
    levels = [np.unique(load_pgm(preprocessed / row[0]).data).size for row in rows]
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"fcm: segmented 16 images with c=2 under {tmp_path / 'out' / 'fcm'}; "
        f"converged {converged}/16, iterations median {np.median(iterations):g} "
        f"max {max(iterations)}, gray levels median {np.median(levels):g}"
    ]


def test_fcm_membership_table_has_one_row_per_gray_level(workspace):
    tmp_path, cfg = workspace
    run("synth", "--config", cfg)
    run("preprocess", "--config", cfg)
    assert run("fcm", "--config", cfg) == 0
    preprocessed = tmp_path / "out" / "preprocessed"
    tables = sorted((tmp_path / "out" / "fcm").rglob("*_U.csv"))
    assert len(tables) == 16
    for path in tables:
        rel_stem = path.relative_to(tmp_path / "out" / "fcm").as_posix()[: -len("_U.csv")]
        image = load_pgm(preprocessed / f"{rel_stem}.pgm")
        labels = load_pgm(tmp_path / "out" / "fcm" / f"{rel_stem}_labels.pgm")
        table = np.loadtxt(path, delimiter=",", ndmin=2)
        levels, inverse = np.unique(image.data.ravel(), return_inverse=True)
        assert np.array_equal(table[:, 0], levels)
        assert table.shape[1] == 2 + 1  # level, then c = 2 memberships
        memberships = table[:, 1:]
        assert np.abs(memberships.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.array_equal(np.argmax(memberships, axis=1)[inverse], labels.data.ravel())


def test_fcm_fewer_gray_levels_than_clusters_is_data_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
        fcm_clusters=3,
    )
    preprocessed = tmp_path / "out" / "preprocessed"
    data = np.where(np.arange(224 * 224) % 3 == 0, 30, 200).astype(np.uint8)
    for class_name in ("flat", "plain"):
        os.makedirs(preprocessed / class_name)
        save_pgm(GrayImage(224, 224, data.reshape(224, 224)),
                 preprocessed / class_name / "two_level.pgm")
    manifest_to_csv(scan_dataset(preprocessed), preprocessed / "manifest.csv")
    assert run("fcm", "--config", cfg) == 2
    assert capsys.readouterr().err == (
        "data error: fcm failed on flat/two_level.pgm: "
        "image has 2 distinct gray levels, fewer than c=3\n"
    )


# ---------------------------------------------------------------------------
# train + evaluate
# ---------------------------------------------------------------------------


def pipeline(tmp_path, **overrides):
    os.makedirs(tmp_path, exist_ok=True)
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
        **overrides,
    )
    for command in ("synth", "preprocess", "train", "evaluate"):
        assert run(command, "--config", cfg) == 0, command
    return tmp_path / "out", cfg


def test_full_pipeline_emits_artifacts(tmp_path):
    out, _ = pipeline(tmp_path)
    history = (out / "train" / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
    assert 1 <= len(history) - 1 <= 4
    assert (out / "train" / "checkpoint.bin").exists()
    assert (out / "eval" / "report.csv").exists()
    assert (out / "eval" / "report.txt").exists()
    assert (out / "eval" / "confusion.csv").exists()
    assert (out / "eval" / "confusion.svg").exists()
    assert (out / "eval" / "roc.svg").exists()
    svg = (out / "eval" / "roc.svg").read_text()
    assert svg.count("<polyline") == 4
    predictions = (out / "eval" / "predictions.csv").read_text().strip().splitlines()
    assert predictions[0] == "path,true,pred,p_0,p_1,p_2,p_3"
    assert len(predictions) - 1 == 4  # one per validation image


def test_augmentation_changes_history(tmp_path):
    out_a, cfg = pipeline(tmp_path, epochs=3)
    baseline = (out_a / "train" / "history.csv").read_text()
    cfg_aug = write_config(
        tmp_path / "aug.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out_aug",
        epochs=3,
        augment_enabled="true",
    )
    assert run("preprocess", "--config", cfg_aug) == 0
    assert run("train", "--config", cfg_aug) == 0
    augmented = (tmp_path / "out_aug" / "train" / "history.csv").read_text()
    assert augmented != baseline


def test_evaluate_is_rerunnable_and_deterministic(tmp_path):
    out, cfg = pipeline(tmp_path)
    first = {
        name: (out / "eval" / name).read_bytes()
        for name in os.listdir(out / "eval")
        if name.endswith(".csv")
    }
    assert run("evaluate", "--config", cfg) == 0
    for name, blob in first.items():
        assert (out / "eval" / name).read_bytes() == blob


def test_traced_evaluate_records_the_spans_perfbench_reports(tmp_path):
    """The benchmark tracer wraps these names in `cli`; evaluate calls each, once per result."""
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", epochs=1)
    tracer = Tracer()
    with instrument(tracer):
        for command in ("synth", "preprocess", "train", "evaluate"):
            tracer.run_id = command
            assert run(command, "--config", cfg) == 0, command
    spans = Counter(name for name, *_, run_id in tracer.spans if run_id == "evaluate")
    k = 4
    assert spans["nnet.predict"] == 1
    assert spans["metrics.classification_report"] == 1
    assert spans["metrics.roc_curve"] == k
    assert spans["metrics.csv"] == 2 + k  # report, confusion matrix, one ROC table per class
    assert spans["metrics.svg"] == 2


def test_two_runs_identical_seed_identical_artifacts(tmp_path):
    out1, _ = pipeline(tmp_path / "one")
    out2, _ = pipeline(tmp_path / "two")
    for rel in (
        "preprocessed/manifest.csv",
        "train/history.csv",
        "train/checkpoint.bin",
        "eval/report.csv",
        "eval/predictions.csv",
    ):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_run_record_digests_verify(tmp_path):
    out, cfg = pipeline(tmp_path)
    record = (out / "runrecord_evaluate.txt").read_text().strip().splitlines()
    assert record[0] == "command: evaluate"
    assert any(line.startswith("tool_version: ") for line in record)
    assert any(line.startswith("duration_s.total: ") for line in record)
    digests = [line.split(" ", 2) for line in record if line.startswith("artifact: ")]
    assert digests
    for _, digest, rel in digests:
        blob = (out / rel.strip()).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


def _files_with_inodes(root: Path) -> dict[str, tuple[int, bytes]]:
    """(inode, bytes) of every file under root: write_atomic's rename gives a rewritten file a new inode."""
    return {str(p.relative_to(root)): (p.stat().st_ino, p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


STAGES = ("synth", "preprocess", "fcm", "train", "evaluate")


@pytest.mark.parametrize("command", STAGES)
def test_the_run_record_lists_exactly_the_files_its_command_wrote(tmp_path, command):
    """First into an empty tree, then over its own outputs: the record names each file
    the command created or rewrote, with the digest of its bytes, and no other."""
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset", output_dir=tmp_path / "out",
                       fcm_mask_enabled="true", epochs=1)
    for earlier in STAGES[:STAGES.index(command)]:
        assert run(earlier, "--config", cfg) == 0, earlier
    record = os.path.join("out", f"runrecord_{command}.txt")
    for _ in ("into an empty tree", "over its own outputs"):
        before = _files_with_inodes(tmp_path)
        assert run(command, "--config", cfg) == 0
        after = _files_with_inodes(tmp_path)
        changed = {path for path, state in after.items() if before.get(path) != state} - {record}
        listed = {}
        for line in (tmp_path / record).read_text().splitlines():
            if line.startswith("artifact: "):
                digest, rel = line[len("artifact: "):].split("  ", 1)
                listed[os.path.normpath(os.path.join("out", rel))] = digest
        assert changed and set(listed) == changed
        for path, digest in listed.items():
            assert hashlib.sha256(after[path][1]).hexdigest() == digest, path


def test_writes_outside_a_command_are_not_collected(tmp_path, monkeypatch):
    """Library calls, and writes after a command that exited 2 partway through, record nothing."""
    collections = []

    @contextlib.contextmanager
    def watched():
        with dataio.collecting_writes() as written:
            collections.append(written)
            yield written

    monkeypatch.setattr(cli, "collecting_writes", watched)
    save_pgm(GrayImage(1, 1, [0]), tmp_path / "library.pgm")
    save_checkpoint(build_deepbrainnet_mini(32, 4, seed=0), tmp_path / "library.bin")
    assert dataio._collected is None and collections == []

    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset", output_dir=tmp_path / "out")
    assert run("synth", "--config", cfg) == 0
    for name in ("blank_000", "blob_000", "ring_000"):  # 3 of 16 images: over preprocess's 10 %
        (tmp_path / "dataset" / name.split("_")[0] / f"{name}.pgm").write_bytes(b"")
    assert run("preprocess", "--config", cfg) == 2
    written = dict(collections[-1])
    assert len(written) == 13  # the images preprocess wrote before it gave up
    save_pgm(GrayImage(1, 1, [0]), tmp_path / "after.pgm")
    save_checkpoint(build_deepbrainnet_mini(32, 4, seed=0), tmp_path / "after.bin")
    assert dataio._collected is None and collections[-1] == written
    assert not (tmp_path / "out" / "runrecord_preprocess.txt").exists()


def test_evaluate_after_a_changed_seed_is_data_error(tmp_path, capsys):
    """A new seed makes a new split, whose validation side holds training images."""
    out, cfg = pipeline(tmp_path)
    record = (out / "runrecord_train.txt").read_text()
    assert re.search(r"^split_sha256: [0-9a-f]{64}$", record, re.MULTILINE)
    capsys.readouterr()
    assert run("evaluate", "--config", cfg, "--seed", "12") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: the validation split differs") and err.count("\n") == 1
    (out / "runrecord_train.txt").unlink()  # no record, as after save_checkpoint alone: no check
    assert run("evaluate", "--config", cfg, "--seed", "12") == 0


def test_masks_of_an_earlier_preprocess_run_are_data_error(tmp_path, capsys):
    """fcm ran on `blur,clahe` images, preprocess then rewrote them with `hist_eq`."""
    paths = dict(dataset_root=tmp_path / "dataset", output_dir=tmp_path / "out", fcm_mask_enabled="true")
    cfg = write_config(tmp_path / "run.cfg", enhancement="blur,clahe", **paths)
    redo = write_config(tmp_path / "redo.cfg", enhancement="hist_eq", **paths)
    for command in ("synth", "preprocess", "fcm", "train"):
        assert run(command, "--config", cfg) == 0, command
    record = (tmp_path / "out" / "runrecord_fcm.txt").read_text()
    assert re.search(r"^images_sha256: [0-9a-f]{64}$", record, re.MULTILINE)
    assert run("preprocess", "--config", redo) == 0
    capsys.readouterr()
    for command in ("train", "evaluate"):
        assert run(command, "--config", redo) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("data error: the preprocessed images differ") and err.count("\n") == 1
    (tmp_path / "out" / "runrecord_fcm.txt").unlink()  # no record: no check
    assert run("train", "--config", redo) == 0


def test_evaluate_rejects_class_count_mismatch(tmp_path, capsys):
    out, cfg = pipeline(tmp_path)
    # keep only ring and stripe (renumbered 0 and 1) in the manifest -> checkpoint expects 4
    manifest = out / "preprocessed" / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    kept = [row for row in rows if row.endswith((",ring", ",stripe"))]
    renumbered = [row.replace(",2,ring", ",0,ring").replace(",3,stripe", ",1,stripe") for row in kept]
    manifest.write_text("\n".join([header, *renumbered]) + "\n")
    capsys.readouterr()
    assert run("evaluate", "--config", cfg) == 2
    checkpoint = out / "train" / "checkpoint.bin"
    assert capsys.readouterr().err == (f"data error: checkpoint {str(checkpoint)!r} expects 4 classes, "
                                       f"but {str(manifest)!r} lists 2\n")


def test_later_stages_ignore_stale_preprocessed_images(tmp_path, capsys):
    """Images an earlier preprocess run left behind stay out of manifest.csv and fcm."""
    stale = write_config(tmp_path / "stale.cfg", dataset_root=tmp_path / "big",
                         output_dir=tmp_path / "out", synth_per_class=6)
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "small",
                       output_dir=tmp_path / "out", synth_per_class=3)
    for config in (stale, cfg):
        assert run("synth", "--config", config) == 0
    assert run("preprocess", "--config", stale) == 0
    capsys.readouterr()
    assert run("preprocess", "--config", cfg) == 0
    assert "preprocess: wrote 12 images" in capsys.readouterr().out
    rows = (tmp_path / "out" / "preprocessed" / "manifest.csv").read_text().splitlines()
    assert len(rows) - 1 == 12
    assert run("fcm", "--config", cfg) == 0
    summaries = (tmp_path / "out" / "fcm" / "summaries.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summaries[1:]] == [row.split(",")[0] for row in rows[1:]]


def test_stages_without_a_manifest_are_data_errors(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert run("fcm", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: no manifest at ") and err.count("\n") == 1


def preprocessed_manifest(tmp_path, cfg) -> Path:
    for command in ("synth", "preprocess"):
        assert run(command, "--config", cfg) == 0, command
    return tmp_path / "out" / "preprocessed" / "manifest.csv"


def test_a_manifest_path_that_leaves_its_root_is_data_error(workspace, capsys):
    """fcm writes each entry's outputs at its path under out/fcm: an entry that climbs
    out of the preprocessed root would have them written beside the source images."""
    tmp_path, cfg = workspace
    manifest = preprocessed_manifest(tmp_path, cfg)
    with manifest.open("a", encoding="utf-8") as fh:
        fh.write("../../dataset/blank/blank_000.pgm,0,blank\n")

    def outside_output_dir():
        return sorted(p for p in tmp_path.rglob("*") if not p.is_relative_to(tmp_path / "out"))

    before = outside_output_dir()
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 2
    assert capsys.readouterr().err == (f"data error: manifest {str(manifest)!r} lists "
                                       "'../../dataset/blank/blank_000.pgm', which leaves its root\n")
    assert outside_output_dir() == before


def test_non_utf8_manifest_is_data_error_naming_it(workspace, capsys):
    tmp_path, cfg = workspace
    manifest = preprocessed_manifest(tmp_path, cfg)
    manifest.write_bytes(manifest.read_bytes() + b"blank/caf\xff.pgm,0,blank\n")
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot decode manifest {str(manifest)!r}: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("row,problem", [
    ("blank/blank_000.pgm", "has 1 of the 3 fields path,class_index,class_name"),
    ("blank/blank_000.pgm,x,blank", "has the class index 'x', not an integer"),
])
def test_a_malformed_manifest_row_is_data_error_naming_its_line(workspace, capsys, row, problem):
    tmp_path, cfg = workspace
    manifest = preprocessed_manifest(tmp_path, cfg)
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("\n".join([*lines, "", row]) + "\n", encoding="utf-8")  # a blank line counts
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err == f"data error: manifest {str(manifest)!r} line {len(lines) + 2} {problem}\n", err
    assert "Traceback" not in err


def hand_written_manifest(tmp_path, rows) -> tuple[str, Path]:
    """A config and its preprocessed/manifest.csv, holding `rows` under the header."""
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    manifest = tmp_path / "out" / "preprocessed" / "manifest.csv"
    manifest.parent.mkdir(parents=True)
    manifest.write_text("\n".join(["path,class_index,class_name", *rows]) + "\n", encoding="utf-8")
    return cfg, manifest


def test_a_manifest_path_without_the_pgm_suffix_is_data_error(tmp_path, capsys):
    """fcm names its outputs by the path before `.pgm`: `a/img_0001` and `a/img_0002`
    would both write `fcm/a/img__labels.pgm`."""
    rows = ["a/img_0001,0,a", "a/img_0002,0,a", "b/img_0001,1,b", "b/img_0002,1,b"]
    cfg, manifest = hand_written_manifest(tmp_path, rows)
    for row in rows:  # the files exist, so only the names are at fault
        image = manifest.parent / row.split(",")[0]
        image.parent.mkdir(exist_ok=True)
        save_pgm(GrayImage(16, 16, np.arange(256) % 7 * 30), image)
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 2
    assert capsys.readouterr().err == (f"data error: manifest {str(manifest)!r} line 2 lists "
                                       "'a/img_0001', not a .pgm file\n")
    assert not (tmp_path / "out" / "fcm").exists()


@pytest.mark.parametrize("rows,problem", [
    (["a/img_0001.pgm,0,a", "a/img_0001.pgm,0,a", "b/img_0001.pgm,1,b"], "duplicate path 'a/img_0001.pgm'"),
    (["a/img_0001.pgm,0,a", "b/img_0001.pgm,2,b"], "class index 2 out of range for b/img_0001.pgm"),
    (["a/img_0001.pgm,0,a", "a/img_0002.pgm,0,a"], "need at least 2 classes, got 1"),
], ids=["duplicate-path", "class-index-out-of-range", "one-class"])
def test_a_manifest_the_dataset_rules_reject_is_data_error_naming_it(tmp_path, capsys, rows, problem):
    cfg, manifest = hand_written_manifest(tmp_path, rows)
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 2
    assert capsys.readouterr().err == f"data error: manifest {str(manifest)!r}: {problem}\n"
    assert not (tmp_path / "out" / "fcm").exists()


def test_a_manifest_that_names_one_class_twice_is_data_error(tmp_path, capsys):
    """Rows of one class index must agree on its name: a row cut short inside its
    class name would otherwise rename the class."""
    cfg, manifest = hand_written_manifest(tmp_path, ["a/img_0001.pgm,0,a", "b/img_0001.pgm,1,b",
                                                     "b/img_0002.pgm,1,bb"])
    capsys.readouterr()
    assert run("fcm", "--config", cfg) == 2
    assert capsys.readouterr().err == (f"data error: manifest {str(manifest)!r} line 4 names class 1 "
                                       "'bb', not 'b'\n")


def test_non_utf8_run_record_is_data_error_naming_it(workspace, capsys):
    tmp_path, cfg = workspace
    preprocessed_manifest(tmp_path, cfg)
    (tmp_path / "out" / "train").mkdir()
    save_checkpoint(build_deepbrainnet_mini(32, 4, seed=0, base_channels=4),
                    tmp_path / "out" / "train" / "checkpoint.bin")
    record = tmp_path / "out" / "runrecord_train.txt"
    record.write_bytes(b"command: train\n\xff\n")
    capsys.readouterr()
    assert run("evaluate", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot decode run record {str(record)!r}: "), err
    assert err.count("\n") == 1


def loaded_planes(monkeypatch) -> dict:
    """{manifest path: the gray plane train or evaluate loads}, filled as they load."""
    planes = {}
    load = cli._load_tensors

    def recording(config, manifest):
        loaded = load(config, manifest)
        planes.update(zip((rel_path for rel_path, _ in manifest.entries), loaded[0]))
        return loaded

    monkeypatch.setattr(cli, "_load_tensors", recording)
    return planes


def test_train_masks_with_the_label_maps_of_the_last_fcm_run(tmp_path, monkeypatch):
    """fcm with masks on at c=2, then fcm with masks off at c=4: train with masks on
    keeps labels != 0 of the c=4 run, not a foreground the c=2 run left behind."""
    paths = dict(dataset_root=tmp_path / "dataset", output_dir=tmp_path / "out", epochs=1)
    masked = write_config(tmp_path / "c2.cfg", fcm_mask_enabled="true", fcm_clusters=2, **paths)
    unmasked = write_config(tmp_path / "c4.cfg", fcm_mask_enabled="false", fcm_clusters=4, **paths)
    for command in ("synth", "preprocess", "fcm"):
        assert run(command, "--config", masked) == 0, command
    fcm_root = tmp_path / "out" / "fcm"
    first = {p: load_pgm(p).data != 0 for p in fcm_root.rglob("*_labels.pgm")}
    assert run("fcm", "--config", unmasked) == 0
    assert any(((load_pgm(p).data != 0) != kept).any() for p, kept in first.items())
    planes = loaded_planes(monkeypatch)
    assert run("train", "--config", masked) == 0
    assert len(planes) == 16
    for rel_path, plane in planes.items():
        image = load_pgm(tmp_path / "out" / "preprocessed" / rel_path).data
        labels = load_pgm(fcm_root / f"{rel_path[:-4]}_labels.pgm").data
        assert np.array_equal(plane, image * (labels != 0)), rel_path


def test_fcm_writes_the_same_files_with_masks_on_and_off_and_train_masks_after_either(tmp_path):
    paths = dict(dataset_root=tmp_path / "dataset", output_dir=tmp_path / "out", epochs=1)
    unmasked = write_config(tmp_path / "off.cfg", fcm_mask_enabled="false", **paths)
    masked = write_config(tmp_path / "on.cfg", fcm_mask_enabled="true", **paths)
    for command in ("synth", "preprocess", "fcm"):
        assert run(command, "--config", unmasked) == 0, command
    written = _tree_bytes(tmp_path / "out" / "fcm")
    assert len(written) == 2 * 16 + 1  # a label map and a membership table per image, summaries.csv
    assert run("train", "--config", masked) == 0
    assert run("fcm", "--config", masked) == 0
    assert _tree_bytes(tmp_path / "out" / "fcm") == written


def test_a_maxval_1_label_map_of_ones_leaves_its_image_whole(tmp_path, monkeypatch):
    """As a mask, this file once zeroed its image: as a label map it labels every
    pixel 1, so masking keeps them all."""
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", fcm_mask_enabled="true", epochs=1)
    preprocessed_manifest(tmp_path, cfg)
    assert run("fcm", "--config", cfg) == 0
    rel_path = "blank/blank_000.pgm"
    image = load_pgm(tmp_path / "out" / "preprocessed" / rel_path).data
    labels = tmp_path / "out" / "fcm" / "blank" / "blank_000_labels.pgm"
    assert (image * (load_pgm(labels).data != 0) != image).any()  # fcm's own map drops pixels
    labels.write_bytes(b"P5\n32 32\n1\n" + bytes([1]) * 32 * 32)
    planes = loaded_planes(monkeypatch)
    assert run("train", "--config", cfg) == 0
    assert np.array_equal(planes[rel_path], image)


def _rewritten(change):
    """Rewrite the checkpoint's bytes with change(blob)."""
    return lambda path: path.write_bytes(change(path.read_bytes()))


def evaluate_corrupt_checkpoint(tmp_path, capsys, spoil) -> str:
    """stderr of `evaluate` on a 32 px checkpoint that `spoil(path)` damaged; asserts exit 2
    and one line."""
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    path = tmp_path / "out" / "train" / "checkpoint.bin"
    path.parent.mkdir(parents=True)
    save_checkpoint(build_deepbrainnet_mini(32, 4, seed=0, base_channels=4), path)
    spoil(path)
    assert run("evaluate", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def _header_value(offset, fmt, value):
    """Write `value` into the checkpoint's fixed header at byte `offset`."""
    size = struct.calcsize(fmt)
    return _rewritten(lambda blob: blob[:offset] + struct.pack(fmt, value) + blob[offset + size:])


def _directory(path):
    path.unlink()
    path.mkdir()


def _middle_kind_code(blob):
    """The middle shape-table record's kind code changed to another kind's."""
    pos = 32  # magic and fixed header
    for _ in range(struct.unpack_from("<I", blob, 28)[0] // 2):
        pos += 2 + 4 * blob[pos + 1]
    code = 1 if blob[pos] != 1 else 4
    return blob[:pos] + bytes([code]) + blob[pos + 1:]


# (case, how the saved 32 px checkpoint is spoiled, a fragment of the message)
BAD_CHECKPOINTS = [
    ("empty", _rewritten(lambda blob: b""), "bad magic"),
    ("truncated", _rewritten(lambda blob: blob[:40]), "truncated checkpoint"),
    ("bad magic", _rewritten(lambda blob: b"X" + blob[1:]), "bad magic"),
    ("input_size 8", _header_value(12, "<I", 8), "input_size must be >= 16"),
    ("dropout 1.5", _header_value(24, "<f", 1.5), "dropout rate must be in [0, 1), got 1.5"),
    ("dropout nan", _header_value(24, "<f", math.nan), "dropout rate must be in [0, 1), got nan"),
    # no weight depends on the input size, so these are the bytes of seed 0's 48 px checkpoint
    ("48 px in a 32 px run", _header_value(12, "<I", 48), "input_size 48, but image_size is 32"),
    ("version 2", _header_value(8, "<I", 2), "unsupported checkpoint version 2"),
    ("kind code of a middle record", _rewritten(_middle_kind_code), "disagrees with its shape table"),
    ("directory", _directory, "Is a directory"),
]


@pytest.mark.parametrize("spoil,fragment", [case[1:] for case in BAD_CHECKPOINTS],
                         ids=[case[0] for case in BAD_CHECKPOINTS])
def test_evaluate_names_a_bad_checkpoint_in_one_data_error_line(tmp_path, capsys, spoil, fragment):
    err = evaluate_corrupt_checkpoint(tmp_path, capsys, spoil)
    assert err.startswith("data error: ") and "Traceback" not in err, err
    assert str(tmp_path / "out" / "train" / "checkpoint.bin") in err and fragment in err, err


@pytest.fixture(scope="module")
def masked_run(tmp_path_factory):
    """A finished synth, preprocess, fcm (masks on) and train run, and the validation
    image that both train and evaluate read."""
    root = tmp_path_factory.mktemp("masked_run")
    cfg = write_config(root / "run.cfg", dataset_root=root / "dataset", output_dir=root / "out",
                       fcm_mask_enabled="true", epochs=1, base_channels=4)
    for command in ("synth", "preprocess", "fcm", "train"):
        assert run(command, "--config", cfg) == 0, command
    config = parse_config(cfg)
    _, val_manifest, _ = cli._split(config, cli._preprocessed_manifest(config))
    return root, val_manifest.entries[0][0]


def _cut_inside_last(text: bytes, field: bytes, keep: int):
    """Cut `text` `keep` bytes into the last occurrence of `field`."""
    return text[:text.rindex(field) + keep]


def _in_header(old: bytes, new: bytes):
    return _rewritten(lambda blob: blob.replace(old, new, 1))


def _after_first_line(junk: bytes):
    return _rewritten(lambda blob: blob.replace(b"\n", b"\n" + junk, 1))


# Every file train and evaluate read, by its path under output_dir, and the commands that
# read it (fcm also reads the preprocessed images and their manifest); `{val}` is the
# validation image's path without `.pgm`, `sha` the key its run record checks.
READ_FILES = {
    "manifest": ("preprocessed/manifest.csv", ("fcm", "train", "evaluate")),
    "image": ("preprocessed/{val}.pgm", ("fcm", "train", "evaluate")),
    "label map": ("fcm/{val}_labels.pgm", ("train", "evaluate")),
    "fcm record": ("runrecord_fcm.txt", ("train", "evaluate")),
    "train record": ("runrecord_train.txt", ("evaluate",)),
}
_PGM_CORRUPTIONS = [
    ("empty", _rewritten(lambda blob: b""), 2),
    ("truncated", _rewritten(lambda blob: blob[:-10]), 2),
    ("maxval 0", _in_header(b"\n255\n", b"\n0\n"), 2),
    ("width 31", _in_header(b"32 32", b"31 32"), 2),
    ("directory", _directory, 2),
    ("missing", Path.unlink, 2),
]


def _record_corruptions(key: bytes):
    return [
        ("empty", _rewritten(lambda blob: b""), 0),  # no line to compare: the check passes
        ("truncated", _rewritten(lambda blob: _cut_inside_last(blob, key, len(key) + 12)), 2),
        ("non-UTF-8", _after_first_line(b"\xff\n"), 2),
        ("another digest", _rewritten(lambda blob: re.sub(key + rb": \w+", key + b": " + b"0" * 64, blob)), 2),
        ("directory", _directory, 0),  # not a file, so no record: the check passes
        ("missing", Path.unlink, 0),
    ]


# (file, corruption, how the file is spoiled, exit code); the image rows run with masks off,
# since with masks on a changed image fails fcm's images_sha256 check before it is read
FAULTS = [
    *(("manifest", *case) for case in [
        ("empty", _rewritten(lambda blob: b""), 2),
        ("truncated", _rewritten(lambda blob: _cut_inside_last(blob, b",stripe", 4)), 2),
        ("non-UTF-8", _after_first_line(b"blank/caf\xff.pgm,0,blank\n"), 2),
        ("bad header field", _in_header(b",class_name", b",class"), 2),
        ("directory", _directory, 2),
        ("missing", Path.unlink, 2),
    ]),
    *(("image", *case) for case in _PGM_CORRUPTIONS),
    *(("label map", *case) for case in _PGM_CORRUPTIONS),
    *(("fcm record", *case) for case in _record_corruptions(b"images_sha256")),
    *(("train record", *case) for case in _record_corruptions(b"split_sha256")),
]
# fcm segments an image of any size, so a 31 px wide one is no fault there
SIZE_AGNOSTIC = {("fcm", "image", "width 31")}


@pytest.mark.parametrize("command,name,case,spoil,code", [
    (command, name, case, spoil, 0 if (command, name, case) in SIZE_AGNOSTIC else code)
    for name, case, spoil, code in FAULTS for command in READ_FILES[name][1]
], ids=[f"{command}-{name}-{case}" for name, case, _, _ in FAULTS for command in READ_FILES[name][1]])
def test_train_and_evaluate_on_a_damaged_input_exit_with_one_line_naming_it(
        masked_run, tmp_path, capsys, command, name, case, spoil, code):
    base, val = masked_run
    shutil.copytree(base / "dataset", tmp_path / "dataset")
    shutil.copytree(base / "out", tmp_path / "out")
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset", output_dir=tmp_path / "out",
                       fcm_mask_enabled=str(name != "image").lower(), epochs=1, base_channels=4)
    path = tmp_path / "out" / READ_FILES[name][0].format(val=val[:-4])
    spoil(path)
    before = _tree_bytes(tmp_path)
    capsys.readouterr()
    assert run(command, "--config", cfg) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("data error: ") and str(path) in lines[0], lines
        assert _tree_bytes(tmp_path) == before  # nothing written, in output_dir or elsewhere
        if name.endswith("record") and case == "truncated":  # a cut digest blames the record alone
            assert "is damaged" in lines[0] and "differ" not in lines[0], lines
    else:
        assert lines == []
        after = _tree_bytes(tmp_path)
        assert {k: v for k, v in after.items() if not k.startswith("out/")} == {
            k: v for k, v in before.items() if not k.startswith("out/")}


def _unwritable(path):
    path.mkdir()
    path.chmod(0o555)
    if os.access(path, os.W_OK):  # permission bits do not bind this user (root)
        path.chmod(0o755)
        pytest.skip("this user can write into a read-only directory")


# synth's rows: (case, how the dataset root is spoiled before synth runs)
SYNTH_FAULTS = [
    ("a file", lambda path: path.write_bytes(b"not a directory\n")),
    ("unwritable", _unwritable),
    ("an image path is a directory", lambda path: (path / "blank" / "blank_000.pgm").mkdir(parents=True)),
]


@pytest.mark.parametrize("spoil", [case[1] for case in SYNTH_FAULTS], ids=[case[0] for case in SYNTH_FAULTS])
def test_synth_into_a_bad_dataset_root_exits_2_with_one_line_naming_it(tmp_path, capsys, spoil):
    root = tmp_path / "dataset"
    cfg = write_config(tmp_path / "run.cfg", dataset_root=root, output_dir=tmp_path / "out")
    spoil(root)
    before = _tree_bytes(tmp_path)
    capsys.readouterr()
    try:
        assert run("synth", "--config", cfg) == 2
    finally:
        if root.is_dir():
            root.chmod(0o755)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: ") and str(root) in lines[0], lines
    assert _tree_bytes(tmp_path) == before  # no image, no .tmp file and no run record


# preprocess's rows: (case, how one dataset image is spoiled); one image of 16 is under
# the 10 % failure threshold, so preprocess skips it with one line and exits 0
PREPROCESS_FAULTS = [
    ("empty", _rewritten(lambda blob: b"")),
    ("truncated", _rewritten(lambda blob: blob[:-10])),
    ("directory", _directory),
    ("bad header", _rewritten(lambda blob: blob.replace(b"32 32", b"3x 32", 1))),
    ("maxval 256", _rewritten(lambda blob: blob.replace(b"\n255\n", b"\n256\n", 1))),
]


@pytest.mark.parametrize("spoil", [case[1] for case in PREPROCESS_FAULTS],
                         ids=[case[0] for case in PREPROCESS_FAULTS])
def test_preprocess_skips_a_damaged_dataset_image_with_one_line_naming_it(workspace, capsys, spoil):
    tmp_path, cfg = workspace
    assert run("synth", "--config", cfg) == 0
    victim = "ring/ring_002.pgm"
    spoil(tmp_path / "dataset" / victim)
    dataset = _tree_bytes(tmp_path / "dataset")
    capsys.readouterr()
    assert run("preprocess", "--config", cfg) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"preprocess: skipped {victim}: "), lines
    assert _tree_bytes(tmp_path / "dataset") == dataset  # the earlier stage's files are untouched
    listed = (tmp_path / "out" / "preprocessed" / "manifest.csv").read_text(encoding="utf-8")
    assert len(listed.splitlines()) == 1 + 15 and victim not in listed
    assert not (tmp_path / "out" / "preprocessed" / victim).exists()
    assert sorted(os.listdir(tmp_path)) == ["dataset", "out", "run.cfg"]


def test_evaluate_truncated_checkpoint_is_data_error(tmp_path, capsys):
    err = evaluate_corrupt_checkpoint(tmp_path, capsys, _rewritten(lambda blob: blob[:40]))
    assert err.startswith("data error: truncated checkpoint")


def test_evaluate_huge_class_count_is_data_error(tmp_path, capsys):
    patched = (2**30).to_bytes(4, "little")
    err = evaluate_corrupt_checkpoint(tmp_path, capsys,
                                      _rewritten(lambda blob: blob[:16] + patched + blob[20:]))
    assert err.startswith("data error: header of") and "disagrees with its shape table" in err


def test_evaluate_nan_weight_checkpoint_is_data_error(tmp_path, capsys):
    nan = np.array([np.nan], dtype="<f4").tobytes()
    err = evaluate_corrupt_checkpoint(tmp_path, capsys, _rewritten(lambda blob: blob[:-8] + nan + blob[-4:]))
    assert err.startswith("data error: non-finite value in head.dense.bias of ")


def test_evaluate_on_float32_overflowing_weights_is_numeric_failure(tmp_path, capsys):
    """Finite weights of 1e18 pass the checkpoint's finiteness check but overflow the
    float32 forward: one `numeric failure` line naming the checkpoint, no warning."""
    out, cfg = pipeline(tmp_path)
    path = out / "train" / "checkpoint.bin"
    network = load_checkpoint(path)
    network.flat_params *= np.float32(1e18)
    save_checkpoint(network, path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as `-W error`: a RuntimeWarning would raise
        assert run("evaluate", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"numeric failure: checkpoint {str(path)!r} overflows float32"), err


def test_evaluate_on_224_px_overflowing_weights_on_workers_is_numeric_failure(
        tmp_path, capsys, monkeypatch):
    """At 224 px each validation image is a chunk that a worker thread runs, and numpy's
    error state is per thread: the workers take evaluate's, so the overflow is one
    `numeric failure` line, not a RuntimeWarning raised in a worker."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", image_size=224, synth_per_class=2,
                       train_fraction=0.5)
    for command in ("synth", "preprocess"):
        assert run(command, "--config", cfg) == 0, command
    network = build_deepbrainnet_mini(224, 4, seed=3, dtype=np.float32)
    network.flat_params *= np.float32(1e18)
    path = tmp_path / "out" / "train" / "checkpoint.bin"
    path.parent.mkdir()
    save_checkpoint(network, path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as `-W error`: a RuntimeWarning would raise
        assert run("evaluate", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert re.match(rf"numeric failure: checkpoint {re.escape(repr(str(path)))} overflows "
                    r"float32: 4 of 4 validation score rows are not finite", err), err


def _float_view(planes):
    """The (N, 3, H, W) float32 one-plane view `_to_tensor` returned before the
    network took uint8 pixel values."""
    gray = np.divide(planes, 255.0, dtype=np.float32)
    return np.broadcast_to(gray[:, None], (gray.shape[0], 3, *gray.shape[1:]))


@pytest.mark.parametrize("workers", [1, 4])
def test_the_uint8_tensor_predicts_and_trains_as_the_float_view_it_replaced(monkeypatch, workers):
    """`_to_tensor` is a read-only uint8 view of one plane. The network divides each
    chunk by 255 where it runs, so `predict` and `train_step` give the float32 view's
    probabilities, loss and gradients bit for bit, on one worker and on four."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: workers)
    n = 5
    planes = Prng(7).belows(np.full((n, 224, 224), 256)).astype(np.uint8)
    tensor = cli._to_tensor(planes)
    assert tensor.dtype == np.uint8 and tensor.shape == (n, 3, 224, 224)
    assert not tensor.flags.writeable
    assert tensor.strides[1] == 0 and np.shares_memory(tensor, planes)
    reference = _float_view(planes)
    net = build_deepbrainnet_mini(224, 4, seed=9, dtype=np.float32)
    assert np.array_equal(predict(net, tensor), predict(net, reference))
    labels = np.arange(n) % 4
    outcomes = []
    for x in (tensor, reference):
        loss, probs = net.train_step(x, labels, Prng(10))
        outcomes.append([loss, probs, *(g.copy() for g in net.gradients())])
    for k, (a, b) in enumerate(zip(*outcomes, strict=True)):
        assert np.array_equal(a, b), k


def test_evaluate_on_a_preprocessed_image_of_another_size_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", dataset_root=tmp_path / "dataset",
                       output_dir=tmp_path / "out", epochs=1)
    for command in ("synth", "preprocess", "train"):
        assert run(command, "--config", cfg) == 0, command
    config = parse_config(cfg)
    _, val_manifest, _ = cli._split(config, cli._preprocessed_manifest(config))
    path = val_manifest.full_path(val_manifest.entries[-1][0])
    save_pgm(GrayImage(31, 32, np.zeros((32, 31), dtype=np.uint8)), path)
    capsys.readouterr()
    assert run("evaluate", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"data error: preprocessed image {path!r} is 31x32, not 32x32"), err


def test_diverging_training_is_numeric_failure(tmp_path):
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
        learning_rate=1e30,
        epochs=6,
    )
    assert run("synth", "--config", cfg) == 0
    assert run("preprocess", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 3


def test_cli_seed_override_changes_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "run.cfg",
        dataset_root=tmp_path / "dataset",
        output_dir=tmp_path / "out",
    )
    assert run("synth", "--config", cfg) == 0
    first = next((tmp_path / "dataset" / "blob").glob("*.pgm")).read_bytes()
    assert run("synth", "--config", cfg, "--seed", "99") == 0
    second = next((tmp_path / "dataset" / "blob").glob("*.pgm")).read_bytes()
    assert first != second


# ---------------------------------------------------------------------------
# report-demo
# ---------------------------------------------------------------------------


def test_report_demo_prints_reference_macros(capsys):
    assert run("report-demo") == 0
    out = capsys.readouterr().out
    assert "Glioma tumor" in out
    assert "Pituitary tumor" in out
    assert "macro avg" in out
    assert "0.886" in out  # macro f1 at three decimals


def test_reference_macros_match_hand_mean():
    macros = cli.reference_macro_metrics()
    assert macros["macro_f1"] == pytest.approx((0.923 + 0.808 + 0.909 + 0.905) / 4)
    assert macros["macro_precision"] == pytest.approx((0.914 + 0.819 + 0.946 + 0.868) / 4)
    assert macros["macro_recall"] == pytest.approx((0.932 + 0.798 + 0.875 + 0.945) / 4)
