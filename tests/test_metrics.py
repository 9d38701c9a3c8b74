import signal
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from deepbrainnet.metrics import (
    auc_trapezoid,
    class_metrics,
    classification_report,
    confusion_matrix,
    confusion_svg,
    confusion_to_csv,
    report_to_csv,
    report_to_text,
    roc_curve,
    roc_svg,
    roc_to_csv,
)
from deepbrainnet.rng import Prng


def pairwise_rank_auc(scores, labels, positive_class):
    """Brute force over all (positive, negative) pairs; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == positive_class]
    neg = [s for s, y in zip(scores, labels) if y != positive_class]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# confusion matrix
# ---------------------------------------------------------------------------


def test_perfect_predictions_are_diagonal():
    cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert np.array_equal(cm.counts, np.diag([1, 2, 1]))


def test_hand_counted_matrix():
    cm = confusion_matrix([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0], 3)
    assert cm.counts.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]


def test_empty_input_gives_zero_matrix():
    cm = confusion_matrix([], [], 3)
    assert cm.counts.sum() == 0


def test_out_of_range_label_rejected():
    with pytest.raises(ValueError):
        confusion_matrix([0, 3], [0, 0], 3)
    with pytest.raises(ValueError):
        confusion_matrix([0, 0], [0, -1], 3)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        confusion_matrix([0, 1], [0], 2)


# ---------------------------------------------------------------------------
# per-class metrics
# ---------------------------------------------------------------------------


def test_binary_case_evaluates_ratio_formulas():
    # TP=3, FP=1, FN=1 -> precision = recall = 0.75, and f1 = harmonic mean
    cm = confusion_matrix([0] * 4 + [1] * 4, [0, 0, 0, 1, 1, 1, 1, 0], 2)
    metrics = class_metrics(cm)
    assert metrics[0].precision == pytest.approx(0.75)
    assert metrics[0].recall == pytest.approx(0.75)
    assert metrics[0].f1 == pytest.approx(0.75)


def test_absent_class_gets_zero_convention():
    cm = confusion_matrix([0, 0, 1], [0, 0, 1], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metrics = class_metrics(cm)
    assert (metrics[2].precision, metrics[2].recall, metrics[2].f1) == (0.0, 0.0, 0.0)
    assert metrics[2].support == 0


def test_diagonal_matrix_is_perfect():
    cm = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
    for m in class_metrics(cm):
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def random_confusion(rng, k, peak=30):
    counts = [[rng.below(peak) for _ in range(k)] for _ in range(k)]
    y_true, y_pred = [], []
    for i in range(k):
        for j in range(k):
            y_true.extend([i] * counts[i][j])
            y_pred.extend([j] * counts[i][j])
    if not y_true:  # ensure at least one sample
        y_true, y_pred = [0], [0]
    return confusion_matrix(y_true, y_pred, k)


def test_f1_is_harmonic_mean_identity():
    rng = Prng(90)
    for _ in range(200):
        cm = random_confusion(rng, 2 + rng.below(4))
        for m in class_metrics(cm):
            if m.precision + m.recall > 0:
                expected = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert abs(m.f1 - expected) < 1e-12
            else:
                assert m.f1 == 0.0


def report_of(cm):
    """classification_report over one-hot rows whose argmax reproduces cm."""
    k = cm.n_classes
    cells = np.repeat(np.arange(k * k), cm.counts.ravel())
    return classification_report(cells // k, one_hot(cells % k, k), cm.class_names)


def test_accuracy_equals_micro_precision_and_recall():
    rng = Prng(91)
    for _ in range(100):
        cm = random_confusion(rng, 3)
        if cm.total == 0:
            continue
        tp = float(np.trace(cm.counts))
        fp = float(cm.counts.sum() - np.trace(cm.counts))
        micro_precision = tp / (tp + fp)
        fn = float(cm.counts.sum() - np.trace(cm.counts))
        micro_recall = tp / (tp + fn)
        report = report_of(cm)
        assert np.array_equal(report.confusion.counts, cm.counts)
        assert report.accuracy == pytest.approx(micro_precision, abs=1e-12)
        assert report.accuracy == pytest.approx(micro_recall, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_equal_supports_make_weighted_equal_macro():
    report = report_of(confusion_matrix([0, 0, 1, 1, 2, 2], [0, 1, 1, 0, 2, 2], 3))
    assert abs(report.weighted_f1 - report.macro_f1) < 1e-12
    assert abs(report.weighted_precision - report.macro_precision) < 1e-12


def test_single_class_accuracy_equals_recall():
    report = report_of(confusion_matrix([1, 1, 1, 1], [1, 1, 0, 1], 2))
    assert report.accuracy == pytest.approx(report.per_class[1].recall)


def test_reference_macro_aggregation():
    # bundled published per-class values; macro means evaluated directly
    f1s = (0.923, 0.808, 0.909, 0.905)
    precisions = (0.914, 0.819, 0.946, 0.868)
    assert sum(f1s) / 4 == pytest.approx(0.88625)
    assert sum(precisions) / 4 == pytest.approx(0.88675)


def test_report_rejects_empty():
    with pytest.raises(ValueError, match="zero samples"):
        classification_report([], np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------


def test_perfectly_separating_scores():
    curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 1)
    assert curve.auc == pytest.approx(1.0)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


def test_textbook_four_sample_case():
    # pairs: (0.35 vs 0.1) win, (0.35 vs 0.4) loss, (0.8 vs both) wins -> 3/4
    curve = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1], 1)
    assert curve.auc == pytest.approx(0.75)
    assert curve.auc == pytest.approx(pairwise_rank_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1], 1))


@pytest.mark.parametrize("scores", [[0.5, 0.5, 0.5, 0.5], [0.0, -0.0, -0.0, 0.0]], ids=["0.5", "signed zeros"])
def test_all_tied_scores_give_chance_level(scores):
    curve = roc_curve(scores, [0, 1, 0, 1], 1)
    assert curve.auc == pytest.approx(0.5)
    assert len(curve.fpr) == 2  # one step: (0,0) then (1,1)


def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.2], [1, 1], 1)


@pytest.fixture()
def within_5_s():
    """Fails the test after 5 s, so a ROC sweep that never steps past a NaN fails, not hangs."""

    def hung(signum, frame):
        raise AssertionError("did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_roc_rejects_non_finite_scores(within_5_s, bad):
    with pytest.raises(ValueError, match="non-finite"):
        roc_curve([0.5, bad], [0, 1], 1)


def test_roc_is_monotone():
    rng = Prng(92)
    for _ in range(50):
        n = 6 + rng.below(30)
        scores = [rng.below(8) / 8 for _ in range(n)]
        labels = [rng.below(2) for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        curve = roc_curve(scores, labels, 1)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)


def test_trapezoid_equals_rank_statistic_with_ties():
    rng = Prng(93)
    for _ in range(300):
        n = 4 + rng.below(40)
        # coarse grid of scores forces plenty of ties
        scores = [rng.below(6) / 6 for _ in range(n)]
        labels = [rng.below(2) for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        curve = roc_curve(scores, labels, 1)
        assert curve.auc == pytest.approx(pairwise_rank_auc(scores, labels, 1), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = Prng(94)
    scores = [rng.uniform() for _ in range(40)]
    labels = [rng.below(2) for _ in range(40)]
    base = roc_curve(scores, labels, 1)
    transformed = roc_curve([np.exp(3 * s) for s in scores], labels, 1)
    assert np.array_equal(base.fpr, transformed.fpr)
    assert np.array_equal(base.tpr, transformed.tpr)
    assert base.auc == transformed.auc


def test_unit_square_and_diagonal_curves():
    assert auc_trapezoid([0, 0, 1], [0, 1, 1]) == pytest.approx(1.0)
    assert auc_trapezoid([0, 1], [0, 1]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------


def one_hot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def test_perfect_one_hot_report():
    labels = [0, 1, 2, 0, 1, 2]
    report = classification_report(labels, one_hot(labels, 3))
    assert report.accuracy == 1.0
    assert report.macro_f1 == pytest.approx(1.0)
    assert np.array_equal(report.confusion.counts, np.diag([2, 2, 2]))


def test_report_keeps_the_confusion_matrix_of_its_predictions():
    labels, scores = sample_report()
    report = classification_report(labels, scores, class_names=("a", "b", "c"))
    cm = confusion_matrix(labels, scores.argmax(axis=1), 3, ("a", "b", "c"))
    assert np.array_equal(report.confusion.counts, cm.counts)
    assert report.confusion.class_names == ("a", "b", "c")
    assert tuple(m.support for m in report.per_class) == tuple(cm.supports())


def test_report_rows_follow_class_name_order():
    labels = [0, 1, 0, 1]
    report = classification_report(labels, one_hot(labels, 2), class_names=("neg", "pos"))
    assert tuple(m.name for m in report.per_class) == ("neg", "pos")


def test_argmax_ties_pick_lowest_class():
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    report = classification_report([0, 1], scores)
    # both rows predicted class 0
    assert report.per_class[0].support == 1
    assert report.per_class[0].recall == 1.0
    assert report.per_class[1].recall == 0.0


def test_report_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        classification_report([0, 1], np.array([[0.9, 0.3], [0.5, 0.5]]))


def test_report_rejects_a_nan_row(within_5_s):
    with pytest.raises(ValueError, match="sum to 1"):
        classification_report([0, 1], np.array([[np.nan, 0.5], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def sample_report():
    labels = [0, 0, 0, 1, 1, 2, 2, 2]
    scores = one_hot(labels, 3) * 0.7 + 0.1
    scores[3] = [0.6, 0.3, 0.1]  # one mistake
    scores /= scores.sum(axis=1, keepdims=True)
    return labels, scores


def sample_curves(labels, scores):
    return [roc_curve(scores[:, j], labels, j) for j in range(scores.shape[1])]


def test_report_csv_and_text():
    labels, scores = sample_report()
    report = classification_report(labels, scores, class_names=("a", "b", "c"))
    curves = sample_curves(labels, scores)
    lines = report_to_csv(report, curves).strip().splitlines()
    assert lines[0] == "label,precision,recall,f1,support,auc"
    assert len(lines) == 1 + 3 + 3  # classes + accuracy/macro/weighted
    assert [line.split(",")[-1] for line in lines[1:4]] == [f"{c.auc:.3f}" for c in curves]
    assert lines[4].startswith("accuracy,,,")
    macro_auc = f"{np.mean([c.auc for c in curves]):.3f}"
    assert lines[5].split(",")[-1] == macro_auc
    text = report_to_text(report, curves)
    assert "macro avg" in text and "weighted avg" in text
    assert text.splitlines()[-1].split() == ["macro", "auc", macro_auc]
    for value in text.split():
        if value.replace(".", "").isdigit() and "." in value:
            assert len(value.split(".")[1]) == 3  # three decimals everywhere


def test_confusion_csv_layout():
    cm = confusion_matrix([0, 1, 1], [0, 1, 0], 2, ("x", "y"))
    lines = confusion_to_csv(cm).strip().splitlines()
    assert lines[0] == "true\\pred,x,y"
    assert lines[1] == "x,1,0"
    assert lines[2] == "y,1,1"


def test_roc_csv_columns():
    curve = roc_curve([0.9, 0.1], [1, 0], 1)
    lines = roc_to_csv(curve).strip().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == 1 + len(curve.fpr)


def test_roc_svg_has_one_polyline_per_class():
    labels, scores = sample_report()
    svg = roc_svg(sample_curves(labels, scores), ("a", "b", "c"))
    assert svg.count("<polyline") == 3
    assert "AUC=" in svg
    assert svg.startswith("<svg")


def test_confusion_svg_has_k_squared_cells():
    cm = confusion_matrix([0, 1, 2], [0, 1, 2], 3, ("a", "b", "c"))
    svg = confusion_svg(cm)
    assert svg.count("<rect") == 1 + 9  # background + cells


def test_svg_text_escapes_class_names():
    names = ("a&b", "<c>", 'say "d"')
    labels, scores = sample_report()
    svgs = (roc_svg(sample_curves(labels, scores), names),
            confusion_svg(confusion_matrix([0, 1, 2], [0, 2, 1], 3, names)))
    for svg in svgs:
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        for class_name in names:
            assert any(text.startswith(class_name) for text in texts)
