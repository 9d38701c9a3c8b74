"""Multiclass evaluation: confusion matrix, per-class metrics, ROC/AUC, reports.

Per class j the confusion matrix yields TP = cm[j][j], FP = column j minus TP,
FN = row j minus TP; precision = TP/(TP+FP), recall = TP/(TP+FN), and F1 is
their harmonic mean. Any 0/0 is reported as 0. One-vs-rest ROC curves sweep
the distinct scores descending (tied scores enter in a single step), which
makes trapezoidal AUC coincide with the pairwise rank statistic with ties
counted one half.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (K, K) int64; rows = true class, columns = predicted
    class_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def supports(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class Report:
    confusion: ConfusionMatrix
    per_class: tuple[ClassMetrics, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float


def _default_names(k: int) -> tuple[str, ...]:
    return tuple(f"class_{i}" for i in range(k))


def confusion_matrix(y_true, y_pred, n_classes: int, class_names=None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    for name, labels in (("true", y_true), ("predicted", y_pred)):
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError(f"{name} label out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    names = tuple(class_names) if class_names is not None else _default_names(n_classes)
    if len(names) != n_classes:
        raise ValueError("class_names length must equal n_classes")
    return ConfusionMatrix(counts, names)


def _rates(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F1 of every class; any 0/0 reads 0."""

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)

    tp = np.diag(counts).astype(np.float64)
    precision = ratio(tp, counts.sum(axis=0))
    recall = ratio(tp, counts.sum(axis=1))
    return precision, recall, ratio(2.0 * precision * recall, precision + recall)


def class_metrics(cm: ConfusionMatrix) -> list[ClassMetrics]:
    rates = (rate.tolist() for rate in _rates(cm.counts))
    return list(map(ClassMetrics, cm.class_names, *rates, cm.supports().tolist()))


def roc_curve(scores, y_true, positive_class: int) -> RocCurve:
    """One-vs-rest ROC for one class over a descending distinct-score sweep.

    The curve starts at (0, 0) (threshold above every score) and ends at
    (1, 1). Its points are the cumulative counts at the last sample of each
    run of equal scores, so samples sharing a score enter in one step.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError(f"class {positive_class} has non-finite scores; ROC undefined")
    y = np.asarray(y_true) == positive_class
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"class {positive_class} has {n_pos} positives and {n_neg} negatives; ROC undefined"
        )
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    last = np.append(s[1:] != s[:-1], True)
    tp = np.cumsum(y[order])[last]
    fp = np.flatnonzero(last) + 1 - tp
    fpr = np.append(0.0, fp / n_neg)
    tpr = np.append(0.0, tp / n_pos)
    return RocCurve(fpr, tpr, auc_trapezoid(fpr, tpr))


def auc_trapezoid(fpr, tpr) -> float:
    """Trapezoidal area under the (fpr, tpr) polyline."""
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    return float((np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0).sum())


def classification_report(y_true, scores, class_names=None) -> Report:
    """Confusion matrix, per-class metrics and their averages from probability rows.

    Predictions are per-row argmax with ties resolved toward the lower class
    index. Rows must sum to 1 within 1e-6; a row holding NaN fails that check.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be an n x K matrix")
    if not (np.abs(scores.sum(axis=1) - 1.0) <= 1e-6).all():
        raise ValueError("score rows must sum to 1 within 1e-6")
    cm = confusion_matrix(y_true, scores.argmax(axis=1), scores.shape[1], class_names)
    total = cm.total
    if total == 0:
        raise ValueError("cannot report over zero samples")
    precisions, recalls, f1s = _rates(cm.counts)
    weights = cm.supports() / total
    return Report(
        confusion=cm,
        per_class=tuple(class_metrics(cm)),
        accuracy=float(np.trace(cm.counts)) / total,
        macro_precision=float(precisions.mean()),
        macro_recall=float(recalls.mean()),
        macro_f1=float(f1s.mean()),
        weighted_precision=float((precisions * weights).sum()),
        weighted_recall=float((recalls * weights).sum()),
        weighted_f1=float((f1s * weights).sum()),
    )


# ---------------------------------------------------------------------------
# Exports: each returns the text of one file; the caller writes it
# ---------------------------------------------------------------------------


def _macro_auc(curves) -> float:
    return float(np.mean([curve.auc for curve in curves]))


def report_to_csv(report: Report, curves) -> str:
    """Per-class rows then accuracy / macro / weighted rows, three decimals.

    `curves` holds each class's ROC curve, in class order, for the AUC column.
    """
    total = report.confusion.total
    lines = ["label,precision,recall,f1,support,auc"]
    for m, curve in zip(report.per_class, curves):
        lines.append(f"{m.name},{m.precision:.3f},{m.recall:.3f},{m.f1:.3f},{m.support},{curve.auc:.3f}")
    lines.append(f"accuracy,,,{report.accuracy:.3f},{total},")
    lines.append(
        f"macro_avg,{report.macro_precision:.3f},{report.macro_recall:.3f},"
        f"{report.macro_f1:.3f},{total},{_macro_auc(curves):.3f}"
    )
    lines.append(
        f"weighted_avg,{report.weighted_precision:.3f},{report.weighted_recall:.3f},"
        f"{report.weighted_f1:.3f},{total},"
    )
    return "\n".join(lines) + "\n"


def report_to_text(report: Report, curves) -> str:
    """Fixed-width table, three decimals; `curves` as for `report_to_csv`."""
    total = report.confusion.total
    width = max(12, max(len(m.name) for m in report.per_class) + 2)
    lines = [f"{'label':<{width}}{'precision':>10}{'recall':>8}{'f1-score':>10}{'support':>9}{'auc':>8}"]
    for m, curve in zip(report.per_class, curves):
        lines.append(
            f"{m.name:<{width}}{m.precision:>10.3f}{m.recall:>8.3f}{m.f1:>10.3f}{m.support:>9}"
            f"{curve.auc:>8.3f}"
        )
    lines.append("")
    lines.append(f"{'accuracy':<{width}}{'':>10}{'':>8}{report.accuracy:>10.3f}{total:>9}")
    lines.append(
        f"{'macro avg':<{width}}{report.macro_precision:>10.3f}{report.macro_recall:>8.3f}"
        f"{report.macro_f1:>10.3f}{total:>9}"
    )
    lines.append(
        f"{'weighted avg':<{width}}{report.weighted_precision:>10.3f}{report.weighted_recall:>8.3f}"
        f"{report.weighted_f1:>10.3f}{total:>9}"
    )
    lines.append(f"{'macro auc':<{width}}{'':>10}{'':>8}{_macro_auc(curves):>10.3f}")
    return "\n".join(lines) + "\n"


def roc_to_csv(curve: RocCurve) -> str:
    lines = ["fpr,tpr"]
    for f, t in zip(curve.fpr, curve.tpr):
        lines.append(f"{f:.17g},{t:.17g}")
    return "\n".join(lines) + "\n"


def confusion_to_csv(cm: ConfusionMatrix) -> str:
    lines = ["true\\pred," + ",".join(cm.class_names)]
    for j, name in enumerate(cm.class_names):
        lines.append(name + "," + ",".join(str(int(v)) for v in cm.counts[j]))
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def roc_svg(curves, class_names) -> str:
    """Single-file SVG with one polyline per class and an AUC legend."""
    size, margin = 480, 60
    span = size - 2 * margin

    def sx(v):
        return margin + v * span

    def sy(v):
        return size - margin - v * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#bbbbbb" stroke-dasharray="6,4"/>',
    ]
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{sx(tick):.2f}" y="{size - margin + 18}" font-size="11" '
            f'text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(tick) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{size / 2:.0f}" y="{size - 14}" font-size="13" text-anchor="middle">'
        "False positive rate</text>"
    )
    parts.append(
        f'<text x="16" y="{size / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {size / 2:.0f})">True positive rate</text>'
    )
    for idx, (curve, name) in enumerate(zip(curves, class_names)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t in zip(curve.fpr, curve.tpr))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>')
        ly = margin + 16 + 16 * idx
        parts.append(
            f'<rect x="{size - margin - 160}" y="{ly - 9}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{size - margin - 145}" y="{ly}" font-size="11">'
            f"{html.escape(name)} (AUC={curve.auc:.3f})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def confusion_svg(cm: ConfusionMatrix) -> str:
    """Heatmap SVG; cell shading scales with count."""
    k = cm.n_classes
    cell, left, top = 64, 120, 60
    width = left + k * cell + 20
    height = top + k * cell + 40
    peak = max(1, int(cm.counts.max()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + k * cell / 2:.0f}" y="24" font-size="13" text-anchor="middle">'
        "Confusion matrix (rows: true, columns: predicted)</text>",
    ]
    for j in range(k):
        name = html.escape(cm.class_names[j])
        parts.append(
            f'<text x="{left + j * cell + cell / 2:.0f}" y="{top - 10}" font-size="11" '
            f'text-anchor="middle">{name}</text>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{top + j * cell + cell / 2 + 4:.0f}" font-size="11" '
            f'text-anchor="end">{name}</text>'
        )
        for i in range(k):
            value = int(cm.counts[j, i])
            shade = 255 - int(round(190 * value / peak))
            text_fill = "black" if shade > 128 else "white"
            parts.append(
                f'<rect x="{left + i * cell}" y="{top + j * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="#888888"/>'
            )
            parts.append(
                f'<text x="{left + i * cell + cell / 2:.0f}" y="{top + j * cell + cell / 2 + 4:.0f}" '
                f'font-size="12" text-anchor="middle" fill="{text_fill}">{value}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
