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

from .dataio import write_atomic


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
    class_names: tuple[str, ...]
    per_class: tuple[ClassMetrics, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total: int
    per_class_auc: tuple[float, ...] | None = None
    macro_auc: float | None = None


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


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def class_metrics(cm: ConfusionMatrix) -> list[ClassMetrics]:
    out = []
    counts = cm.counts
    for j, name in enumerate(cm.class_names):
        tp = float(counts[j, j])
        fp = float(counts[:, j].sum() - counts[j, j])
        fn = float(counts[j, :].sum() - counts[j, j])
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        out.append(ClassMetrics(name, precision, recall, f1, int(counts[j, :].sum())))
    return out


def aggregate(
    per_class: list[ClassMetrics],
    cm: ConfusionMatrix,
    per_class_auc=None,
) -> Report:
    total = cm.total
    if total == 0:
        raise ValueError("cannot aggregate over zero samples")
    supports = np.array([m.support for m in per_class], dtype=np.float64)
    if not np.array_equal(supports, cm.supports().astype(np.float64)):
        raise ValueError("per-class supports disagree with confusion-matrix row sums")
    precisions = np.array([m.precision for m in per_class])
    recalls = np.array([m.recall for m in per_class])
    f1s = np.array([m.f1 for m in per_class])
    weights = supports / total
    aucs = tuple(float(a) for a in per_class_auc) if per_class_auc is not None else None
    return Report(
        class_names=cm.class_names,
        per_class=tuple(per_class),
        accuracy=float(np.trace(cm.counts)) / total,
        macro_precision=float(precisions.mean()),
        macro_recall=float(recalls.mean()),
        macro_f1=float(f1s.mean()),
        weighted_precision=float((precisions * weights).sum()),
        weighted_recall=float((recalls * weights).sum()),
        weighted_f1=float((f1s * weights).sum()),
        total=total,
        per_class_auc=aucs,
        macro_auc=float(np.mean(aucs)) if aucs else None,
    )


def roc_curve(scores, y_true, positive_class: int) -> RocCurve:
    """One-vs-rest ROC for one class over a descending distinct-score sweep.

    The curve starts at (0, 0) (threshold above every score) and ends at
    (1, 1); samples sharing a score enter in one step.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y_true) == positive_class
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"class {positive_class} has {n_pos} positives and {n_neg} negatives; ROC undefined"
        )
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = y[order]

    fpr = [0.0]
    tpr = [0.0]
    tp = fp = 0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i:j].sum())
        fp += (j - i) - int(sorted_pos[i:j].sum())
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        i = j
    fpr_arr = np.array(fpr)
    tpr_arr = np.array(tpr)
    return RocCurve(fpr_arr, tpr_arr, auc_trapezoid(fpr_arr, tpr_arr))


def auc_trapezoid(fpr, tpr) -> float:
    """Trapezoidal area under the (fpr, tpr) polyline."""
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    return float((np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0).sum())


def classification_report(y_true, scores, class_names=None) -> Report:
    """Full report from per-sample probability rows.

    Predictions are per-row argmax with ties resolved toward the lower class
    index. Rows must sum to 1 within 1e-6. Includes per-class one-vs-rest AUC
    and their macro average.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be an n x K matrix")
    row_sums = scores.sum(axis=1)
    if scores.shape[0] and np.abs(row_sums - 1.0).max() > 1e-6:
        raise ValueError("score rows must sum to 1 within 1e-6")
    k = scores.shape[1]
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = scores.argmax(axis=1)
    cm = confusion_matrix(y_true, y_pred, k, class_names)
    per_class = class_metrics(cm)
    aucs = [roc_curve(scores[:, j], y_true, j).auc for j in range(k)]
    return aggregate(per_class, cm, per_class_auc=aucs)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def report_to_csv(report: Report, path) -> None:
    """Per-class rows then accuracy / macro / weighted rows, three decimals."""
    lines = ["label,precision,recall,f1,support,auc"]
    for i, m in enumerate(report.per_class):
        auc_cell = f"{report.per_class_auc[i]:.3f}" if report.per_class_auc else ""
        lines.append(f"{m.name},{m.precision:.3f},{m.recall:.3f},{m.f1:.3f},{m.support},{auc_cell}")
    lines.append(f"accuracy,,,{report.accuracy:.3f},{report.total},")
    macro_auc_cell = f"{report.macro_auc:.3f}" if report.macro_auc is not None else ""
    lines.append(
        f"macro_avg,{report.macro_precision:.3f},{report.macro_recall:.3f},"
        f"{report.macro_f1:.3f},{report.total},{macro_auc_cell}"
    )
    lines.append(
        f"weighted_avg,{report.weighted_precision:.3f},{report.weighted_recall:.3f},"
        f"{report.weighted_f1:.3f},{report.total},"
    )
    write_atomic(path, "\n".join(lines) + "\n")


def report_to_text(report: Report) -> str:
    """Fixed-width table, three decimals."""
    width = max(12, max(len(m.name) for m in report.per_class) + 2)
    header = f"{'label':<{width}}{'precision':>10}{'recall':>8}{'f1-score':>10}{'support':>9}"
    lines = [header]
    if report.per_class_auc:
        lines[0] += f"{'auc':>8}"
    for i, m in enumerate(report.per_class):
        row = f"{m.name:<{width}}{m.precision:>10.3f}{m.recall:>8.3f}{m.f1:>10.3f}{m.support:>9}"
        if report.per_class_auc:
            row += f"{report.per_class_auc[i]:>8.3f}"
        lines.append(row)
    lines.append("")
    lines.append(f"{'accuracy':<{width}}{'':>10}{'':>8}{report.accuracy:>10.3f}{report.total:>9}")
    lines.append(
        f"{'macro avg':<{width}}{report.macro_precision:>10.3f}{report.macro_recall:>8.3f}"
        f"{report.macro_f1:>10.3f}{report.total:>9}"
    )
    lines.append(
        f"{'weighted avg':<{width}}{report.weighted_precision:>10.3f}{report.weighted_recall:>8.3f}"
        f"{report.weighted_f1:>10.3f}{report.total:>9}"
    )
    if report.macro_auc is not None:
        lines.append(f"{'macro auc':<{width}}{'':>10}{'':>8}{report.macro_auc:>10.3f}")
    return "\n".join(lines) + "\n"


def roc_to_csv(curve: RocCurve, path) -> None:
    lines = ["fpr,tpr"]
    for f, t in zip(curve.fpr, curve.tpr):
        lines.append(f"{f:.17g},{t:.17g}")
    write_atomic(path, "\n".join(lines) + "\n")


def confusion_to_csv(cm: ConfusionMatrix, path) -> None:
    lines = ["true\\pred," + ",".join(cm.class_names)]
    for j, name in enumerate(cm.class_names):
        lines.append(name + "," + ",".join(str(int(v)) for v in cm.counts[j]))
    write_atomic(path, "\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def roc_svg(curves, class_names, path) -> None:
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
    write_atomic(path, "\n".join(parts) + "\n")


def confusion_svg(cm: ConfusionMatrix, path) -> None:
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
    write_atomic(path, "\n".join(parts) + "\n")
