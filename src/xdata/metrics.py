"""Evaluation metrics: unweighted average recall, Pearson correlation,
test-set scoring, and pseudo-label quality against withheld ground truth."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dataset import REGRESSION, MultiTargetDataset, Standardizer
from .model import MtShlNetwork, mc_predict


def uar(true_labels: Sequence[int], predicted: Sequence[int], n_classes: int) -> float:
    """Unweighted average recall over the classes present in `true_labels`."""
    t = np.asarray(true_labels, dtype=int)
    p = np.asarray(predicted, dtype=int)
    if len(t) == 0:
        raise ValueError("uar requires non-empty input")
    if len(t) != len(p):
        raise ValueError("true and predicted lengths differ")
    if t.min() < 0 or t.max() >= n_classes or p.min() < 0 or p.max() >= n_classes:
        raise ValueError("labels out of range")
    return float(np.mean(list(per_class_recalls(t, p, n_classes).values())))


def per_class_recalls(true_labels, predicted, n_classes: int) -> dict[int, float]:
    """Recall of each class present in `true_labels`, by class index."""
    t = np.asarray(true_labels, dtype=int)
    p = np.asarray(predicted, dtype=int)
    totals = np.bincount(t, minlength=n_classes)
    hits = np.bincount(t[t == p], minlength=n_classes)
    return {int(c): float(hits[c] / totals[c]) for c in np.flatnonzero(totals)}


def pearson_cc(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation. Zero-variance input warns and returns NaN."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if len(xa) != len(ya):
        raise ValueError("vectors must have equal length")
    if len(xa) < 2:
        raise ValueError("pearson_cc requires n >= 2")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        warnings.warn("pearson_cc: zero-variance input, correlation undefined")
        return float("nan")
    return float(dx @ dy / np.sqrt(sx * sy))


@dataclass
class TaskMetrics:
    kind: str
    n: int
    evaluable: bool = True
    uar: Optional[float] = None
    recalls: Optional[dict[str, float]] = None
    cc: Optional[float] = None
    # the n defined cells: original units (regression) or class indices
    true: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    predicted: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


@dataclass
class MetricReport:
    tasks: dict[str, TaskMetrics] = field(default_factory=dict)

    def column_names(self) -> list[str]:
        cols = []
        for name, tm in self.tasks.items():
            cols.append(f"cc_{name}" if tm.kind == REGRESSION else f"uar_{name}")
        return cols

    def column_values(self) -> list[Optional[float]]:
        vals = []
        for tm in self.tasks.values():
            if not tm.evaluable:
                vals.append(None)
            else:
                vals.append(tm.cc if tm.kind == REGRESSION else tm.uar)
        return vals


def evaluate(net: MtShlNetwork, eval_set: MultiTargetDataset,
             standardizer: Optional[Standardizer] = None) -> MetricReport:
    """Deterministic-mode test-set metrics per task.

    `eval_set` is in original units. With a standardizer, the network reads
    its features standardized by it and its regression predictions are mapped
    back to original units; the true values are never transformed. Instances
    whose true cell is undefined are excluded per task; a task with no
    defined cells is reported as not evaluable. Each evaluated task keeps its
    true and predicted values (``TaskMetrics.true``, ``.predicted``).
    """
    if [t.name for t in net.tasks] != [t.name for t in eval_set.tasks]:
        raise ValueError("evaluation set task schemas do not match the network")
    x = eval_set.features
    preds = mc_predict(net, x if standardizer is None else standardizer.transform_features(x))
    report = MetricReport()
    for m, task in enumerate(net.tasks):
        sel = eval_set.defined[:, m]
        n = int(sel.sum())
        if n == 0:
            report.tasks[task.name] = TaskMetrics(task.kind, 0, evaluable=False)
            continue
        y_true, y_pred = eval_set.labels[sel, m], preds[m].decoded[sel]
        if task.kind == REGRESSION:
            if standardizer is not None:
                y_pred = standardizer.inverse_target(m, y_pred)
            cc = pearson_cc(y_true, y_pred) if n >= 2 else None
            tm = TaskMetrics(task.kind, n, evaluable=cc is not None and not np.isnan(cc),
                             cc=cc)
        else:
            y_true = y_true.astype(int)
            recalls = per_class_recalls(y_true, y_pred, task.num_classes)
            named = {task.classes[c]: r for c, r in recalls.items()}
            # uar() of these labels, from the recalls at hand
            tm = TaskMetrics(task.kind, n, uar=float(np.mean(list(recalls.values()))),
                             recalls=named)
        tm.true, tm.predicted = y_true, y_pred
        report.tasks[task.name] = tm
    return report


@dataclass
class PseudoLabelReport:
    kind: str
    n_compared: int
    n_skipped: int  # assignments with no withheld truth (originally unlabeled rows)
    accuracy: Optional[float] = None  # classification
    accuracy_per_iteration: Optional[dict[int, float]] = None
    cc: Optional[float] = None  # regression
    mae: Optional[float] = None


def pseudo_label_accuracy(assignments, withheld_truth: MultiTargetDataset
                          ) -> dict[str, PseudoLabelReport]:
    """Compare pseudo-label assignments (`trainer.Assignments`) to the pre-drop
    ground-truth grid, both in original units.

    Assignments referencing cells undefined in the truth grid are skipped and
    counted separately.
    """
    reports: dict[str, PseudoLabelReport] = {}
    for m, task in enumerate(withheld_truth.tasks):
        mine = assignments.task_index == m
        instance = assignments.instance[mine]
        comparable = withheld_truth.defined[instance, m]
        n = int(comparable.sum())
        skipped = len(instance) - n
        if n == 0:
            reports[task.name] = PseudoLabelReport(task.kind, 0, skipped)
            continue
        truth = withheld_truth.labels[instance[comparable], m]
        assigned = assignments.value[mine][comparable]
        if task.kind == REGRESSION:
            cc = pearson_cc(truth, assigned) if n >= 2 else None
            if cc is not None and np.isnan(cc):
                cc = None  # undefined, as in `evaluate`
            mae = float(np.abs(truth - assigned).mean())
            reports[task.name] = PseudoLabelReport(task.kind, n, skipped,
                                                   cc=cc, mae=mae)
        else:
            hits = assigned.astype(int) == truth.astype(int)
            iteration = assignments.iteration[mine][comparable]
            reports[task.name] = PseudoLabelReport(
                task.kind, n, skipped, accuracy=float(hits.mean()),
                accuracy_per_iteration={int(i): float(hits[iteration == i].mean())
                                        for i in np.unique(iteration)},
            )
    return reports
