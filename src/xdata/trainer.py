"""The cross-data label completion loop.

Repeatedly: split the grid into labeled/incomplete instance sets, train the
multi-task network on the labeled set, predict with confidences on the
incomplete set, and write the top-k most confident predictions per task into
the grid as pseudo-labels, until no cell is undefined (or a stopping rule
fires). Ground-truth cells are never overwritten and pseudo-labels are never
revised.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dataset import MultiTargetDataset, split, standardize
from .metrics import MetricReport, evaluate
from .model import MC_STREAM, NetworkConfig, init_network, mc_predict, train

logger = logging.getLogger(__name__)

STATUS_COMPLETED = "completed"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_STALLED = "stalled"


@dataclass
class CdlcConfig:
    # the cdlc.<field> configuration keys in echo order, then net.<field> (see xdata.cli)
    select_per_task: int = 1000
    max_iterations: Optional[int] = None
    min_confidence: dict[str, float] = field(default_factory=dict)  # per task
    retrain_from_scratch: bool = True
    eval_every_iteration: bool = True
    network: NetworkConfig = field(default_factory=NetworkConfig, metadata={"key": "net"})

    def validate(self) -> None:
        """Range checks; each message names the configuration key at fault."""
        if self.select_per_task < 1:
            raise ValueError("cdlc.select_per_task must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("cdlc.max_iterations must be >= 1")
        for task, value in sorted(self.min_confidence.items()):
            if not math.isfinite(value):
                raise ValueError(f"cdlc.min_confidence.{task} must be finite")
        self.network.validate()


@dataclass
class Assignments:
    """Pseudo-label assignments as parallel columns, in emission order:
    iteration, then task, then (-confidence, instance)."""

    iteration: np.ndarray  # int
    instance: np.ndarray  # int
    task_index: np.ndarray  # int
    value: np.ndarray  # float; class index, or regression value in original units
    confidence: np.ndarray  # float; of the prediction in the standardized space

    def __len__(self) -> int:
        return len(self.instance)


@dataclass
class IterationRecord:
    iteration: int
    filled: dict[str, int]
    boundary_confidence: dict[str, Optional[float]]  # confidence of the last accepted cell
    remaining: dict[str, int]  # undefined cells per task after assignment
    metrics: Optional[MetricReport] = None
    duration: float = 0.0


@dataclass
class CdlcResult:
    dataset: MultiTargetDataset  # the input with the assignments applied, original units
    records: list[IterationRecord]
    assignments: Assignments
    status: str
    # the last iteration's network scored on the evaluation set; None without
    # one or without an iteration
    final_metrics: Optional[MetricReport] = None


def select_top_k(confidence: np.ndarray, instance: np.ndarray, k: int,
                 min_confidence: Optional[float] = None) -> np.ndarray:
    """Positions of the k highest confidences of one task, ties to the lower
    instance index; candidates below `min_confidence` are excluded before
    truncation."""
    order = np.lexsort((instance, -confidence))
    if min_confidence is not None:
        order = order[confidence[order] >= min_confidence]
    return order[:k]


def run_cdlc(ds: MultiTargetDataset, config: CdlcConfig,
             eval_set: Optional[MultiTargetDataset] = None) -> CdlcResult:
    """Run the label-completion loop on `ds`, scoring on `eval_set` if given;
    both are in original units, and so is everything returned but the
    assignments' confidences.

    The loop works on a standardized copy of the label grid of `ds`
    (`dataset.standardize`) and reads the features of `ds`, shared and
    unchanged: the rows it trains on and the rows it predicts are gathered
    and standardized in place, with the same bits as rows of a standardized
    matrix. `evaluate` scores `eval_set` with the same statistics. Iteration i has
    the round seed s = network.seed + i: it trains a fresh network
    initialised from s (or warm-starts the previous one) on s's training
    stream, evaluates on `eval_set` if cdlc.eval_every_iteration is on (so
    record 0 reflects training on the original labels only), then assigns
    up to select_per_task pseudo-labels per task, ranked by MC dropout on
    s's MC stream (`model.MC_STREAM`). Terminates when the grid is complete,
    max_iterations is reached, or an iteration assigns nothing.
    Raises FloatingPointError naming the iteration if training diverges or
    a candidate's prediction or confidence is non-finite.
    """
    config.validate()
    if eval_set is not None and [t.name for t in eval_set.tasks] != [t.name for t in ds.tasks]:
        raise ValueError("evaluation set task schemas do not match the dataset")
    if not ds.defined.any():
        raise ValueError("dataset has no defined labels; nothing to train on")
    work, standardizer = standardize(ds)  # a new label grid over the shared features

    def gather(index):
        """The features of rows `index`, standardized in a new array."""
        x = work.features[index]
        return standardizer.transform_features(x, out=x)

    records: list[IterationRecord] = []
    chunks = [(np.zeros(0, int),) * 3 + (np.zeros(0),) * 2]  # Assignments field order
    status = STATUS_COMPLETED
    net = None
    iteration = 0
    while True:
        view = split(work)
        if len(view.incomplete_indices) == 0:
            break
        if config.max_iterations is not None and iteration >= config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        started = time.perf_counter()

        # the round seed keys its streams, warm-started or not
        net_cfg = replace(config.network, seed=config.network.seed + iteration)
        if net is None or config.retrain_from_scratch:
            net = init_network(net_cfg, work.n_features, work.tasks)
        else:
            net.config = net_cfg
        li = view.labeled_indices
        try:
            net = train(net, gather(li), work.labels[li], work.defined[li])
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {iteration}: {exc}") from None

        metrics = None
        if eval_set is not None and config.eval_every_iteration:
            metrics = evaluate(net, eval_set, standardizer)

        ui = view.incomplete_indices
        preds = mc_predict(net, gather(ui),
                           np.random.default_rng([net.config.seed, MC_STREAM]))

        filled: dict[str, int] = {}
        boundary: dict[str, Optional[float]] = {}
        for m, task in enumerate(work.tasks):
            open_rows = np.flatnonzero(~work.defined[ui, m])
            instance = ui[open_rows]
            confidence = preds[m].confidence[open_rows]
            candidates = preds[m].decoded[open_rows].astype(float)
            if not (np.isfinite(confidence).all() and np.isfinite(candidates).all()):
                raise FloatingPointError(f"iteration {iteration}: non-finite prediction "
                                         f"or confidence for task {task.name!r}")
            pos = select_top_k(confidence, instance, config.select_per_task,
                               config.min_confidence.get(task.name))
            rows = instance[pos]
            values = candidates[pos]
            work.labels[rows, m] = values
            work.defined[rows, m] = True
            chunks.append((np.full(len(pos), iteration), rows, np.full(len(pos), m),
                           standardizer.inverse_target(m, values), confidence[pos]))
            filled[task.name] = len(pos)
            boundary[task.name] = float(confidence[pos[-1]]) if len(pos) else None

        remaining = {t.name: int((~work.defined[:, m]).sum())
                     for m, t in enumerate(work.tasks)}
        records.append(IterationRecord(iteration, filled, boundary, remaining, metrics,
                                       time.perf_counter() - started))
        if not any(filled.values()):
            status = STATUS_STALLED
            logger.warning("iteration %d assigned no cells; stopping", iteration)
            break
        iteration += 1

    assignments = Assignments(*(np.concatenate(column) for column in zip(*chunks)))
    final_metrics = None
    if eval_set is not None and net is not None:
        final_metrics = (records[-1].metrics if config.eval_every_iteration
                         else evaluate(net, eval_set, standardizer))
    return CdlcResult(apply_assignments(ds, assignments), records, assignments, status,
                      final_metrics)


def apply_assignments(ds: MultiTargetDataset, assignments: Assignments) -> MultiTargetDataset:
    """Write pseudo-labels into a copy of the label grid of `ds`; the features
    are shared, not copied."""
    out = ds.copy()
    cells = assignments.instance, assignments.task_index
    out.labels[cells] = assignments.value
    out.defined[cells] = True
    return out


# ---------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_assignments_csv(path, assignments: Assignments, ds: MultiTargetDataset) -> None:
    """Columns: iteration,instance,dataset_origin,task,label,confidence.
    Labels are category text or reals in original units."""
    a = assignments
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration", "instance", "dataset_origin", "task", "label", "confidence"])
        for it, i, origin, m, v, conf in zip(
                a.iteration.tolist(), a.instance.tolist(), ds.origin[a.instance].tolist(),
                a.task_index.tolist(), a.value.tolist(), a.confidence.tolist()):
            task = ds.tasks[m]
            label = task.classes[int(v)] if task.classes is not None else repr(v)
            w.writerow([it, i, origin, task.name, label, repr(conf)])


def write_iterations_csv(path, records: list[IterationRecord],
                         ds: MultiTargetDataset) -> None:
    names = [t.name for t in ds.tasks]
    # every record has metrics or none has (cdlc.eval_every_iteration)
    metrics = records[0].metrics if records else None
    header = ["iteration"]
    for n in names:
        header += [f"filled_{n}", f"boundary_conf_{n}", f"remaining_{n}"]
    header += metrics.column_names() if metrics is not None else []
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in records:
            row = [r.iteration]
            for n in names:
                row += [r.filled[n], _fmt(r.boundary_confidence[n]), r.remaining[n]]
            if r.metrics is not None:
                row += [_fmt(v) for v in r.metrics.column_values()]
            w.writerow(row)
