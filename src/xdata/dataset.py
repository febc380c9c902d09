"""Joint multi-target dataset assembly and label-grid operations.

Several source files sharing one numeric feature space are merged into a
single feature matrix plus a sparse label grid over the union of their target
attributes. Undefined cells are tracked by a boolean mask (`defined`); the
value array holds a class index (classification) or a real (regression) where
defined and 0.0 elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .arff import NOMINAL, NUMERIC, STRING, ArffRelation, AttributeDecl

BINARY = "binary"
MULTICLASS = "multiclass"
REGRESSION = "regression"


class DatasetError(ValueError):
    """Raised when source files cannot be merged into one dataset."""


@dataclass(frozen=True)
class TaskSchema:
    name: str
    kind: str  # BINARY, MULTICLASS or REGRESSION
    classes: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind == BINARY and (self.classes is None or len(self.classes) != 2):
            raise DatasetError(f"binary task {self.name!r} must have exactly 2 classes")
        if self.kind == MULTICLASS and (self.classes is None or len(self.classes) < 3):
            raise DatasetError(f"multiclass task {self.name!r} must have >= 3 classes")
        if self.kind == REGRESSION and self.classes is not None:
            raise DatasetError(f"regression task {self.name!r} cannot have classes")

    @property
    def num_classes(self) -> int:
        return len(self.classes) if self.classes else 0


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself if it is read-only, else a read-only view of it."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


@dataclass
class MultiTargetDataset:
    """A feature matrix and its label grid.

    `features` and `origin` are read-only from construction on: a writable
    array passed in is replaced by a read-only view of it. Every derivation
    that changes only labels (`copy`, `drop_labels`, `apply_assignments`)
    shares them and copies `labels` and `defined`, so a run holds one feature
    matrix per feature space, and a stray in-place write raises.
    """

    features: np.ndarray  # (N, F) float64
    labels: np.ndarray  # (N, M) float64; class index or real where defined
    defined: np.ndarray  # (N, M) bool
    tasks: list[TaskSchema]
    origin: np.ndarray  # (N,) int, 1-based source file index
    feature_names: list[str]

    def __post_init__(self):
        self.features = _read_only(self.features)
        self.origin = _read_only(self.origin)

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def copy(self) -> "MultiTargetDataset":
        """A copy of the label grid that shares the read-only features and origin."""
        return MultiTargetDataset(
            self.features, self.labels.copy(), self.defined.copy(),
            list(self.tasks), self.origin, list(self.feature_names),
        )


@dataclass
class SplitView:
    """Instances with at least one defined label (L) / at least one missing (U)."""

    labeled_indices: np.ndarray
    incomplete_indices: np.ndarray


def split(ds: MultiTargetDataset) -> SplitView:
    any_defined = ds.defined.any(axis=1)
    any_missing = ~ds.defined.all(axis=1)
    return SplitView(np.flatnonzero(any_defined), np.flatnonzero(any_missing))


# ---------------------------------------------------------------------------
# assembly


def _task_from_attr(attr: AttributeDecl) -> TaskSchema:
    if attr.kind == NUMERIC:
        return TaskSchema(attr.name, REGRESSION)
    if attr.kind == STRING:
        raise DatasetError(f"string attribute {attr.name!r} cannot be a target")
    kind = BINARY if len(attr.categories) == 2 else MULTICLASS
    return TaskSchema(attr.name, kind, tuple(attr.categories))


def _relation_to_arrays(rel: ArffRelation, feat_cols: Sequence[int],
                        targets: Sequence[tuple[int, int, AttributeDecl]],
                        tasks: Sequence[TaskSchema], features: np.ndarray,
                        labels: np.ndarray, defined: np.ndarray, source: str) -> None:
    """Fill the arrays from `rel` column by column. `targets` holds (column, task
    index, declaring attribute); nominal indices are remapped to the task's order."""
    for j, c in enumerate(feat_cols):
        attr, column = rel.attributes[c], rel.columns[c]
        if attr.kind != NUMERIC:
            raise DatasetError(f"{source}: {attr.kind} attribute {attr.name!r} "
                               "cannot be a feature")
        missing = np.isnan(column)
        if missing.any():
            raise DatasetError(
                f"{source}, row {np.argmax(missing) + 1}: missing value in feature "
                f"{attr.name!r} (features must be fully defined)"
            )
        features[:, j] = column
    for c, m, attr in targets:
        column = rel.columns[c]
        classes = tasks[m].classes
        if classes is not None:
            present = column >= 0
            remap = np.array([classes.index(cat) for cat in attr.categories], dtype=float)
            values = remap[column[present]]
        else:
            present = ~np.isnan(column)
            values = column[present]
        labels[present, m] = values
        defined[present, m] = True


def assemble(
    relations: Sequence[tuple[ArffRelation, int]],
    ignore_first_attribute: bool = False,
) -> MultiTargetDataset:
    """Merge source relations into one joint dataset.

    Each relation contributes its trailing `num_targets` attributes as
    targets; all remaining (non-ignored) attributes must be numeric features
    with identical names across files. Tasks are merged by exact attribute
    name; merged declarations must agree in kind and category set (category
    order is taken from the first file declaring the task).
    """
    if not relations:
        raise DatasetError("at least one input relation required")

    feature_names: Optional[list[str]] = None
    tasks: list[TaskSchema] = []
    task_pos: dict[str, int] = {}
    per_file: list[tuple[ArffRelation, list[AttributeDecl], list[AttributeDecl]]] = []

    for d, (rel, num_targets) in enumerate(relations, start=1):
        attrs = rel.attributes[1:] if ignore_first_attribute else list(rel.attributes)
        if num_targets < 0:
            raise DatasetError(f"file {d}: num_targets must be >= 0")
        if num_targets > len(attrs):
            raise DatasetError(f"file {d}: num_targets {num_targets} exceeds attribute count")
        split_at = len(attrs) - num_targets
        feat_attrs, target_attrs = attrs[:split_at], attrs[split_at:]
        names = [a.name for a in feat_attrs]
        if feature_names is None:
            feature_names = names
        elif names != feature_names:
            raise DatasetError(
                f"file {d}: feature attributes {names} do not match first file's {feature_names}"
            )
        for a in target_attrs:
            schema = _task_from_attr(a)
            if a.name not in task_pos:
                task_pos[a.name] = len(tasks)
                tasks.append(schema)
            else:
                prior = tasks[task_pos[a.name]]
                if prior.kind != schema.kind:
                    raise DatasetError(
                        f"task {a.name!r}: kind conflict ({prior.kind} vs {schema.kind})"
                    )
                if prior.classes is not None and set(prior.classes) != set(schema.classes):
                    raise DatasetError(f"task {a.name!r}: nominal category sets differ")
        per_file.append((rel, feat_attrs, target_attrs))

    if not tasks:
        raise DatasetError("no target attributes in any input file: at least one task required")

    n_total = sum(rel.n_rows for rel, _, _ in per_file)
    features = np.zeros((n_total, len(feature_names)))
    labels = np.zeros((n_total, len(tasks)))
    defined = np.zeros((n_total, len(tasks)), dtype=bool)
    origin = np.zeros(n_total, dtype=int)

    offset = 1 if ignore_first_attribute else 0
    row_at = 0
    for d, (rel, feat_attrs, target_attrs) in enumerate(per_file, start=1):
        rows = slice(row_at, row_at + rel.n_rows)
        first_target = offset + len(feat_attrs)
        targets = [(first_target + i, task_pos[a.name], a) for i, a in enumerate(target_attrs)]
        _relation_to_arrays(rel, range(offset, first_target), targets, tasks,
                            features[rows], labels[rows], defined[rows], f"file {d}")
        origin[rows] = d
        row_at = rows.stop

    return MultiTargetDataset(features, labels, defined, tasks, origin, feature_names)


def assemble_eval(rel: ArffRelation, train: MultiTargetDataset,
                  ignore_first_attribute: bool = False) -> MultiTargetDataset:
    """Assemble an evaluation relation against a training dataset's schemas.

    Attributes whose names match a training task are targets (any position);
    the remaining attributes must equal the training feature sequence. Tasks
    absent from the file yield all-undefined columns.
    """
    attrs = rel.attributes[1:] if ignore_first_attribute else list(rel.attributes)
    offset = 1 if ignore_first_attribute else 0
    task_names = {t.name for t in train.tasks}
    feat_cols: list[int] = []
    feat_names: list[str] = []
    target_cols: dict[str, int] = {}
    for i, a in enumerate(attrs):
        if a.name in task_names:
            target_cols[a.name] = offset + i
        else:
            feat_cols.append(offset + i)
            feat_names.append(a.name)
    if feat_names != train.feature_names:
        raise DatasetError(
            f"evaluation file features {feat_names} do not match training {train.feature_names}"
        )
    for t in train.tasks:
        if t.name not in target_cols:
            continue
        a = attrs[target_cols[t.name] - offset]
        schema = _task_from_attr(a)
        if schema.kind != t.kind:
            raise DatasetError(f"evaluation task {t.name!r}: kind conflict")
        if t.classes is not None and set(schema.classes) != set(t.classes):
            raise DatasetError(f"evaluation task {t.name!r}: nominal category sets differ")

    n = rel.n_rows
    features = np.zeros((n, len(feat_cols)))
    labels = np.zeros((n, train.n_tasks))
    defined = np.zeros((n, train.n_tasks), dtype=bool)
    targets = [(target_cols[t.name], m, attrs[target_cols[t.name] - offset])
               for m, t in enumerate(train.tasks) if t.name in target_cols]
    _relation_to_arrays(rel, feat_cols, targets, train.tasks, features, labels, defined,
                        "evaluation file")
    return MultiTargetDataset(features, labels, defined, list(train.tasks),
                              np.zeros(n, dtype=int), list(train.feature_names))


def to_relation(ds: MultiTargetDataset, relation_name: str = "completed") -> ArffRelation:
    """Export the dataset (original units) as one merged ARFF relation.
    Raises DatasetError if a defined label cell holds a non-finite value."""
    attrs = [AttributeDecl(name, NUMERIC) for name in ds.feature_names]
    columns = list(ds.features.T)  # strided views of the feature columns
    for m, t in enumerate(ds.tasks):
        labels, defined = ds.labels[:, m], ds.defined[:, m]
        bad = defined & ~np.isfinite(labels)
        if bad.any():
            raise DatasetError(f"task {t.name!r}, row {np.argmax(bad) + 1}: "
                               f"non-finite value {float(labels[bad][0])} in a defined cell")
        if t.classes is not None:
            attrs.append(AttributeDecl(t.name, NOMINAL, t.classes))
            columns.append(np.where(defined, labels, -1).astype(np.int64))
        else:
            attrs.append(AttributeDecl(t.name, NUMERIC))
            columns.append(np.where(defined, labels, np.nan))
    return ArffRelation(relation_name, attrs, columns)


# ---------------------------------------------------------------------------
# label drop-out and standardization


def drop_labels(ds: MultiTargetDataset, fraction: float, seed: int) -> MultiTargetDataset:
    """Remove exactly floor(fraction * defined) labels per task, uniformly at random."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    out = ds.copy()
    rng = np.random.default_rng(seed)
    for m in range(ds.n_tasks):
        idx = np.flatnonzero(out.defined[:, m])
        k = math.floor(fraction * len(idx))
        if k == 0:
            continue
        chosen = rng.choice(idx, size=k, replace=False)
        out.defined[chosen, m] = False
        out.labels[chosen, m] = 0.0
    return out


@dataclass
class Standardizer:
    """Feature and regression-target standardization (population statistics)."""

    feature_mean: np.ndarray
    feature_std: np.ndarray  # effective divisor; 1.0 for constant columns
    target_stats: dict[int, tuple[float, float]] = field(default_factory=dict)

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        z = x - self.feature_mean
        z /= self.feature_std  # in place: one new matrix, not two
        return z

    def inverse_target(self, m: int, v):
        if m not in self.target_stats:
            return v
        mean, std = self.target_stats[m]
        return v * std + mean

    def transform_dataset(self, ds: MultiTargetDataset) -> MultiTargetDataset:
        out = replace(ds.copy(), features=self.transform_features(ds.features))
        for m, (mean, std) in self.target_stats.items():
            mask = out.defined[:, m]
            out.labels[mask, m] = (out.labels[mask, m] - mean) / std
        return out


def standardize(ds: MultiTargetDataset) -> tuple[MultiTargetDataset, Standardizer]:
    """Zero-mean/unit-variance features (all instances) and regression targets
    (defined cells only). Near-constant columns are shifted to zero."""
    if ds.n_instances < 1:
        raise DatasetError("cannot standardize an empty dataset")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    eff_std = np.where(std < 1e-12, 1.0, std)
    target_stats: dict[int, tuple[float, float]] = {}
    for m, t in enumerate(ds.tasks):
        if t.kind != REGRESSION:
            continue
        vals = ds.labels[ds.defined[:, m], m]
        if len(vals) == 0:
            target_stats[m] = (0.0, 1.0)
            continue
        t_mean = float(vals.mean())
        t_std = float(vals.std())
        target_stats[m] = (t_mean, 1.0 if t_std < 1e-12 else t_std)
    stdzr = Standardizer(mean, eff_std, target_stats)
    return stdzr.transform_dataset(ds), stdzr
