"""Workload definitions and input generation for the xdata benchmark.

Every workload is the four-file cross-labeling corpus of ``xdata.synthetic``
(file 1 carries all three targets, file 2 only the ``quadrant`` classes,
file 3 only the two regression targets, file 4 none) plus a fully labeled
held-out test file. The latent model and the file layout are copied here
rather than imported, so that a change to ``xdata.synthetic`` or to the ARFF
writer cannot change the inputs a benchmark run sees: the same seed always
gives the same bytes.

Each workload writes every configuration key explicitly, so a change of a
default in ``xdata.cli`` cannot silently change what a workload runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_DIM = 10
NOISE = 0.1
QUADRANT_CLASSES = ("q_pp", "q_pn", "q_np", "q_nn")
TASKS = ("quadrant", "coord_a", "coord_v")
REGRESSION_TASKS = ("coord_a", "coord_v")
# Targets carried by each input file, in the order the config lists them.
FILE_TARGETS = {
    "file1": ("quadrant", "coord_a", "coord_v"),
    "file2": ("quadrant",),
    "file3": ("coord_a", "coord_v"),
    "file4": (),
}
# Files whose instance names contain a space and are therefore written quoted.
QUOTED_NAME_FILES = ("file2", "file4")
DROP_FRACTION = 0.75


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_train: int
    n_test: int
    name_column: bool  # leading instance-name string attribute
    expected_status: str
    cdlc: dict[str, str]  # cdlc.* keys without the prefix
    net: dict[str, str]  # net.* keys without the prefix

    def head_layers(self) -> tuple[int, ...]:
        spec = self.net["head_layers"]
        return tuple(int(s) for s in spec.split(",")) if spec else ()


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cdlc-train",
            why=("the bundled experiment's config at 5k rows: linear heads, no momentum, "
                 "so minibatch training dominates (stresses model.train)"),
            n_train=5000, n_test=2000, name_column=False, expected_status="completed",
            cdlc={"select_per_task": "1000", "max_iterations": "1000",
                  "retrain_from_scratch": "true", "eval_every_iteration": "true"},
            net={"shared_layers": "32", "head_layers": "", "dropout": "0.1",
                 "activation": "tanh", "epochs": "30", "learning_rate": "0.002",
                 "batch_size": "64", "momentum": "0.0", "mc_passes": "10"},
        ),
        Workload(
            name="cdlc-mc-heads",
            why=("5.6k rows, 50 MC passes through 16-unit relu heads with momentum and "
                 "14 selection rounds, so MC-dropout prediction dominates "
                 "(stresses model.mc_predict and cdlc selection)"),
            n_train=5600, n_test=2000, name_column=False, expected_status="completed",
            cdlc={"select_per_task": "350", "max_iterations": "1000",
                  "retrain_from_scratch": "true", "eval_every_iteration": "true"},
            net={"shared_layers": "64", "head_layers": "16", "dropout": "0.1",
                 "activation": "relu", "epochs": "3", "learning_rate": "0.0005",
                 "batch_size": "64", "momentum": "0.9", "mc_passes": "50"},
        ),
        Workload(
            name="ingest-wide",
            why=("60k rows with a name column, quoted in half the files, one epoch and "
                 "one round, so ARFF parse and write dominate (stresses arff and dataset)"),
            n_train=60000, n_test=2000, name_column=True, expected_status="max_iterations",
            cdlc={"select_per_task": "10000", "max_iterations": "1",
                  "retrain_from_scratch": "true", "eval_every_iteration": "true"},
            net={"shared_layers": "32", "head_layers": "", "dropout": "0.1",
                 "activation": "tanh", "epochs": "1", "learning_rate": "0.002",
                 "batch_size": "64", "momentum": "0.0", "mc_passes": "10"},
        ),
    )
}


@dataclass(frozen=True)
class InputFile:
    path: Path
    rows: int
    quoted: bool  # data rows contain single quotes
    size: int  # bytes; equals the character count, the text is ASCII


@dataclass(frozen=True)
class Corpus:
    files: dict[str, InputFile]  # file1..file4, test
    undefined_after_drop: dict[str, int]  # per task, over the training files

    @property
    def input_bytes(self) -> int:
        return sum(f.size for f in self.files.values())


def _latent(n: int, seed: int):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(n, 2))
    embed = rng.normal(size=(2, FEATURE_DIM))
    x = z @ embed + NOISE * rng.normal(size=(n, FEATURE_DIM))
    quadrant = 2 * (z[:, 0] < 0) + (z[:, 1] < 0)
    coord_a = z[:, 0] + NOISE * rng.normal(size=n)
    coord_v = z[:, 1] + NOISE * rng.normal(size=n)
    return x, quadrant.astype(int), coord_a, coord_v


def _arff_text(relation: str, idx: np.ndarray, targets: tuple[str, ...],
               latent, name_column: bool, quoted_names: bool) -> str:
    x, quadrant, coord_a, coord_v = latent
    lines = [f"@relation {relation}"]
    if name_column:
        lines.append("@attribute name string")
    lines += [f"@attribute f{j + 1} numeric" for j in range(FEATURE_DIM)]
    for t in targets:
        spec = "{" + ",".join(QUADRANT_CLASSES) + "}" if t == "quadrant" else "numeric"
        lines.append(f"@attribute {t} {spec}")
    lines.append("@data")
    columns = {"coord_a": coord_a, "coord_v": coord_v}
    for i in idx.tolist():
        cells = [repr(v) for v in x[i].tolist()]
        for t in targets:
            if t == "quadrant":
                cells.append(QUADRANT_CLASSES[quadrant[i]])
            else:
                cells.append(repr(float(columns[t][i])))
        if name_column:
            cells.insert(0, f"'inst {i:06d}'" if quoted_names else f"inst_{i:06d}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_corpus(w: Workload, seed: int, data_dir: Path) -> Corpus:
    """Write the workload's five ARFF files for `seed`; not part of any timing."""
    data_dir.mkdir(parents=True, exist_ok=True)
    latent = _latent(w.n_train + w.n_test, seed)
    quarter = w.n_train // 4
    parts = {f"file{k + 1}": np.arange(k * quarter, (k + 1) * quarter) for k in range(3)}
    parts["file4"] = np.arange(3 * quarter, w.n_train)
    parts["test"] = np.arange(w.n_train, w.n_train + w.n_test)
    files = {}
    for name, idx in parts.items():
        targets = TASKS if name == "test" else FILE_TARGETS[name]
        quoted = w.name_column and name in QUOTED_NAME_FILES
        text = _arff_text(name, idx, targets, latent, w.name_column, quoted)
        path = data_dir / f"{name}.arff"
        path.write_text(text, encoding="ascii")
        files[name] = InputFile(path, len(idx), quoted, len(text))
    undefined = {}
    for task in TASKS:
        defined = sum(len(parts[f]) for f, ts in FILE_TARGETS.items() if task in ts)
        kept = defined - math.floor(DROP_FRACTION * defined)
        undefined[task] = w.n_train - kept
    return Corpus(files, undefined)


def config_text(w: Workload, seed: int, corpus: Corpus, out_dir: Path) -> str:
    """The complete run configuration: every key the CLI accepts that has a
    default is written out. ``cdlc.min_confidence.<task>`` has no default
    value (unset means no threshold) and is left out."""
    lines = []
    for k, name in enumerate(FILE_TARGETS, start=1):
        lines.append(f"dataset.{k}.file = {corpus.files[name].path}")
        lines.append(f"dataset.{k}.num_targets = {len(FILE_TARGETS[name])}")
    lines += [
        f"test.file = {corpus.files['test'].path}",
        f"output.dir = {out_dir}",
        f"drop.fraction = {DROP_FRACTION}",
        f"drop.seed = {seed + 1}",
        f"data.ignore_first_attribute = {str(w.name_column).lower()}",
    ]
    lines += [f"cdlc.{k} = {v}" for k, v in w.cdlc.items()]
    for k, v in w.net.items():
        if k == "head_layers":
            lines += [f"net.head_layers.{t} = {v}" for t in TASKS]
        else:
            lines.append(f"net.{k} = {v}")
    lines.append(f"net.seed = {seed}")
    return "\n".join(lines) + "\n"
