"""Command-line entry point and run configuration.

Configuration is a strict ``key = value`` text file (``#`` comments). Unknown
keys are errors; every omitted key has a documented default (see README).
Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .arff import ArffError, parse_arff, write_arff
from .dataset import (REGRESSION, DatasetError, MultiTargetDataset, assemble,
                      assemble_eval, drop_labels, standardize, to_relation)
from .metrics import evaluate, pseudo_label_accuracy
from .model import NetworkConfig, mc_predict
from .trainer import (CdlcConfig, CdlcResult, apply_assignments, run_cdlc,
                      write_assignments_csv, write_iterations_csv)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    datasets: list[tuple[str, int]]  # (file path, num_targets)
    output_dir: str
    test_file: Optional[str] = None
    drop_fraction: Optional[float] = None
    drop_seed: int = 1
    ignore_first_attribute: bool = False
    cdlc: CdlcConfig = field(default_factory=CdlcConfig)

    def to_config_text(self) -> str:
        """Canonical key = value form of the effective configuration."""
        lines = []
        for i, (path, nt) in enumerate(self.datasets, start=1):
            lines.append(f"dataset.{i}.file = {path}")
            lines.append(f"dataset.{i}.num_targets = {nt}")
        if self.test_file is not None:
            lines.append(f"test.file = {self.test_file}")
        lines.append(f"output.dir = {self.output_dir}")
        if self.drop_fraction is not None:
            lines.append(f"drop.fraction = {self.drop_fraction}")
            lines.append(f"drop.seed = {self.drop_seed}")
        lines.append(f"data.ignore_first_attribute = {str(self.ignore_first_attribute).lower()}")
        c = self.cdlc
        lines.append(f"cdlc.select_per_task = {c.select_per_task}")
        if c.max_iterations is not None:
            lines.append(f"cdlc.max_iterations = {c.max_iterations}")
        for task, v in sorted(c.min_confidence.items()):
            lines.append(f"cdlc.min_confidence.{task} = {v}")
        lines.append(f"cdlc.retrain_from_scratch = {str(c.retrain_from_scratch).lower()}")
        lines.append(f"cdlc.eval_every_iteration = {str(c.eval_every_iteration).lower()}")
        n = c.network
        lines.append(f"net.shared_layers = {','.join(str(s) for s in n.shared_layers)}")
        for task, sizes in sorted(n.head_layers.items()):
            lines.append(f"net.head_layers.{task} = {','.join(str(s) for s in sizes)}")
        lines.append(f"net.dropout = {n.dropout}")
        lines.append(f"net.activation = {n.activation}")
        lines.append(f"net.epochs = {n.epochs}")
        lines.append(f"net.learning_rate = {n.learning_rate}")
        lines.append(f"net.batch_size = {n.batch_size}")
        lines.append(f"net.momentum = {n.momentum}")
        lines.append(f"net.mc_passes = {n.mc_passes}")
        lines.append(f"net.seed = {n.seed}")
        return "\n".join(lines) + "\n"


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}")


def _parse_bool(key: str, value: str) -> bool:
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {value!r}")


def _parse_sizes(key: str, value: str) -> tuple[int, ...]:
    if not value.strip():
        return ()
    try:
        sizes = tuple(int(p) for p in value.split(","))
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated integers, got {value!r}")
    if any(s <= 0 for s in sizes):
        raise ConfigError(f"key {key!r}: layer sizes must be positive")
    return sizes


_COMMENT_RE = re.compile(r"(?:^|\s)#")
_DATASET_RE = re.compile(r"^dataset\.(\d+)\.(file|num_targets)$")
_MINCONF_RE = re.compile(r"^cdlc\.min_confidence\.(.+)$")
_HEAD_RE = re.compile(r"^net\.head_layers\.(.+)$")

_SIMPLE_KEYS = {
    "test.file", "output.dir", "drop.fraction", "drop.seed",
    "data.ignore_first_attribute",
    "cdlc.select_per_task", "cdlc.max_iterations",
    "cdlc.retrain_from_scratch", "cdlc.eval_every_iteration",
    "net.shared_layers", "net.dropout", "net.activation", "net.epochs",
    "net.learning_rate", "net.batch_size", "net.momentum", "net.mc_passes",
    "net.seed",
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    dataset_files: dict[int, str] = {}
    dataset_targets: dict[int, int] = {}
    min_confidence: dict[str, float] = {}
    head_layers: dict[str, tuple[int, ...]] = {}
    simple: dict[str, str] = {}
    for key, value in values.items():
        m = _DATASET_RE.match(key)
        if m:
            idx = int(m.group(1))
            if m.group(2) == "file":
                dataset_files[idx] = value
            else:
                dataset_targets[idx] = _parse_int(key, value)
            continue
        m = _MINCONF_RE.match(key)
        if m:
            min_confidence[m.group(1)] = _parse_float(key, value)
            continue
        m = _HEAD_RE.match(key)
        if m:
            head_layers[m.group(1)] = _parse_sizes(key, value)
            continue
        if key in _SIMPLE_KEYS:
            simple[key] = value
            continue
        raise ConfigError(f"unknown key {key!r}")

    if not dataset_files:
        raise ConfigError("missing mandatory key 'dataset.1.file'")
    if sorted(dataset_files) != list(range(1, len(dataset_files) + 1)):
        raise ConfigError("dataset indices must be contiguous starting at 1")
    for idx in dataset_targets:
        if idx not in dataset_files:
            raise ConfigError(f"dataset.{idx}.num_targets given without dataset.{idx}.file")
    datasets = [(dataset_files[i], dataset_targets.get(i, 0))
                for i in range(1, len(dataset_files) + 1)]
    for i, (_, nt) in enumerate(datasets, start=1):
        if nt < 0:
            raise ConfigError(f"key 'dataset.{i}.num_targets': must be >= 0")
    if "output.dir" not in simple:
        raise ConfigError("missing mandatory key 'output.dir'")

    net = NetworkConfig(
        shared_layers=_parse_sizes("net.shared_layers", simple.get("net.shared_layers", "64")),
        head_layers=head_layers,
        dropout=_parse_float("net.dropout", simple.get("net.dropout", "0.1")),
        activation=simple.get("net.activation", "tanh"),
        epochs=_parse_int("net.epochs", simple.get("net.epochs", "50")),
        learning_rate=_parse_float("net.learning_rate", simple.get("net.learning_rate", "0.001")),
        batch_size=_parse_int("net.batch_size", simple.get("net.batch_size", "64")),
        momentum=_parse_float("net.momentum", simple.get("net.momentum", "0")),
        mc_passes=_parse_int("net.mc_passes", simple.get("net.mc_passes", "20")),
        seed=_parse_int("net.seed", simple.get("net.seed", "1")),
    )
    cdlc = CdlcConfig(
        network=net,
        select_per_task=_parse_int("cdlc.select_per_task",
                                   simple.get("cdlc.select_per_task", "1000")),
        max_iterations=(_parse_int("cdlc.max_iterations", simple["cdlc.max_iterations"])
                        if "cdlc.max_iterations" in simple else None),
        min_confidence=min_confidence,
        retrain_from_scratch=_parse_bool(
            "cdlc.retrain_from_scratch", simple.get("cdlc.retrain_from_scratch", "true")),
        eval_every_iteration=_parse_bool(
            "cdlc.eval_every_iteration", simple.get("cdlc.eval_every_iteration", "true")),
    )
    config = RunConfig(
        datasets=datasets,
        output_dir=simple["output.dir"],
        test_file=simple.get("test.file"),
        drop_fraction=(_parse_float("drop.fraction", simple["drop.fraction"])
                       if "drop.fraction" in simple else None),
        drop_seed=_parse_int("drop.seed", simple.get("drop.seed", "1")),
        ignore_first_attribute=_parse_bool(
            "data.ignore_first_attribute", simple.get("data.ignore_first_attribute", "false")),
        cdlc=cdlc,
    )
    if config.drop_fraction is not None and not 0.0 <= config.drop_fraction <= 1.0:
        raise ConfigError("key 'drop.fraction': must be in [0, 1]")
    try:
        cdlc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


# ---------------------------------------------------------------------------
# orchestration


def _progress(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _read_relation(path: str):
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"input file not found: {path}")
    return parse_arff(p.read_text(encoding="utf-8"))


def _check_task_keys(config: RunConfig, ds: MultiTargetDataset) -> None:
    """Every task named in a per-task key must be an assembled task."""
    names = {t.name for t in ds.tasks}
    for prefix, keyed in (("net.head_layers", config.cdlc.network.head_layers),
                          ("cdlc.min_confidence", config.cdlc.min_confidence)):
        for task in sorted(keyed):
            if task not in names:
                raise ConfigError(f"unknown task {task!r} in key '{prefix}.{task}'")


def _write_scatter(out_dir: Path, result: CdlcResult, eval_ds, standardizer) -> None:
    preds = mc_predict(result.final_net, eval_ds.features)
    for m, task in enumerate(eval_ds.tasks):
        sel = eval_ds.defined[:, m]
        if not sel.any():
            continue
        with open(out_dir / f"scatter_{task.name}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["true", "predicted"])
            for i in np.flatnonzero(sel):
                if task.kind == REGRESSION:
                    t = standardizer.inverse_target(m, eval_ds.labels[i, m])
                    p = standardizer.inverse_target(m, preds[m].decoded[i])
                    w.writerow([repr(float(t)), repr(float(p))])
                else:
                    w.writerow([task.classes[int(eval_ds.labels[i, m])],
                                task.classes[int(preds[m].decoded[i])]])


def _report_lines(config: RunConfig, result: CdlcResult, final_metrics,
                  pl_reports) -> list[str]:
    lines = ["effective configuration:"]
    lines += ["  " + ln for ln in config.to_config_text().splitlines()]
    lines.append("")
    lines.append(f"status: {result.status}")
    lines.append(f"iterations: {len(result.records)}")
    lines.append(f"pseudo-labels assigned: {len(result.assignments)}")
    if final_metrics is not None:
        lines.append("")
        lines.append("final test metrics:")
        for name, tm in final_metrics.tasks.items():
            if not tm.evaluable:
                lines.append(f"  {name}: not evaluable (n={tm.n})")
            elif tm.kind == REGRESSION:
                lines.append(f"  {name}: cc={tm.cc:.4f} (n={tm.n})")
            else:
                recalls = ", ".join(f"{c}={r:.3f}" for c, r in tm.recalls.items())
                lines.append(f"  {name}: uar={tm.uar:.4f} (n={tm.n}; recalls: {recalls})")
    if pl_reports is not None:
        lines.append("")
        lines.append("pseudo-label quality vs withheld labels (diagnostic beyond "
                     "the test-set protocol):")
        for name, r in pl_reports.items():
            if r.n_compared == 0:
                lines.append(f"  {name}: 0 comparable cells ({r.n_skipped} skipped)")
            elif r.kind == REGRESSION:
                cc = f"{r.cc:.4f}" if r.cc is not None else "n/a"
                lines.append(f"  {name}: cc={cc} mae={r.mae:.4f} "
                             f"(n={r.n_compared}, skipped={r.n_skipped})")
            else:
                lines.append(f"  {name}: accuracy={r.accuracy:.4f} "
                             f"(n={r.n_compared}, skipped={r.n_skipped})")
    return lines


def run(config: RunConfig, quiet: bool = False) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _progress(quiet, f"reading {len(config.datasets)} input file(s)")
    relations = [(_read_relation(path), nt) for path, nt in config.datasets]
    ds = assemble(relations, config.ignore_first_attribute)
    _check_task_keys(config, ds)
    _progress(quiet, f"assembled {ds.n_instances} instances, {ds.n_features} features, "
                     f"{ds.n_tasks} task(s)")

    withheld = None
    if config.drop_fraction is not None:
        withheld = ds
        ds = drop_labels(ds, config.drop_fraction, config.drop_seed)
        _progress(quiet, f"dropped {config.drop_fraction:.0%} of defined labels per task")

    eval_ds = None
    if config.test_file is not None:
        eval_ds = assemble_eval(_read_relation(config.test_file), ds,
                                config.ignore_first_attribute)
        _progress(quiet, f"test set: {eval_ds.n_instances} instances")

    ds_std, standardizer = standardize(ds)
    eval_std = standardizer.transform_dataset(eval_ds) if eval_ds is not None else None

    _progress(quiet, "running cross-data label completion")
    result = run_cdlc(ds_std, config.cdlc, eval_std, standardizer)
    for r in result.records:
        filled = sum(r.filled.values())
        _progress(quiet, f"iteration {r.iteration}: filled {filled} cell(s), "
                         f"{sum(r.remaining.values())} remaining")
    _progress(quiet, f"finished with status {result.status!r}")

    completed = apply_assignments(ds, result.assignments, standardizer)
    (out_dir / "completed.arff").write_text(write_arff(to_relation(completed)),
                                            encoding="utf-8")
    write_assignments_csv(out_dir / "assignments.csv", result.assignments, ds, standardizer)
    write_iterations_csv(out_dir / "iterations.csv", result.records, ds)

    final_metrics = None
    if eval_std is not None and result.final_net is not None:
        final_metrics = evaluate(result.final_net, eval_std, standardizer)
        _write_scatter(out_dir, result, eval_std, standardizer)

    pl_reports = None
    if withheld is not None:
        pl_reports = pseudo_label_accuracy(result.assignments, withheld, standardizer)

    report = _report_lines(config, result, final_metrics, pl_reports)
    (out_dir / "report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    _progress(quiet, f"wrote results to {out_dir}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xdata-complete",
        description="Complete the missing labels of multiple ARFF datasets "
                    "sharing one feature space.",
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--seed", type=int, help="override net.seed")
    parser.add_argument("--out-dir", help="override output.dir")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        config = parse_config(path.read_text(encoding="utf-8"))
        if args.seed is not None:
            config.cdlc.network.seed = args.seed
        if args.out_dir is not None:
            config.output_dir = args.out_dir
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        run(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ArffError, DatasetError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())
