"""Command-line entry point and run configuration.

Configuration is a strict ``key = value`` text file (``#`` comments); unknown
keys are errors. The fields of ``RunConfig``, of its ``cdlc``
(:class:`~xdata.trainer.CdlcConfig`, keys ``cdlc.<field>``) and of that one's
``network`` (:class:`~xdata.model.NetworkConfig`, keys ``net.<field>``) are the
only declaration of the keys and their defaults, in echo order; a field's
``metadata["key"]`` overrides its key, and a ``dict`` field is a per-task key
family ``<key>.<task>``. Only ``dataset.<n>.file``/``num_targets`` are parsed by
hand. The test suite checks the README key table against these fields.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import logging
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from .arff import ArffError, format_header, format_rows, parse_arff
from .dataset import (REGRESSION, DatasetError, MultiTargetDataset, assemble,
                      assemble_eval, drop_labels, to_relation)
from .metrics import MetricReport, pseudo_label_accuracy
from .model import one_blas_thread, usable_cpus
from .trainer import (CdlcConfig, CdlcResult, run_cdlc, write_assignments_csv,
                      write_iterations_csv)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # (file path, num_targets) from the indexed dataset.<n>.* keys
    datasets: list[tuple[str, int]] = field(default_factory=list, metadata={"key": None})
    test_file: Optional[str] = field(default=None, metadata={"key": "test.file"})
    output_dir: Optional[str] = field(default=None,
                                      metadata={"key": "output.dir", "required": True})
    drop_fraction: Optional[float] = field(default=None, metadata={"key": "drop.fraction"})
    drop_seed: int = field(default=1, metadata={"key": "drop.seed",
                                                "echoed_with": "drop_fraction"})
    ignore_first_attribute: bool = field(default=False,
                                         metadata={"key": "data.ignore_first_attribute"})
    cdlc: CdlcConfig = field(default_factory=CdlcConfig)

    def validate(self) -> None:
        """Range checks; each message names the configuration key at fault."""
        for i, (_, nt) in enumerate(self.datasets, start=1):
            if nt < 0:
                raise ValueError(f"dataset.{i}.num_targets must be >= 0")
        if self.drop_fraction is not None and not 0.0 <= self.drop_fraction <= 1.0:
            raise ValueError("drop.fraction must be in [0, 1]")
        if self.drop_seed < 0:
            raise ValueError("drop.seed must be >= 0")
        self.cdlc.validate()

    def to_config_text(self) -> str:
        """Canonical key = value form of the effective configuration."""
        lines = []
        for i, (path, nt) in enumerate(self.datasets, start=1):
            lines += [f"dataset.{i}.file = {path}", f"dataset.{i}.num_targets = {nt}"]
        for k in _keys(self):
            if k.per_task:
                lines += [f"{k.key}.{task} = {_format(v)}" for task, v in sorted(k.value.items())]
                continue
            gate = k.field.metadata.get("echoed_with")
            if k.value is not None and (gate is None or getattr(k.owner, gate) is not None):
                lines.append(f"{k.key} = {_format(k.value)}")
        return "\n".join(lines) + "\n"


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


_BOOLS = {**dict.fromkeys(("true", "yes", "1"), True),
          **dict.fromkeys(("false", "no", "0"), False)}


def _text(value: str) -> str:
    """A text value, which may not be empty: an empty path would name the
    working directory, or no file."""
    if not value:
        raise ValueError("empty text")
    return value


# (conversion, what it expects) per field value type; range checks are in validate()
_PARSERS = {
    int: (int, "an integer"), float: (float, "a number"),
    bool: (lambda v: _BOOLS[v.lower()], "true/false"),
    tuple[int, ...]: (lambda v: tuple(map(int, v.split(","))) if v.strip() else (),
                      "comma-separated integers"),
    str: (_text, "non-empty text"),
}


def _parse(key: str, text: str, value_type):
    convert, expected = _PARSERS[value_type]
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise ConfigError(f"key {key!r}: expected {expected}, got {text!r}")


class _Key(NamedTuple):
    """One declared key, or a per-task key family (a dict field)."""

    key: str
    owner: Any  # the config instance holding the field
    field: Field
    value_type: Any  # Optional[T] and dict[str, T] both hold T

    @property
    def per_task(self) -> bool:
        return isinstance(self.value, dict)

    @property
    def value(self):
        return getattr(self.owner, self.field.name)


def _keys(config, prefix: str = ""):
    """The declared keys of `config` and its nested config dataclasses, in field
    order: ``metadata["key"]`` if given (None: parsed by hand), else prefix + name."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        key = f.metadata.get("key", prefix + f.name)
        if is_dataclass(getattr(config, f.name)):
            yield from _keys(getattr(config, f.name), key + ".")
        elif key is not None:
            hint = hints[f.name]
            origin, args = get_origin(hint), get_args(hint)
            yield _Key(key, config, f,
                       args[1] if origin is dict else args[0] if origin is Union else hint)


_COMMENT_RE = re.compile(r"(?:^|\s)#")
# a canonical ASCII index only: "01" or a non-ASCII digit would alias index 1
_DATASET_RE = re.compile(r"^dataset\.([1-9][0-9]*)\.(file|num_targets)$")


def parse_config(text: str, overrides: Optional[dict[str, str]] = None) -> RunConfig:
    """Parse and fully validate a run configuration, each key of `overrides`
    taking its value there instead of the text's."""
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
    values.update(overrides or {})

    config = RunConfig()
    keys = {k.key: k for k in _keys(config)}
    family = re.compile("^({})\\.(.+)$".format(
        "|".join(re.escape(k.key) for k in keys.values() if k.per_task)))
    dataset_files: dict[int, str] = {}
    dataset_targets: dict[int, int] = {}
    for key, value in values.items():
        m = _DATASET_RE.match(key)
        if m:
            idx = int(m.group(1))
            if m.group(2) == "file":
                dataset_files[idx] = _parse(key, value, str)
            else:
                dataset_targets[idx] = _parse(key, value, int)
            continue
        m = family.match(key)
        k = keys[m.group(1)] if m else keys.get(key)
        if k is None or k.per_task != bool(m):
            raise ConfigError(f"unknown key {key!r}")
        if m:
            k.value[m.group(2)] = _parse(key, value, k.value_type)
        else:
            setattr(k.owner, k.field.name, _parse(key, value, k.value_type))

    if not dataset_files:
        raise ConfigError("missing mandatory key 'dataset.1.file'")
    if sorted(dataset_files) != list(range(1, len(dataset_files) + 1)):
        raise ConfigError("dataset indices must be contiguous starting at 1")
    for idx in dataset_targets:
        if idx not in dataset_files:
            raise ConfigError(f"dataset.{idx}.num_targets given without dataset.{idx}.file")
    config.datasets = [(dataset_files[i], dataset_targets.get(i, 0))
                       for i in range(1, len(dataset_files) + 1)]
    for k in keys.values():
        if k.field.metadata.get("required") and k.value is None:
            raise ConfigError(f"missing mandatory key {k.key!r}")
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


# ---------------------------------------------------------------------------
# orchestration


def _progress(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _utf8_text(path: str, data: bytes, error: type) -> str:
    """`data`, the bytes of the file `path`, decoded as UTF-8 with line ends
    kept as they are and a leading byte-order mark dropped; a byte that does
    not decode raises `error` naming the file and its line."""
    # a mark holds no line end, so an error's line is the file's
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text "
                    f"(byte 0x{data[exc.start]:02x})") from None


def _read_relation(path: str):
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"input file not found: {path}")
    # line ends kept: a lone \r reaches the parser, which rejects it, not a line split
    text = _utf8_text(path, p.read_bytes(), ArffError)
    try:
        return parse_arff(text)
    except ArffError as exc:
        raise ArffError(f"{path}: {exc}") from None


def _can_fork() -> bool:
    """A forked child can run beside this process: fork exists and a second
    CPU is usable."""
    return hasattr(os, "fork") and usable_cpus() >= 2


@contextmanager
def _in_child(stage: str, fn, *args):
    """Run ``fn(*args)`` in a forked child while the caller works on; yields a
    callable that waits for the child and returns what `fn` returned or raises
    what it raised (pickled over a pipe). A child that ends without a result,
    killed by a signal say, raises RuntimeError naming `stage`. Every child is
    reaped: one still running when the block exits early is killed. Without
    fork or a second usable CPU, the callable runs ``fn(*args)`` in this process.

    `fn` must not call BLAS: the child holds only the forking thread, so the
    BLAS thread pool it inherits is unusable.
    """
    if not _can_fork():
        yield lambda: fn(*args)
        return
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns that a process with threads (BLAS's) may deadlock
        # in a forked child; the child here never calls into them
        warnings.filterwarnings("ignore", r".*fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0:
            how = f"killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise RuntimeError(f"{stage}: worker process {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read_each(paths: list[str]) -> list:
    """For each file of `paths`, its relation or the exception reading it raised."""
    out = []
    for path in paths:
        try:
            out.append(_read_relation(path))
        except Exception as exc:  # noqa: BLE001 - raised by `run` where it reads the file
            out.append(exc)
    return out


def _read_relations(paths: list[str]) -> list:
    """`_read_each` of `paths`, the files split into two groups of about equal
    byte size: a forked child reads one group while this process reads the other."""
    sizes = [os.path.getsize(p) if os.path.isfile(p) else 0 for p in paths]
    groups: tuple[list[int], list[int]] = ([], [])
    loads = [0, 0]
    for i in sorted(range(len(paths)), key=lambda i: -sizes[i]):
        g = int(loads[1] < loads[0])
        groups[g].append(i)
        loads[g] += sizes[i]
    mine, theirs = sorted(groups[0]), sorted(groups[1])
    if not theirs:
        return _read_each(paths)
    with _in_child("reading input files", _read_each, [paths[i] for i in theirs]) as child:
        read = dict(zip(mine, _read_each([paths[i] for i in mine])))
        read.update(zip(theirs, child()))
    return [read[i] for i in range(len(paths))]


def _raised(outcome):
    """An outcome of `_read_each`: the relation, or raise the exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


_CHUNK_ROWS = 4096  # data rows formatted at once: bounds the per-cell strings alive


def _chunks(relation, start: int, stop: int):
    """``format_rows`` of rows `start` to `stop` of `relation`, _CHUNK_ROWS at a time."""
    for a in range(start, stop, _CHUNK_ROWS):
        yield format_rows(relation, a, min(a + _CHUNK_ROWS, stop))


def _write_arff_file(path: Path, relation) -> None:
    """Write ``write_arff(relation)`` to `path`; a forked child formats the
    second half of the data rows while this process formats the first and
    writes it chunk by chunk."""
    relation.validate()  # so that no invalid value reaches the child
    n, half = relation.n_rows, relation.n_rows // 2
    with _in_child(f"formatting {path.name}",
                   lambda: "".join(_chunks(relation, half, n))) as tail, \
            open(path, "w", encoding="utf-8") as f:
        f.write(format_header(relation))
        f.writelines(_chunks(relation, 0, half))
        f.write(tail())


def _check_task_keys(config: RunConfig, ds: MultiTargetDataset) -> None:
    """Every task named in a per-task key must be an assembled task."""
    names = {t.name for t in ds.tasks}
    for k in _keys(config):
        for task in sorted(k.value) if k.per_task else ():
            if task not in names:
                raise ConfigError(f"unknown task {task!r} in key '{k.key}.{task}'")


def _write_scatter(out_dir: Path, metrics: MetricReport, tasks) -> None:
    """One true-vs-predicted CSV per task with defined test cells."""
    for task in tasks:
        tm = metrics.tasks[task.name]
        if tm.true is None:
            continue
        pairs = zip(tm.true.tolist(), tm.predicted.tolist())
        with open(out_dir / f"scatter_{task.name}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["true", "predicted"])
            if task.kind == REGRESSION:
                w.writerows((repr(t), repr(p)) for t, p in pairs)
            else:
                w.writerows((task.classes[t], task.classes[p]) for t, p in pairs)


def _report_lines(config: RunConfig, result: CdlcResult, pl_reports) -> list[str]:
    lines = ["effective configuration:"]
    lines += ["  " + ln for ln in config.to_config_text().splitlines()]
    lines.append("")
    lines.append(f"status: {result.status}")
    lines.append(f"iterations: {len(result.records)}")
    lines.append(f"pseudo-labels assigned: {len(result.assignments)}")
    if result.final_metrics is not None:
        lines.append("")
        lines.append("final test metrics:")
        for name, tm in result.final_metrics.tasks.items():
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


# BLAS held at one thread for the whole run: a second BLAS thread spins on the
# second CPU between GEMMs, where the MC passes run their second worker
@one_blas_thread()
def run(config: RunConfig, quiet: bool = False) -> None:
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir {config.output_dir!r}: cannot create the directory "
                          f"({exc.strerror})") from None

    _progress(quiet, f"reading {len(config.datasets)} input file(s)")
    # every file is read here; each error is raised where it was raised when
    # the files were read one at a time (the test file's after drop_labels)
    paths = [path for path, _ in config.datasets]
    if config.test_file is not None:
        paths.append(config.test_file)
    read = _read_relations(paths)
    test_read = read.pop() if config.test_file is not None else None
    # the parsed training relations live only through assemble: from here on
    # ds holds the one original-units feature matrix of the run
    ds = assemble([(_raised(r), nt) for r, (_, nt) in zip(read, config.datasets)],
                  config.ignore_first_attribute)
    del read
    if not ds.defined.any():
        raise DatasetError("no input file defines a label: "
                           + ", ".join(path for path, _ in config.datasets))
    _check_task_keys(config, ds)
    if config.test_file is not None:
        for t in ds.tasks:
            if "/" in t.name or "\0" in t.name or len(os.fsencode(f"scatter_{t.name}.csv")) > 255:
                raise DatasetError(f"task {t.name!r}: test.file asks for a scatter_<task>.csv, "
                                   "and a file name cannot hold '/' or a NUL character or "
                                   "exceed 255 bytes")
    _progress(quiet, f"assembled {ds.n_instances} instances, {ds.n_features} features, "
                     f"{ds.n_tasks} task(s)")

    withheld = None
    if config.drop_fraction is not None:
        withheld = ds
        ds = drop_labels(ds, config.drop_fraction, config.drop_seed)
        if not ds.defined.any():
            raise ConfigError(f"drop.fraction = {config.drop_fraction} drops every "
                              "defined label: nothing is left to train on")
        _progress(quiet, f"dropped {config.drop_fraction:.0%} of defined labels per task")

    eval_ds = None
    if config.test_file is not None:
        eval_ds = assemble_eval(_raised(test_read), ds, config.ignore_first_attribute)
        del test_read
        _progress(quiet, f"test set: {eval_ds.n_instances} instances")

    _progress(quiet, "running cross-data label completion")
    result = run_cdlc(ds, config.cdlc, eval_ds)
    for r in result.records:
        filled = sum(r.filled.values())
        _progress(quiet, f"iteration {r.iteration}: filled {filled} cell(s), "
                         f"{sum(r.remaining.values())} remaining")
    _progress(quiet, f"finished with status {result.status!r}")

    _write_arff_file(out_dir / "completed.arff", to_relation(result.dataset))
    write_assignments_csv(out_dir / "assignments.csv", result.assignments, ds)
    write_iterations_csv(out_dir / "iterations.csv", result.records, ds)
    if result.final_metrics is not None:
        _write_scatter(out_dir, result.final_metrics, ds.tasks)

    pl_reports = None
    if withheld is not None:
        pl_reports = pseudo_label_accuracy(result.assignments, withheld)

    report = _report_lines(config, result, pl_reports)
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
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output and warnings")
    args = parser.parse_args(argv)

    try:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        flags = {"net.seed": args.seed, "output.dir": args.out_dir}
        config = parse_config(_utf8_text(args.config, path.read_bytes(), ConfigError),
                              {k: str(v) for k, v in flags.items() if v is not None})
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    # library warnings obey --quiet too: the logged ones ("head is frozen",
    # "assigned no cells") and the issued ones ("zero-variance input")
    xdata_logger = logging.getLogger("xdata")
    level = xdata_logger.level
    if args.quiet:
        xdata_logger.setLevel(logging.ERROR)
    try:
        with warnings.catch_warnings():
            if args.quiet:
                warnings.filterwarnings("ignore", category=UserWarning, module=r"xdata\.")
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
    finally:
        xdata_logger.setLevel(level)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
