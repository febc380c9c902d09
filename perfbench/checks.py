"""Output checks for one CLI run, and the quality figures read from its report.

The checks are written against the documented output files, not against the
program's own readers, so a bug in ``xdata.arff`` cannot hide itself.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

from workloads import QUADRANT_CLASSES, REGRESSION_TASKS, TASKS, Corpus, Workload

OUTPUT_FILES = ("completed.arff", "assignments.csv", "iterations.csv", "report.txt",
                *(f"scatter_{t}.csv" for t in TASKS))

# report.txt line -> end-to-end metric name
_FINAL_RE = re.compile(r"^  (\w+): (uar|cc)=(\S+) \(n=")
_PSEUDO_RE = re.compile(r"^  (\w+): (accuracy|cc)=(\S+) ")
QUALITY_METRICS = ("uar.quadrant", "cc.coord_a", "cc.coord_v",
                   "pl_acc.quadrant", "pl_cc.coord_a", "pl_cc.coord_v")


class CheckError(Exception):
    pass


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number")
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {text!r}")
    return value


def _check_completed_arff(path: Path, n_rows: int, allow_missing: bool) -> None:
    kinds: list[str] = []
    rows = 0
    in_data = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                low = line.lower()
                if low.startswith("@attribute"):
                    kinds.append("nominal" if line.endswith("}") else "numeric")
                elif low.startswith("@data"):
                    in_data = True
                continue
            cells = line.split(",")
            if len(cells) != len(kinds):
                raise CheckError(f"completed.arff line {lineno}: {len(cells)} cells, "
                                 f"expected {len(kinds)}")
            for kind, cell in zip(kinds, cells):
                if cell == "?":
                    if not allow_missing:
                        raise CheckError(f"completed.arff line {lineno}: undefined cell "
                                         f"left in a completed run")
                elif kind == "numeric":
                    _finite(cell, f"completed.arff line {lineno}")
                elif cell not in QUADRANT_CLASSES:
                    raise CheckError(f"completed.arff line {lineno}: unknown class {cell!r}")
            rows += 1
    if rows != n_rows:
        raise CheckError(f"completed.arff has {rows} rows, expected {n_rows}")


def _filled_per_task(path: Path) -> tuple[int, dict[str, int]]:
    with open(path, newline="") as f:
        records = list(csv.DictReader(f))
    filled = {t: sum(int(r[f"filled_{t}"]) for r in records) for t in TASKS}
    return len(records), filled


def _check_assignments(path: Path) -> dict[str, int]:
    counts = dict.fromkeys(TASKS, 0)
    with open(path, newline="") as f:
        for lineno, r in enumerate(csv.DictReader(f), start=2):
            where = f"assignments.csv line {lineno}"
            task = r["task"]
            if task not in counts:
                raise CheckError(f"{where}: unknown task {task!r}")
            counts[task] += 1
            if task in REGRESSION_TASKS:
                _finite(r["label"], where)
            elif r["label"] not in QUADRANT_CLASSES:
                raise CheckError(f"{where}: unknown class {r['label']!r}")
            _finite(r["confidence"], where)
    return counts


def quality(report: str) -> dict[str, float]:
    """Final test metrics and pseudo-label quality, by end-to-end metric name."""
    found: dict[str, float] = {}
    section = None
    for line in report.splitlines():
        if line.startswith("final test metrics"):
            section = "final"
        elif line.startswith("pseudo-label quality"):
            section = "pseudo"
        elif section == "final" and (m := _FINAL_RE.match(line)):
            found[f"{m.group(2)}.{m.group(1)}"] = _finite(m.group(3), "report.txt")
        elif section == "pseudo" and (m := _PSEUDO_RE.match(line)):
            prefix = "pl_acc" if m.group(2) == "accuracy" else "pl_cc"
            found[f"{prefix}.{m.group(1)}"] = _finite(m.group(3), "report.txt")
    missing = [k for k in QUALITY_METRICS if k not in found]
    if missing:
        raise CheckError(f"report.txt lacks {', '.join(missing)}")
    return {k: found[k] for k in QUALITY_METRICS}


def check_run(w: Workload, corpus: Corpus, out_dir: Path, exit_code: int) -> dict[str, float]:
    """Raise CheckError unless the run's outputs are complete and consistent;
    return its quality figures."""
    if exit_code != 0:
        raise CheckError(f"CLI exited with code {exit_code}")
    for name in OUTPUT_FILES:
        if not (out_dir / name).is_file():
            raise CheckError(f"output file {name} is missing")
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    status = re.search(r"^status: (\S+)$", report, re.M)
    if status is None or status.group(1) != w.expected_status:
        raise CheckError(f"status {status and status.group(1)!r}, "
                         f"expected {w.expected_status!r}")
    completed = w.expected_status == "completed"
    _check_completed_arff(out_dir / "completed.arff", w.n_train, allow_missing=not completed)
    iterations, filled = _filled_per_task(out_dir / "iterations.csv")
    assigned = _check_assignments(out_dir / "assignments.csv")
    k = int(w.cdlc["select_per_task"])
    for t in TASKS:
        # every round fills min(k, open cells) per task, and a completed run
        # fills every cell the label drop left undefined
        expected = min(iterations * k, corpus.undefined_after_drop[t])
        if completed and expected != corpus.undefined_after_drop[t]:
            raise CheckError(f"task {t}: completed after {iterations} rounds of {k}, "
                             f"but {corpus.undefined_after_drop[t]} cells were undefined")
        if filled[t] != expected or assigned[t] != expected:
            raise CheckError(f"task {t}: iterations.csv fills {filled[t]}, assignments.csv "
                             f"has {assigned[t]}, expected {expected}")
    return quality(report)
