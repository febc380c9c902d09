#!/usr/bin/env python3
"""Benchmark of the xdata label-completion CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from ./src.
Each workload (see workloads.py) is generated from --seed, outside every
timing, and the ``xdata-complete`` CLI runs on it in fresh processes, one at
a time, with BLAS threads capped at 2.

--trace 0 measures the end-to-end metrics with tracing off: the wall time
and peak RSS of a CLI process (medians over the runs that fit in --seconds,
at least three), ok_frac (the share of CLI runs that pass the output checks,
1 - failed_frac; failed_frac itself is printed but is 0 on a correct program,
so it cannot carry a relative bound), the set-up time (median of fresh
interpreters that only import ``xdata.cli``, alternated with the CLI runs) and
the final test and pseudo-label quality read from ``report.txt``.

--trace 1 measures the per-layer metrics: pairs of one untraced and one traced
CLI run (traced.py) fill --seconds (at least one pair); each metric is the
median over the traced runs. The traced outputs must equal the untraced ones
byte for byte. A step microbenchmark (``micro.*``) follows.

Every run's outputs are checked (checks.py). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the run metadata and a table of every metric with its
unit. The exit code is 1 if an output check failed, 2 if the checkout holds
no xdata source.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import QUALITY_METRICS, CheckError, check_run
from workloads import (QUADRANT_CLASSES, REGRESSION_TASKS, TASKS, WORKLOADS, Corpus,
                       Workload, config_text, write_corpus)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # a run must end within 180 s
SETUPS_PER_RUN = 2
MIN_SETUPS = 7
MIN_RUNS = 3
MIN_PAIRS = 1
CLI_CODE = ["-c", "from xdata.cli import entry; entry()"]  # as the xdata-complete script
IMPORT_ONLY = ["-c", "import xdata.cli"]
IDENTICAL_OUTPUTS = ("assignments.csv", "iterations.csv")  # documented as byte-identical

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
    **{name: ("ratio", "higher") for name in QUALITY_METRICS},
}
_LOWER_S = "s", "lower"
# name -> (unit, better). The comments say which end-to-end metric on which
# workload a change to the layer should move.
PER_LAYER = {
    # wall_s on ingest-wide (both kinds of row); barely on the other two
    "arff.parse_s": _LOWER_S, "arff.parse_plain_rows_per_s": ("rows/s", "higher"),
    "arff.parse_quoted_rows_per_s": ("rows/s", "higher"), "arff.write_s": _LOWER_S,
    "arff.input_bytes": ("bytes", "lower"), "arff.output_bytes": ("bytes", "lower"),
    # wall_s on ingest-wide
    "dataset.assemble_s": _LOWER_S, "dataset.drop_s": _LOWER_S,
    "dataset.standardize_s": _LOWER_S, "dataset.split_s": _LOWER_S,
    "dataset.to_relation_s": _LOWER_S,
    # wall_s on cdlc-train (linear heads: the fusable path); a fused-head change
    # should leave cdlc-mc-heads (hidden heads, momentum) unchanged
    "model.train_s": _LOWER_S, "model.train_steps": ("count", "lower"),
    "model.train_samples": ("count", "lower"), "model.step_us": ("us", "lower"),
    "model.grad_s": _LOWER_S, "model.mask_s": _LOWER_S, "model.update_s": _LOWER_S,
    # wall_s and peak_rss_mb on cdlc-mc-heads
    "model.mc_predict_s": _LOWER_S, "model.mc_forward_s": _LOWER_S,
    "model.mc_reduce_s": _LOWER_S, "model.mc_row_passes": ("count", "lower"),
    "model.mc_row_passes_per_s": ("1/s", "higher"),
    # loop self time and selection: wall_s on cdlc-mc-heads (14 rounds) and
    # ingest-wide (one round over the largest candidate pool)
    "cdlc.iterations": ("count", "lower"), "cdlc.loop_s": _LOWER_S,
    "cdlc.loop_self_s": _LOWER_S, "cdlc.select_s": _LOWER_S,
    "cdlc.candidates": ("count", "lower"), "cdlc.assigned": ("count", "higher"),
    "cdlc.accept_ratio": ("ratio", "higher"), "cdlc.labeled_rows_total": ("count", "lower"),
    "cdlc.write_csv_s": _LOWER_S,
    # small everywhere; watched so that work moved into evaluation shows
    "metrics.evaluate_s": _LOWER_S, "metrics.evaluate_calls": ("count", "lower"),
    "metrics.pseudo_acc_s": _LOWER_S,
    "cli.self_s": _LOWER_S, "proc.cpu_s": _LOWER_S, "trace.overhead_s": _LOWER_S,
    "trace.unattributed_s": _LOWER_S,
    # one step on one minibatch of each workload's network: the per-step
    # Python overhead behind model.step_us
    "micro.mask_us": ("us", "lower"), "micro.forward_us": ("us", "lower"),
    "micro.grad_us": ("us", "lower"), "micro.mc_pass_us": ("us", "lower"),
}
# Stage metrics that partition the traced cli.run span (each stage's time
# counts once: a nested stage is excluded from its caller's self time). The
# traced wall time they leave, start-up and imports, is trace.unattributed_s.
PARTITION = ("arff.parse_s", "arff.write_s", "dataset.assemble_s", "dataset.drop_s",
             "dataset.standardize_s", "dataset.split_s", "dataset.to_relation_s",
             "model.train_s", "model.mc_predict_s", "cdlc.loop_self_s", "cdlc.select_s",
             "cdlc.write_csv_s", "metrics.evaluate_s", "metrics.pseudo_acc_s", "cli.self_s")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


@dataclass
class Proc:
    code: int | None  # exit code; negative for a signal, None on timeout
    wall: float
    cpu: float  # user + system
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: Deadline, log: Path) -> Proc:
    """Run one child to completion; wall from spawn to exit, usage from wait4."""
    timeout = max(1.0, deadline.left())
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            p.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else p.returncode
    return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in IDENTICAL_OUTPUTS:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def _log_tail(log: Path) -> str:
    text = log.read_text(errors="replace").strip() if log.exists() else ""
    return text[-800:]


class Session:
    """One benchmark invocation on one workload and seed."""

    def __init__(self, w: Workload, seed: int, seconds: float, work: Path, deadline: Deadline):
        self.w, self.seed, self.seconds, self.work, self.deadline = w, seed, seconds, work, deadline
        self.log = work / "stderr.log"
        self.corpus: Corpus = write_corpus(w, seed, work / "data")
        self.attempted = 0  # child processes started, CLI runs and others
        self.failed: set[str] = set()  # tags of children that failed a check
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.counts: dict = {}

    def fail(self, tag: str, message: str) -> None:
        self.failed.add(tag)
        self.failures.append(f"{tag}: {message}\n{_log_tail(self.log)}".rstrip())

    def cli(self, tag: str, traced: bool) -> tuple[Proc, Path, dict | None]:
        """One CLI run and its output check; returns (process, output dir,
        quality or None if the run failed)."""
        out = self.work / tag
        cfg = self.work / f"{tag}.conf"
        cfg.write_text(config_text(self.w, self.seed, self.corpus, out), encoding="utf-8")
        cli_args = ["--config", str(cfg), "--quiet"]
        if traced:
            args = [str(HERE / "traced.py"), "trace", str(self.work / f"{tag}.spans.json"),
                    *cli_args]
        else:
            args = [*CLI_CODE, *cli_args]
        proc = spawn(args, self.deadline, self.log)
        self.attempted += 1
        try:
            if proc.code is None:
                raise CheckError("timed out")
            q = check_run(self.w, self.corpus, out, proc.code)
            # every run of one seed, traced or not, must write the same bytes
            self.digests.add(_digest(out))
            if len(self.digests) > 1:
                raise CheckError(f"{' or '.join(IDENTICAL_OUTPUTS)} differs from an "
                                 f"earlier run of seed {self.seed}")
        except (CheckError, OSError) as exc:
            self.fail(tag, str(exc))
            return proc, out, None
        return proc, out, q

    def more(self, started: float, durations: list[float], minimum: int) -> bool:
        """Start another repetition while it fits in --seconds and the deadline."""
        if len(durations) < minimum:
            return self.deadline.left() > 0
        expected = statistics.median(durations)
        return (time.perf_counter() - started + expected <= self.seconds
                and self.deadline.left() > 2 * expected)

    def setup(self, k: int) -> float | None:
        """Wall time of a fresh interpreter that only imports xdata.cli."""
        p = spawn(IMPORT_ONLY, self.deadline, self.log)
        self.attempted += 1
        if p.code != 0:
            self.fail(f"setup{k}", "import xdata.cli failed")
            return None
        return p.wall

    def end_to_end(self) -> dict:
        spawn(IMPORT_ONLY, self.deadline, self.log)  # compiles bytecode, fills the file cache
        # Set-up and CLI runs alternate, so both sample the whole window of a
        # machine whose speed drifts over seconds.
        setups, walls, rounds, rss, quality = [], [], [], [], None
        started = time.perf_counter()
        while self.more(started, rounds, MIN_RUNS):
            t0 = time.perf_counter()
            setups += [self.setup(len(setups)) for _ in range(SETUPS_PER_RUN)]
            proc, out, q = self.cli(f"run{len(walls)}", traced=False)
            walls.append(proc.wall)
            if q is not None:
                rss.append(proc.rss_mb)
                quality = quality or q
            shutil.rmtree(out, ignore_errors=True)
            rounds.append(time.perf_counter() - t0)
        while len(setups) < MIN_SETUPS and not self.failed:
            setups.append(self.setup(len(setups)))
        setups = [s for s in setups if s is not None]
        self.counts = {"setup_reps": len(setups), "cli_runs": len(walls)}
        metrics = {
            "wall_s": _median(walls), "setup_s": _median(setups),
            "peak_rss_mb": _median(rss), "ok_frac": len(rss) / max(1, len(walls)),
        }
        metrics.update(quality or dict.fromkeys(QUALITY_METRICS))
        return metrics

    def per_layer(self) -> dict:
        samples: list[dict] = []
        untraced, traced = [], []
        started = time.perf_counter()
        while self.more(started, [u + t for u, t in zip(untraced, traced)], MIN_PAIRS):
            k = len(traced)
            pu, out_u, qu = self.cli(f"plain{k}", traced=False)
            pt, out_t, qt = self.cli(f"traced{k}", traced=True)
            untraced.append(pu.wall)
            traced.append(pt.wall)
            if qu is not None and qt is not None:
                spans = json.loads((self.work / f"traced{k}.spans.json").read_text())
                samples.append(stage_metrics(spans, self.corpus, out_t, pt.wall, pu.cpu))
            shutil.rmtree(out_u, ignore_errors=True)
            shutil.rmtree(out_t, ignore_errors=True)
        self.counts = {"traced_pairs": len(traced)}
        metrics = {name: _median([s[name] for s in samples if s[name] is not None])
                   for name in PER_LAYER if not name.startswith(("micro.", "trace.overhead"))}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                       if traced else None)
        metrics.update(self.micro())
        return {name: metrics.get(name) for name in PER_LAYER}

    def micro(self) -> dict:
        net = self.w.net
        spec = {
            "feature_dim": 10, "classes": list(QUADRANT_CLASSES),
            "regression_tasks": list(REGRESSION_TASKS),
            "shared_layers": [int(s) for s in net["shared_layers"].split(",")],
            "head_layers": list(self.w.head_layers()), "dropout": float(net["dropout"]),
            "activation": net["activation"], "batch_size": int(net["batch_size"]),
            "mc_passes": int(net["mc_passes"]), "seed": self.seed,
        }
        out = self.work / "micro.json"
        p = spawn([str(HERE / "traced.py"), "micro", str(out), json.dumps(spec)],
                  self.deadline, self.log)
        self.attempted += 1
        if p.code != 0:
            self.fail("micro", "microbenchmark failed")
            return {}
        return json.loads(out.read_text())


def _median(values: list[float]):
    return statistics.median(values) if values else None


def stage_metrics(trace: dict, corpus: Corpus, out_dir: Path, traced_wall: float,
                  cpu_s: float) -> dict:
    """Per-layer metrics of one traced run; a metric whose stage is absent is None."""
    spans = trace["spans"]
    absent = set(trace["absent"])
    child = [0.0] * len(spans)
    for stage, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def parent_is(span, stage):
        return span[1] >= 0 and spans[span[1]][0] == stage

    def select(stage, parent=None):
        return [(i, s) for i, s in enumerate(spans)
                if s[0] == stage and (parent is None or parent_is(s, parent))]

    def total(stage, parent=None):
        if stage in absent or (parent is not None and parent in absent):
            return None
        return sum(s[3] - s[2] for _, s in select(stage, parent))

    def self_time(stage):
        if stage in absent:
            return None
        return sum(s[3] - s[2] - child[i] for i, s in select(stage))

    def probes(stage, key, parent=None):
        values = [s[4] for _, s in select(stage, parent)]
        if stage in absent or any(v is None for v in values):
            return None
        return sum(v[key] for v in values)

    def add(*xs):
        return None if any(x is None for x in xs) else sum(xs)

    def ratio(a, b, scale=1.0):
        return None if a is None or not b else a / b * scale

    m: dict = {}
    # ARFF: each parse call is matched to its input file by text length
    by_size = {f.size: f for f in corpus.files.values()}
    rows = {False: 0, True: 0}
    secs = {False: 0.0, True: 0.0}
    for _, s in select("arff.parse"):
        f = by_size.get(s[4])
        if f is not None:
            rows[f.quoted] += f.rows
            secs[f.quoted] += s[3] - s[2]
    m["arff.parse_s"] = total("arff.parse")
    for quoted, name in ((False, "arff.parse_plain_rows_per_s"),
                         (True, "arff.parse_quoted_rows_per_s")):
        # 0 when the workload has no input rows of that kind
        m[name] = None if "arff.parse" in absent else (
            rows[quoted] / secs[quoted] if rows[quoted] else 0.0)
    m["arff.write_s"] = total("arff.write")
    m["arff.input_bytes"] = corpus.input_bytes
    m["arff.output_bytes"] = (out_dir / "completed.arff").stat().st_size

    m["dataset.assemble_s"] = add(total("dataset.assemble"), total("dataset.assemble_eval"))
    m["dataset.drop_s"] = total("dataset.drop")
    m["dataset.standardize_s"] = total("dataset.standardize")
    m["dataset.split_s"] = total("dataset.split")
    m["dataset.to_relation_s"] = total("dataset.to_relation")

    m["model.train_s"] = total("model.train")
    m["model.train_steps"] = probes("model.train", "steps")
    m["model.train_samples"] = None
    if m["model.train_steps"] is not None:
        m["model.train_samples"] = sum(s[4]["rows"] * s[4]["epochs"]
                                       for _, s in select("model.train"))
    m["model.step_us"] = ratio(m["model.train_s"], m["model.train_steps"], 1e6)
    m["model.grad_s"] = total("model.grad", "model.train")
    m["model.mask_s"] = total("model.mask", "model.train")
    m["model.update_s"] = self_time("model.train")

    m["model.mc_predict_s"] = total("model.mc_predict")
    m["model.mc_forward_s"] = total("model.forward", "model.mc_predict")
    m["model.mc_reduce_s"] = self_time("model.mc_predict")
    m["model.mc_row_passes"] = probes("model.mc_predict", "row_passes")
    m["model.mc_row_passes_per_s"] = ratio(m["model.mc_row_passes"], m["model.mc_predict_s"])

    # iteration counts come from the program's own iterations.csv: a round
    # scores every open cell, so open = filled + remaining after the round
    with open(out_dir / "iterations.csv", newline="") as f:
        records = list(csv.DictReader(f))
    assigned = sum(int(r[f"filled_{t}"]) for r in records for t in TASKS)
    candidates = assigned + sum(int(r[f"remaining_{t}"]) for r in records for t in TASKS)
    m["cdlc.iterations"] = len(records)
    m["cdlc.loop_s"] = total("cdlc.run")
    m["cdlc.loop_self_s"] = self_time("cdlc.run")
    m["cdlc.select_s"] = total("cdlc.select")
    m["cdlc.candidates"] = candidates
    m["cdlc.assigned"] = assigned
    m["cdlc.accept_ratio"] = ratio(assigned, candidates)
    m["cdlc.labeled_rows_total"] = probes("model.train", "rows", "cdlc.run")
    m["cdlc.write_csv_s"] = add(total("cdlc.write_assignments"),
                                total("cdlc.write_iterations"))

    m["metrics.evaluate_s"] = total("metrics.evaluate")
    m["metrics.evaluate_calls"] = (None if "metrics.evaluate" in absent
                                   else len(select("metrics.evaluate")))
    m["metrics.pseudo_acc_s"] = total("metrics.pseudo_acc")

    m["cli.self_s"] = self_time("cli.run")
    m["proc.cpu_s"] = cpu_s
    # an absent stage's time lands in its caller's self time, so the parts
    # that remain still cover cli.run
    m["trace.unattributed_s"] = traced_wall - sum(m[k] for k in PARTITION if m[k] is not None)
    return m


def metadata(args, counts: dict) -> dict:
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # noqa: BLE001 - metadata is best effort
        blas = f"unknown ({exc})"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True)
        commit = r.stdout.strip() or commit

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **counts,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas": blas,
        "blas_threads": {k: BLAS_THREADS for k in BLAS_ENV},
        "load_generators": 1, "commit": commit, "machine": platform.machine(),
    }


def run_one(w: Workload, seed: int, seconds: float, trace: int, deadline: Deadline):
    # relative to the checkout root, the working directory of every child, so
    # config values never hold the checkout's own path (which may contain '#')
    work = Path(".perfbench_work") / f"{w.name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(w, seed, seconds, work, deadline)
        metrics = session.per_layer() if trace else session.end_to_end()
        return session, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _unit_better(name: str) -> tuple[str, str]:
    return END_TO_END.get(name) or PER_LAYER[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xdata" / "cli.py").is_file():
        print(f"error: no xdata source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS.values()
                for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        jobs = [(WORKLOADS[args.workload], args.trace or 0)]
    attempted = failed = 0
    failures: list[str] = []
    all_metrics: dict = {}
    counts: dict = {}
    for w, trace in jobs:
        session, metrics = run_one(w, args.seed, args.seconds, trace, Deadline(DEADLINE_S))
        attempted += session.attempted
        failed += len(session.failed)
        failures += [f"[{w.name}] {f}" for f in session.failures]
        counts[f"{w.name}/trace{trace}"] = session.counts
        prefix = "" if len(jobs) == 1 else f"{w.name}/"
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
        for name, value in metrics.items():
            unit, better = _unit_better(name)
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{w.name:14s} {name:30s} {shown:>14s} {unit:7s} {better}")

    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print("meta " + json.dumps(metadata(args, {"runs": counts})))
    print(f"failed_frac {failed / max(1, attempted):.4f} ({failed} of {attempted} runs failed)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit_better(name.split("/")[-1])[0]}
                    for name, value in all_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
