"""Child process of the benchmark: a traced CLI run, or the step microbenchmark.

    python3 perfbench/traced.py trace SPANS_JSON CLI_ARGS...
    python3 perfbench/traced.py micro MICRO_JSON NET_JSON

``trace`` wraps the public stage functions of the xdata modules, runs
``xdata.cli.main(CLI_ARGS)`` in this process and writes every span (stage,
parent span, start, end, argument probe) and the absent stages to SPANS_JSON;
it exits with the CLI's exit code. A stage is looked up by module attribute name and replaced in
every xdata module that bound it (``from .arff import parse_arff`` makes a
second binding), so wrapping follows the function wherever it is called from.
A stage that no longer exists is listed as absent instead of failing.

``micro`` times single calls of ``xdata.model``'s public step functions on one
minibatch of the network shape given in NET_JSON and writes medians in
microseconds to MICRO_JSON; a function that no longer exists reads null.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time

# (stage name, module, attribute, argument probe)
STAGES = (
    ("arff.parse", "xdata.arff", "parse_arff", "text_len"),
    ("arff.write", "xdata.arff", "write_arff", None),
    ("dataset.assemble", "xdata.dataset", "assemble", None),
    ("dataset.assemble_eval", "xdata.dataset", "assemble_eval", None),
    ("dataset.drop", "xdata.dataset", "drop_labels", None),
    ("dataset.standardize", "xdata.dataset", "standardize", None),
    ("dataset.split", "xdata.dataset", "split", None),
    ("dataset.to_relation", "xdata.dataset", "to_relation", None),
    ("model.train", "xdata.model", "train", "train"),
    ("model.grad", "xdata.model", "loss_and_grads", None),
    ("model.mask", "xdata.model", "sample_dropout_masks", None),
    ("model.mc_predict", "xdata.model", "mc_predict", "mc_predict"),
    ("model.forward", "xdata.model", "forward", None),
    ("cdlc.run", "xdata.trainer", "run_cdlc", None),
    ("cdlc.select", "xdata.trainer", "select_top_k", None),
    ("cdlc.write_assignments", "xdata.trainer", "write_assignments_csv", None),
    ("cdlc.write_iterations", "xdata.trainer", "write_iterations_csv", None),
    ("metrics.evaluate", "xdata.metrics", "evaluate", None),
    ("metrics.pseudo_acc", "xdata.metrics", "pseudo_label_accuracy", None),
    ("cli.run", "xdata.cli", "run", None),
)


def _probe(kind, args):
    """Work counts read from a stage's arguments; None if they cannot be read."""
    try:
        if kind == "text_len":
            return len(args[0]) if isinstance(args[0], str) else None
        if kind == "train":
            cfg, n = args[0].config, len(args[1])
            return {"rows": n, "epochs": cfg.epochs,
                    "steps": cfg.epochs * math.ceil(n / cfg.batch_size)}
        if kind == "mc_predict":
            cfg = args[0].config
            passes = cfg.mc_passes if cfg.dropout > 0 else 1
            return {"row_passes": len(args[1]) * passes}
    except (AttributeError, IndexError, TypeError):
        return None
    return None


class Tracer:
    """Records one span per stage call; spans stay in memory until dump()."""

    def __init__(self):
        self.spans: list = []  # [stage, parent index or -1, start, end, probe]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._restore: list = []

    def _wrap(self, stage, fn, probe_kind):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [stage, stack[-1] if stack else -1, 0.0, 0.0,
                    _probe(probe_kind, args) if probe_kind else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        for stage, module_name, attr, probe_kind in STAGES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(stage)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(stage)
                continue
            wrapper = self._wrap(stage, fn, probe_kind)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "xdata" or name.startswith("xdata.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def dump(self, path: str) -> None:
        _write_json(path, {"absent": self.absent, "spans": self.spans})


def traced_cli(out_path: str, cli_args: list[str]) -> int:
    import xdata.cli  # noqa: F401 - loads every module the CLI binds

    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["xdata.cli"].main(cli_args)
    finally:
        tracer.uninstall()
    tracer.dump(out_path)
    return code


def _median_call_us(fn, blocks: int = 7, target_s: float = 0.03):
    """Median over `blocks` timing blocks of the per-call time, in microseconds."""
    fn()
    reps, t = 1, 0.0
    while True:  # calibrate a block to about target_s
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        t = time.perf_counter() - t0
        if t >= target_s / 4 or reps >= 1 << 16:
            break
        reps *= 2
    reps = max(1, int(reps * target_s / max(t, 1e-9)))
    per_call = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_call) * 1e6


def micro(out_path: str, net_spec: dict) -> int:
    import numpy as np

    model = importlib.import_module("xdata.model")
    dataset = importlib.import_module("xdata.dataset")
    result: dict = {"micro.mask_us": None, "micro.forward_us": None,
                    "micro.grad_us": None, "micro.mc_pass_us": None}
    try:
        tasks = [dataset.TaskSchema("quadrant", "multiclass", tuple(net_spec["classes"]))]
        tasks += [dataset.TaskSchema(t, "regression") for t in net_spec["regression_tasks"]]
        cfg = model.NetworkConfig(
            shared_layers=tuple(net_spec["shared_layers"]),
            head_layers={t.name: tuple(net_spec["head_layers"]) for t in tasks},
            dropout=net_spec["dropout"], activation=net_spec["activation"],
            batch_size=net_spec["batch_size"], mc_passes=net_spec["mc_passes"],
            seed=net_spec["seed"])
        net = model.init_network(cfg, net_spec["feature_dim"], tasks)
    except (AttributeError, TypeError) as exc:
        print(f"micro: cannot build the network: {exc}", file=sys.stderr)
        _write_json(out_path, result)
        return 0

    rng = np.random.default_rng(net_spec["seed"])
    b = cfg.batch_size
    x = rng.normal(size=(b, net_spec["feature_dim"]))
    y = np.stack([rng.integers(0, len(net_spec["classes"]), b).astype(float),
                  rng.normal(size=b), rng.normal(size=b)], axis=1)
    defined = rng.random((b, len(tasks))) < 0.5
    defined[:, 0] = True
    mask_rng = np.random.default_rng(1)
    draw = getattr(model, "sample_dropout_masks", None)
    masks = draw(net, b, mask_rng) if callable(draw) else None

    cases = {
        "micro.mask_us": ("sample_dropout_masks", lambda f: f(net, b, mask_rng)),
        "micro.forward_us": ("forward", lambda f: f(net, x)),
        "micro.grad_us": ("loss_and_grads", lambda f: f(net, x, y, defined, masks)),
        "micro.mc_pass_us": ("mc_predict", lambda f: f(net, x, mask_rng)),
    }
    for metric, (attr, call) in cases.items():
        fn = getattr(model, attr, None)
        if not callable(fn) or (metric == "micro.grad_us" and masks is None):
            continue
        try:
            result[metric] = _median_call_us(lambda: call(fn))
        except TypeError as exc:  # the function's signature changed
            print(f"micro: {attr}: {exc}", file=sys.stderr)
    if result["micro.mc_pass_us"] is not None:
        result["micro.mc_pass_us"] /= cfg.mc_passes
    _write_json(out_path, result)
    return 0


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


if __name__ == "__main__":
    mode, out = sys.argv[1], sys.argv[2]
    if mode == "trace":
        sys.exit(traced_cli(out, sys.argv[3:]))
    if mode == "micro":
        sys.exit(micro(out, json.loads(sys.argv[3])))
    sys.exit(f"unknown mode {mode!r}")
