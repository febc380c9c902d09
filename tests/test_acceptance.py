"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from arff_columns import columns_equal, count_missing

from xdata.arff import ArffError, parse_arff, write_arff
from xdata.cli import main
from xdata.dataset import (MultiTargetDataset, TaskSchema, assemble, assemble_eval,
                           drop_labels, split)
from xdata.metrics import pearson_cc, pseudo_label_accuracy, uar
from xdata.model import NetworkConfig, init_network, loss_and_grads, mc_predict, mt_loss
from xdata.synthetic import make_corpus
from xdata.trainer import CdlcConfig, run_cdlc, select_top_k

DATA = Path(__file__).parent / "data" / "arff"


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"\nACCEPTANCE {num:2d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:2d} {name}: PASS")
        return wrapper
    return deco


# Reference numbers from the original corpus-scale experiment. They depend on
# licensed audio data and are context only, not reproduced here.
REFERENCE_TEST_NUMBERS = {
    "uar_emotion": (0.562, 0.576, 0.581),  # iteration 0, final, ground truth
    "cc_arousal": (0.701, 0.715, 0.735),
    "cc_valence": (0.342, 0.427, 0.453),
}


@criterion(1, "reference-results-context")
def test_reference_numbers_recorded_not_reproduced():
    for lo, hi, gt in REFERENCE_TEST_NUMBERS.values():
        assert lo <= hi <= gt  # sanity on the recorded context values


THREE_TASKS = [
    TaskSchema("flag", "multiclass", ("no", "yes")),
    TaskSchema("cat", "multiclass", ("a", "b", "c", "d")),
    TaskSchema("value", "regression"),
]


def _random_case(rng):
    feat = int(rng.integers(2, 6))
    shared = tuple(int(s) for s in rng.choice([6, 4], size=rng.integers(0, 3)))
    heads = {}
    if rng.random() < 0.5:
        heads[THREE_TASKS[int(rng.integers(0, 3))].name] = (int(rng.integers(1, 4)),)
    cfg = NetworkConfig(shared_layers=shared, head_layers=heads, dropout=0.0,
                        seed=int(rng.integers(0, 10_000)))
    net = init_network(cfg, feat, THREE_TASKS)
    n = int(rng.integers(2, 7))
    x = rng.normal(size=(n, feat))
    y = np.zeros((n, 3))
    y[:, 0] = rng.integers(0, 2, n)
    y[:, 1] = rng.integers(0, 4, n)
    y[:, 2] = rng.normal(size=n)
    mask = rng.random((n, 3)) < 0.6
    return net, x, y, mask


@criterion(2, "gradient-oracle")
def test_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    eps = 1e-5
    for _ in range(20):
        net, x, y, mask = _random_case(rng)
        fg = loss_and_grads(net, x, y, mask)
        fp = net.params
        for i in range(fp.size):
            orig = fp[i]
            fp[i] = orig + eps
            lp = mt_loss(net, x, y, mask)
            fp[i] = orig - eps
            lm = mt_loss(net, x, y, mask)
            fp[i] = orig
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - fg[i]) <= max(1e-8, 1e-4 * max(abs(fd), abs(fg[i])))
    assert time.perf_counter() - started < 30


@criterion(3, "loss-masking")
def test_masking_zeroes_undefined_cells_exactly():
    rng = np.random.default_rng(7)
    cfg = NetworkConfig(shared_layers=(5,), dropout=0.0, seed=42)
    net = init_network(cfg, 4, THREE_TASKS)
    x = rng.normal(size=(6, 4))
    y = np.zeros((6, 3))
    y[:, 0] = rng.integers(0, 2, 6)
    y[:, 1] = rng.integers(0, 4, 6)
    y[:, 2] = rng.normal(size=6)

    empty = np.zeros((6, 3), dtype=bool)
    grads = loss_and_grads(net, x, y, empty)
    loss = mt_loss(net, x, y, empty)
    assert loss == 0.0
    assert np.all(grads == 0.0)

    for i, m in [(0, 0), (3, 1), (5, 2)]:
        single = empty.copy()
        single[i, m] = True
        toggled = mt_loss(net, x, y, single)
        # independent single-cell oracle: evaluate the lone row/task directly
        cell_mask = np.zeros((1, 3), dtype=bool)
        cell_mask[0, m] = True
        oracle = mt_loss(net, x[i:i + 1], y[i:i + 1], cell_mask)
        assert abs(toggled - oracle) <= 1e-12


@criterion(4, "confidence-identities")
def test_confidence_identities_and_bounds():
    cfg = NetworkConfig(shared_layers=(6,), dropout=0.0, seed=3)
    net = init_network(cfg, 5, THREE_TASKS)
    # uniform mean softmax over K=4
    w, b = net.heads[1][-1]
    w[...], b[...] = 0.0, 0.0
    preds = mc_predict(net, np.random.default_rng(0).normal(size=(10, 5)))
    assert np.allclose(-preds[1].confidence, math.log(4), atol=1e-9)
    # dropout 0 regression variance is exactly 0
    assert (preds[2].confidence == 0.0).all()

    cfg2 = NetworkConfig(shared_layers=(6,), dropout=0.3, mc_passes=5, seed=4)
    net2 = init_network(cfg2, 5, THREE_TASKS)
    x = np.random.default_rng(5).normal(size=(1000, 5))
    preds2 = mc_predict(net2, x, np.random.default_rng(6))
    assert (preds2[0].confidence >= -math.log(2) - 1e-12).all()
    assert (preds2[0].confidence <= 0.0).all()
    assert (preds2[1].confidence >= -math.log(4) - 1e-12).all()
    assert (preds2[1].confidence <= 0.0).all()


@criterion(5, "selection-oracle")
def test_select_top_k_matches_full_sort():
    rng = np.random.default_rng(99)
    for case in range(1000):
        size = int(np.exp(rng.uniform(0, np.log(10_000))))
        # duplicated confidences force the tie-break to matter
        confs = rng.choice(np.round(rng.uniform(-2, 0, 20), 2), size=size)
        instances = rng.permutation(size * 2)[:size]
        k = int(rng.integers(1, size + 1))
        expected = sorted(range(size), key=lambda j: (-confs[j], instances[j]))[:k]
        assert select_top_k(confs, instances, k).tolist() == expected


def _grid_dataset(undefined_counts, seed=0):
    rng = np.random.default_rng(seed)
    n = max(undefined_counts) + 100
    m = len(undefined_counts)
    tasks = [TaskSchema(f"t{j}", "multiclass", ("no", "yes")) for j in range(m)]
    labels = rng.integers(0, 2, size=(n, m)).astype(float)
    defined = np.ones((n, m), dtype=bool)
    for j, undef in enumerate(undefined_counts):
        rows = rng.choice(n, size=undef, replace=False)
        defined[rows, j] = False
        labels[rows, j] = 0.0
    return MultiTargetDataset(rng.normal(size=(n, 5)), labels, defined, tasks,
                              np.ones(n, dtype=int), [f"f{i}" for i in range(5)])


@criterion(6, "cdlc-termination-monotonicity")
def test_cdlc_terminates_in_exact_iteration_count():
    started = time.perf_counter()
    ds = _grid_dataset([2500, 1800, 0], seed=11)
    cfg = CdlcConfig(
        network=NetworkConfig(shared_layers=(4,), epochs=2, dropout=0.1,
                              mc_passes=3, seed=2),
        select_per_task=1000,
    )
    result = run_cdlc(ds, cfg)
    assert len(result.records) == 3
    totals = [sum(r.remaining.values()) for r in result.records]
    assert all(a > b for a, b in zip([4300] + totals, totals))
    assert totals[-1] == 0
    # full-grid diff on originally defined cells
    assert np.array_equal(result.dataset.labels[ds.defined], ds.labels[ds.defined])
    assert result.dataset.defined.all()
    assert time.perf_counter() - started < 120


def _run_synthetic_seed(seed):
    corpus = make_corpus(n_train=2500, n_test=500, seed=seed)
    ds = assemble([corpus["file1"], corpus["file2"], corpus["file3"], corpus["file4"]])
    withheld = ds
    ds = drop_labels(ds, 0.75, seed=seed + 1)
    eval_ds = assemble_eval(corpus["test"][0], ds)
    cfg = CdlcConfig(
        network=NetworkConfig(shared_layers=(32,), epochs=30, dropout=0.1,
                              learning_rate=0.002, batch_size=64, mc_passes=10,
                              seed=seed),
        select_per_task=1000,
    )
    result = run_cdlc(ds, cfg, eval_ds)
    first = result.records[0].metrics
    last = result.records[-1].metrics
    quality = pseudo_label_accuracy(result.assignments, withheld)
    return first, last, quality


@criterion(7, "synthetic-cross-labeling")
def test_synthetic_cross_labeling_experiment():
    started = time.perf_counter()
    deltas = {"quadrant": [], "coord_a": [], "coord_v": []}
    accuracies = []
    for seed in range(5):
        first, last, quality = _run_synthetic_seed(seed)
        deltas["quadrant"].append(last.tasks["quadrant"].uar - first.tasks["quadrant"].uar)
        deltas["coord_a"].append(last.tasks["coord_a"].cc - first.tasks["coord_a"].cc)
        deltas["coord_v"].append(last.tasks["coord_v"].cc - first.tasks["coord_v"].cc)
        accuracies.append(quality["quadrant"].accuracy)
    # baseline oracles: majority class gives UAR 1/K, constant mean has no CC
    print(f"\n  chance UAR baseline: {1 / 4:.3f}; "
          f"pseudo-label accuracies: {[round(a, 3) for a in accuracies]}")
    for task, d in deltas.items():
        print(f"  median final-minus-initial metric delta {task}: {np.median(d):+.4f}")
        assert np.median(d) >= -0.02, task
    assert np.median(accuracies) >= 0.40
    assert time.perf_counter() - started < 300


@criterion(8, "arff-roundtrip-corpus")
def test_arff_fixture_corpus():
    valid = sorted((DATA / "valid").glob("*.arff"))
    assert len(valid) >= 10
    for path in valid:
        rel = parse_arff(path.read_text(encoding="utf-8"))
        again = parse_arff(write_arff(rel))
        assert again.relation_name == rel.relation_name
        assert again.attributes == rel.attributes
        assert columns_equal(again.columns, rel.columns)
        assert count_missing(again) == count_missing(rel)
    malformed = sorted((DATA / "malformed").glob("*.arff"))
    assert len(malformed) >= 5
    for path in malformed:
        with pytest.raises(ArffError) as exc:
            parse_arff(path.read_text(encoding="utf-8"))
        assert exc.value.line is not None, path.name


@criterion(9, "metric-oracles")
def test_metric_reference_implementations():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        t = rng.integers(0, k, n)
        p = rng.integers(0, k, n)
        # confusion-matrix enumeration
        recalls = []
        for c in range(k):
            total = (t == c).sum()
            if total:
                recalls.append(((t == c) & (p == c)).sum() / total)
        assert abs(uar(t, p, k) - np.mean(recalls)) <= 1e-12
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        mx, my = x.mean(), y.mean()
        ref = ((x - mx) * (y - my)).sum() / math.sqrt(
            ((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
        assert abs(pearson_cc(x, y) - ref) <= 1e-12
    # worked examples
    assert uar([0, 0, 1, 1], [0, 1, 1, 1], 2) == 0.75
    assert abs(pearson_cc([1, 2, 3], [2, 4, 6]) - 1.0) <= 1e-12
    assert abs(pearson_cc([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= 1e-12


@criterion(10, "cli-determinism")
def test_cli_runs_are_byte_identical(tmp_path):
    corpus = make_corpus(n_train=240, n_test=60, seed=0)
    for name, (rel, _) in corpus.items():
        (tmp_path / f"{name}.arff").write_text(write_arff(rel), encoding="utf-8")
    base = "\n".join([
        f"dataset.1.file = {tmp_path}/file1.arff",
        "dataset.1.num_targets = 3",
        f"dataset.2.file = {tmp_path}/file2.arff",
        "dataset.2.num_targets = 1",
        f"dataset.3.file = {tmp_path}/file3.arff",
        "dataset.3.num_targets = 2",
        f"dataset.4.file = {tmp_path}/file4.arff",
        f"test.file = {tmp_path}/test.arff",
        "drop.fraction = 0.75",
        "cdlc.select_per_task = 100",
        "net.shared_layers = 8",
        "net.epochs = 3",
        "net.mc_passes = 3",
    ])
    for run in ("one", "two"):
        cfg = tmp_path / f"{run}.conf"
        cfg.write_text(base + f"\noutput.dir = {tmp_path}/{run}\n")
        assert main(["--config", str(cfg), "--quiet"]) == 0
    for name in ("assignments.csv", "iterations.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name
