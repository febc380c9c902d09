from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdata.dataset import MultiTargetDataset, TaskSchema
from xdata.model import NetworkConfig
from xdata.trainer import (STATUS_COMPLETED, STATUS_MAX_ITERATIONS,
                           STATUS_STALLED, CdlcConfig, run_cdlc, select_top_k)


def top_instances(pool, k, min_confidence=None):
    """Instances chosen by select_top_k from (instance, confidence) pairs."""
    instance = np.array([i for i, _ in pool])
    confidence = np.array([c for _, c in pool])
    return instance[select_top_k(confidence, instance, k, min_confidence)].tolist()


class TestSelectTopK:
    def test_orders_by_highest_confidence(self):
        assert top_instances([(1, -0.05), (2, -0.69), (3, -0.20)], 2) == [1, 3]

    def test_k_larger_than_pool(self):
        assert len(top_instances([(i, -0.1 * i) for i in range(3)], 10)) == 3

    def test_ties_break_to_lower_instance(self):
        assert top_instances([(5, -0.5), (2, -0.5), (9, -0.5)], 2) == [2, 5]

    def test_min_confidence_filters_before_truncation(self):
        assert top_instances([(1, -0.9), (2, -0.1)], 2, min_confidence=-0.5) == [2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10_000),
                              st.sampled_from([-0.1, -0.2, -0.3, -0.5, -1.0])),
                    min_size=1, max_size=200, unique_by=lambda t: t[0]),
           st.integers(1, 50))
    def test_matches_brute_force_sort(self, pool, k):
        expected = [i for i, _ in sorted(pool, key=lambda p: (-p[1], p[0]))[:k]]
        assert top_instances(pool, k) == expected


def grid_dataset(undefined_counts, n_features=4, seed=0):
    """Dataset whose tasks have the given per-task undefined cell counts."""
    rng = np.random.default_rng(seed)
    n = max(max(undefined_counts) + 50, 100)
    m = len(undefined_counts)
    tasks = []
    labels = np.zeros((n, m))
    defined = np.ones((n, m), dtype=bool)
    for t_idx, undef in enumerate(undefined_counts):
        tasks.append(TaskSchema(f"t{t_idx}", "binary", ("no", "yes")))
        labels[:, t_idx] = rng.integers(0, 2, n)
        undef_rows = rng.choice(n, size=undef, replace=False)
        defined[undef_rows, t_idx] = False
        labels[undef_rows, t_idx] = 0.0
    return MultiTargetDataset(rng.normal(size=(n, n_features)), labels, defined,
                              tasks, np.ones(n, dtype=int), [f"f{i}" for i in range(n_features)])


FAST_NET = NetworkConfig(shared_layers=(4,), epochs=2, dropout=0.1,
                         mc_passes=3, learning_rate=0.001, seed=1)


class TestRunCdlc:
    def test_iteration_count_matches_ceil_arithmetic(self):
        ds = grid_dataset([250, 180, 0], seed=3)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=100)
        result = run_cdlc(ds, cfg)
        assert len(result.records) == 3
        assert result.status == STATUS_COMPLETED
        assert result.dataset.defined.all()
        fills = [r.filled["t0"] for r in result.records]
        assert fills == [100, 100, 50]
        assert [r.filled["t2"] for r in result.records] == [0, 0, 0]

    def test_already_complete_runs_zero_iterations(self):
        ds = grid_dataset([0, 0], seed=4)
        result = run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=10))
        assert result.records == []
        assert np.array_equal(result.dataset.labels, ds.labels)

    def test_unreachable_threshold_stalls(self):
        ds = grid_dataset([30], seed=5)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=10,
                         min_confidence={"t0": 0.5})  # > 0 is unattainable
        result = run_cdlc(ds, cfg)
        assert result.status == STATUS_STALLED
        assert len(result.records) == 1
        assert sum(result.records[0].filled.values()) == 0

    def test_max_iterations_stops_early(self):
        ds = grid_dataset([300], seed=6)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=50, max_iterations=2)
        result = run_cdlc(ds, cfg)
        assert result.status == STATUS_MAX_ITERATIONS
        assert len(result.records) == 2

    def test_undefined_strictly_decreasing_and_originals_untouched(self):
        ds = grid_dataset([120, 60], seed=7)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=50)
        result = run_cdlc(ds, cfg)
        remaining = [sum(r.remaining.values()) for r in result.records]
        assert all(a > b for a, b in zip([180] + remaining, remaining))
        originally = ds.defined
        assert np.array_equal(result.dataset.labels[originally], ds.labels[originally])
        assert result.dataset.defined.all()

    def test_assignments_target_previously_undefined_cells_once(self):
        ds = grid_dataset([80, 40], seed=8)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=30)
        result = run_cdlc(ds, cfg)
        a = result.assignments
        cells = set(zip(a.instance.tolist(), a.task_index.tolist()))
        assert len(cells) == len(a) == 120
        assert not ds.defined[a.instance, a.task_index].any()

    def test_warm_start_fills_each_undefined_cell_once(self):
        ds = grid_dataset([90, 50], seed=12)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=40, retrain_from_scratch=False)
        result = run_cdlc(ds, cfg)
        assert result.status == STATUS_COMPLETED
        assert len(result.records) == 3
        originally = ds.defined
        assert result.dataset.defined[originally].all()
        assert np.array_equal(result.dataset.labels[originally], ds.labels[originally])
        a = result.assignments
        cells = list(zip(a.instance.tolist(), a.task_index.tolist()))
        undefined = {tuple(c) for c in np.argwhere(~originally).tolist()}
        assert len(cells) == len(set(cells)) == len(undefined)
        assert set(cells) == undefined
        assert result.dataset.defined.all()

    def test_run_determinism(self):
        ds = grid_dataset([70], seed=9)
        cfg = CdlcConfig(network=FAST_NET, select_per_task=25)
        r1 = run_cdlc(ds, cfg)
        r2 = run_cdlc(ds, cfg)
        for column in fields(r1.assignments):
            assert np.array_equal(getattr(r1.assignments, column.name),
                                  getattr(r2.assignments, column.name))
        assert [r.filled for r in r1.records] == [r.filled for r in r2.records]

    def test_no_defined_labels_errors(self):
        ds = grid_dataset([50], seed=10)
        ds.defined[:] = False
        with pytest.raises(ValueError):
            run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=10))

    def test_non_finite_confidence_stops_the_run(self, monkeypatch):
        import xdata.trainer
        real = xdata.trainer.mc_predict

        def nan_confidence(net, x, rng=None):
            preds = real(net, x, rng)
            preds[1].confidence[:] = np.nan
            return preds

        monkeypatch.setattr(xdata.trainer, "mc_predict", nan_confidence)
        ds = grid_dataset([40, 40], seed=11)
        with pytest.raises(FloatingPointError, match=r"^iteration 0: .* task 't1'$"):
            run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=10))
