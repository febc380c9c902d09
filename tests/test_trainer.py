from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdata.arff import NOMINAL, NUMERIC, ArffRelation, AttributeDecl
from xdata.dataset import (REGRESSION, MultiTargetDataset, TaskSchema, assemble, assemble_eval,
                           drop_labels)
from xdata.metrics import pseudo_label_accuracy
from xdata.model import TRAIN_STREAM, NetworkConfig
from xdata.synthetic import QUADRANT_CLASSES, generate, make_corpus
from xdata.trainer import (STATUS_COMPLETED, STATUS_MAX_ITERATIONS,
                           STATUS_STALLED, CdlcConfig, apply_assignments, run_cdlc,
                           select_top_k)


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
        tasks.append(TaskSchema(f"t{t_idx}", "multiclass", ("no", "yes")))
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

    def test_run_shares_its_input_features_and_leaves_them_unchanged(self):
        ds = grid_dataset([60, 30], seed=12)
        before = ds.features.tobytes()
        result = run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=20))
        assert result.dataset.defined.all()
        assert np.shares_memory(result.dataset.features, ds.features)
        assert ds.features.tobytes() == before
        completed = apply_assignments(ds, result.assignments)
        assert np.shares_memory(completed.features, ds.features)
        assert not np.shares_memory(completed.labels, ds.labels)

    def test_takes_and_returns_original_units(self):
        """Scaling the features and regression targets by 2**10 is exact, so
        the standardized loop sees bit-identical inputs: the same cells and
        confidences, the regression pseudo-labels scaled by exactly 2**10."""
        corpus = make_corpus(n_train=240, n_test=60, seed=2)
        ds = assemble([corpus[f"file{k}"] for k in range(1, 5)])
        ev = assemble_eval(corpus["test"][0], ds)
        regression = [m for m, t in enumerate(ds.tasks) if t.kind == REGRESSION]
        assert regression and len(regression) < ds.n_tasks

        def scaled(d):
            labels = d.labels.copy()
            labels[:, regression] *= 1024.0
            return replace(d, features=d.features * 1024.0, labels=labels)

        cfg = CdlcConfig(network=FAST_NET, select_per_task=50)
        base = run_cdlc(ds, cfg, ev)
        big = run_cdlc(scaled(ds), cfg, scaled(ev))
        a, b = base.assignments, big.assignments
        assert len(base.records) == 3 and len(a) == 360
        for column in ("iteration", "instance", "task_index", "confidence"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column
        is_reg = np.isin(a.task_index, regression)
        assert np.array_equal(b.value[~is_reg], a.value[~is_reg])
        assert np.array_equal(b.value[is_reg], a.value[is_reg] * 1024.0)
        assert np.array_equal(big.dataset.labels, scaled(base.dataset).labels)
        assert base.final_metrics is base.records[-1].metrics
        assert big.final_metrics.column_values() == base.final_metrics.column_values()
        # without per-iteration evaluation the last network is scored once
        off = run_cdlc(ds, replace(cfg, eval_every_iteration=False), ev)
        assert all(r.metrics is None for r in off.records)
        assert off.final_metrics.column_values() == base.final_metrics.column_values()

    def test_no_final_metrics_without_eval_set_or_iteration(self):
        cfg = CdlcConfig(network=FAST_NET, select_per_task=10)
        assert run_cdlc(grid_dataset([20], seed=13), cfg).final_metrics is None
        complete = grid_dataset([0, 0], seed=4)
        result = run_cdlc(complete, cfg, complete)
        assert result.records == [] and result.final_metrics is None

    def test_mc_masks_draw_no_word_that_training_drew(self, monkeypatch):
        import xdata.trainer
        states, real = [], xdata.trainer.mc_predict

        def recording(net, x, rng=None):
            states.append((net.config.seed, rng.bit_generator.state))
            return real(net, x, rng)

        monkeypatch.setattr(xdata.trainer, "mc_predict", recording)
        run_cdlc(grid_dataset([60], seed=13), CdlcConfig(network=FAST_NET, select_per_task=20))
        assert len(states) == 3
        for seed, state in states:
            bits = np.random.PCG64()
            bits.state = state
            # training shuffles and draws its dropout masks from its own stream
            trained = np.random.default_rng([seed, TRAIN_STREAM]).bit_generator.random_raw(10**5)
            assert not np.isin(bits.random_raw(10**4), trained).any()

    def test_warm_started_rounds_draw_from_their_own_streams(self, monkeypatch):
        # every generator that train opens, and every one that mc_predict gets,
        # starts in a state of its own over three warm-started rounds
        import xdata.trainer
        states = []
        real_rng, real_train, real_mc = (np.random.default_rng, xdata.trainer.train,
                                         xdata.trainer.mc_predict)

        def note(rng):
            state = rng.bit_generator.state["state"]
            states.append((state["state"], state["inc"]))
            return rng

        def recording_train(*args):
            monkeypatch.setattr(np.random, "default_rng", lambda *a: note(real_rng(*a)))
            try:
                return real_train(*args)
            finally:
                monkeypatch.setattr(np.random, "default_rng", real_rng)

        monkeypatch.setattr(xdata.trainer, "train", recording_train)
        monkeypatch.setattr(xdata.trainer, "mc_predict",
                            lambda net, x, rng=None: real_mc(net, x, note(rng)))
        cfg = CdlcConfig(network=FAST_NET, select_per_task=20, retrain_from_scratch=False)
        assert len(run_cdlc(grid_dataset([60], seed=13), cfg).records) == 3
        assert len(states) == 6 and len(set(states)) == 6

    @pytest.mark.parametrize("seed", [0, 1, 21])
    def test_a_rounds_streams_share_no_word(self, monkeypatch, seed):
        # one round opens three generators: initialisation, training and MC;
        # its MC call one more per row block, two for its candidate rows here
        opened, real_rng = [], np.random.default_rng

        def recording(*args):
            rng = real_rng(*args)
            bits = np.random.PCG64()
            bits.state = rng.bit_generator.state
            opened.append(bits)
            return rng

        ds = grid_dataset([60], seed=13)
        cfg = CdlcConfig(network=replace(FAST_NET, seed=seed), select_per_task=20,
                         max_iterations=1)
        monkeypatch.setattr(np.random, "default_rng", recording)
        run_cdlc(ds, cfg)
        monkeypatch.undo()
        assert len(opened) == 3 + 2
        # and the label drop of drop.seed = seed + 1, or any seed near the round's
        plain = [real_rng(s).bit_generator for s in range(max(seed - 2, 0), seed + 3)]
        long = [bits.random_raw(10**5) for bits in opened + plain]
        for i in range(len(opened)):
            head = long[i][:10**4]
            for j, words in enumerate(long):
                if j != i:
                    assert not np.isin(head, words).any(), (i, j)

    def test_no_defined_labels_errors(self):
        ds = grid_dataset([50], seed=10)
        ds.defined[:] = False
        with pytest.raises(ValueError):
            run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=10))

    # each key family, then the order: cdlc.min_confidence before
    # net.head_layers, sorted task names within a key
    @pytest.mark.parametrize("min_confidence,head_layers,key", [
        ({"t0": -1.0, "nope": 0.0}, {}, "cdlc.min_confidence.nope"),
        ({}, {"t1": (3,), "typo": (4,)}, "net.head_layers.typo"),
        ({"zz": 0.0, "aa": 0.0}, {"bb": (4,)}, "cdlc.min_confidence.aa"),
    ])
    def test_per_task_key_naming_no_task_errors_before_training(self, monkeypatch,
                                                                 min_confidence, head_layers,
                                                                 key):
        import xdata.trainer
        monkeypatch.setattr(xdata.trainer, "train", lambda *args: pytest.fail("trained"))
        ds = grid_dataset([40, 40], seed=12)
        cfg = CdlcConfig(network=replace(FAST_NET, head_layers=head_layers),
                         select_per_task=10, min_confidence=min_confidence)
        task = key.rsplit(".", 1)[1]
        with pytest.raises(ValueError) as raised:
            run_cdlc(ds, cfg)
        assert str(raised.value) == f"unknown task '{task}' in key '{key}'"

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

    def test_divergence_names_its_round(self, monkeypatch):
        import xdata.trainer
        real, calls = xdata.trainer.train, []

        def diverge_at_round_1(net, x, y, defined):
            calls.append(len(x))
            if len(calls) == 2:
                raise FloatingPointError("epoch 3: non-finite network parameters")
            return real(net, x, y, defined)

        monkeypatch.setattr(xdata.trainer, "train", diverge_at_round_1)
        ds = grid_dataset([40, 40], seed=11)
        with pytest.raises(FloatingPointError) as exc:
            run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=10))
        assert str(exc.value) == "iteration 1: epoch 3: non-finite network parameters"
        assert len(calls) == 2

    def test_train_and_mc_predict_read_standardized_row_gathers(self, monkeypatch):
        """Each round trains on the standardized rows of its labeled instances
        and predicts those of its incomplete ones, bit for bit the rows of the
        whole standardized matrix, without writing to the input's features."""
        import xdata.trainer
        from xdata.dataset import standardize
        seen = {"train": [], "mc": []}

        def recorder(name, fn):
            def wrapped(net, x, *args):
                seen[name].append(x.copy())
                return fn(net, x, *args)
            return wrapped

        monkeypatch.setattr(xdata.trainer, "train", recorder("train", xdata.trainer.train))
        monkeypatch.setattr(xdata.trainer, "mc_predict",
                            recorder("mc", xdata.trainer.mc_predict))
        ds = grid_dataset([60, 30], n_features=5, seed=12)
        ds = replace(ds, features=ds.features * 10.0 ** np.arange(-2, 3) + 3.0)
        before = ds.features.tobytes()
        result = run_cdlc(ds, CdlcConfig(network=FAST_NET, select_per_task=20))
        assert ds.features.tobytes() == before
        whole = standardize(ds)[1].transform_features(ds.features)
        defined = ds.defined.copy()
        a = result.assignments
        assert len(seen["train"]) == len(seen["mc"]) == len(result.records) == 3
        for i in range(len(result.records)):
            li = np.flatnonzero(defined.any(axis=1))
            ui = np.flatnonzero(~defined.all(axis=1))
            assert seen["train"][i].tobytes() == whole[li].tobytes()
            assert seen["mc"][i].tobytes() == whole[ui].tobytes()
            done = a.iteration == i
            defined[a.instance[done], a.task_index[done]] = True


def two_category_run(seed):
    """The synthetic corpus of 3000 rows with a two-category target `pos`
    ({no, yes}, yes iff coord_a > 0): four 625-row training files with the
    targets (pos, coord_v), (pos), (quadrant, coord_v) and none, 90% of their
    labels dropped (drop seed = seed + 1), and rows 2500-2999, fully labeled,
    as the test set; the bundled experiment's network. Returns the run's
    final test metrics and its pseudo-label reports."""
    data = generate(3000, seed)
    columns = {"pos": (data.coord_a > 0).astype(np.int64), "quadrant": data.quadrant,
               "coord_v": data.coord_v}
    categories = {"pos": ("no", "yes"), "quadrant": QUADRANT_CLASSES}

    def relation(name, rows, targets):
        attrs = [AttributeDecl(f"f{j + 1}", NUMERIC) for j in range(data.features.shape[1])]
        attrs += [AttributeDecl(t, NOMINAL, categories[t]) if t in categories
                  else AttributeDecl(t, NUMERIC) for t in targets]
        return ArffRelation(name, attrs, [*data.features[rows].T,
                                          *(columns[t][rows] for t in targets)])

    targets = [("pos", "coord_v"), ("pos",), ("quadrant", "coord_v"), ()]
    withheld = assemble([(relation(f"file{k + 1}", np.arange(625 * k, 625 * (k + 1)), t), len(t))
                         for k, t in enumerate(targets)])
    ds = drop_labels(withheld, 0.9, seed + 1)
    test = assemble_eval(relation("test", np.arange(2500, 3000), ("pos", "quadrant", "coord_v")),
                         ds)
    cfg = CdlcConfig(network=NetworkConfig(shared_layers=(32,), epochs=30, learning_rate=0.002,
                                           dropout=0.1, mc_passes=10, seed=seed))
    result = run_cdlc(ds, cfg, test)
    return result.final_metrics, pseudo_label_accuracy(result.assignments, withheld)


class TestTwoCategoryQuality:
    # a two-category task completes as well as the others: 0.94-0.98 on
    # both at each seed (chance is 0.5)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_category_task_is_completed_well(self, seed):
        metrics, pseudo = two_category_run(seed)
        assert metrics.tasks["pos"].uar >= 0.9
        assert pseudo["pos"].accuracy >= 0.9
