import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdata.metrics import pearson_cc, per_class_recalls, uar


def brute_force_uar(t, p, k):
    """Confusion-matrix enumeration, independent of the production path."""
    conf = [[0] * k for _ in range(k)]
    for a, b in zip(t, p):
        conf[a][b] += 1
    recalls = []
    for c in range(k):
        total = sum(conf[c])
        if total:
            recalls.append(conf[c][c] / total)
    return sum(recalls) / len(recalls)


def brute_force_cc(x, y):
    """Two-pass covariance formula."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


class TestUar:
    def test_perfect(self):
        assert uar([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0

    def test_worked_example(self):
        # true [A,A,B,B], pred [A,B,B,B]
        assert uar([0, 0, 1, 1], [0, 1, 1, 1], 2) == pytest.approx(0.75)

    def test_all_wrong_single_class(self):
        assert uar([0, 0, 0], [1, 1, 1], 2) == 0.0

    def test_absent_classes_excluded(self):
        assert uar([0, 0], [0, 0], 5) == 1.0

    def test_empty_input_errors(self):
        with pytest.raises(ValueError):
            uar([], [], 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_matches_brute_force(self, k, data):
        n = data.draw(st.integers(1, 50))
        t = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        p = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        assert uar(t, p, k) == pytest.approx(brute_force_uar(t, p, k), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_permutation_and_relabel_invariance(self, k, data):
        n = data.draw(st.integers(2, 30))
        t = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        p = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        perm = np.array(data.draw(st.permutations(range(n))))
        assert uar(t[perm], p[perm], k) == pytest.approx(uar(t, p, k), abs=1e-12)
        relabel = np.array(data.draw(st.permutations(range(k))))
        assert uar(relabel[t], relabel[p], k) == pytest.approx(uar(t, p, k), abs=1e-12)


class TestPearsonCc:
    def test_positive_linearity(self):
        assert pearson_cc([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_negative_linearity(self):
        assert pearson_cc([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert pearson_cc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_zero_variance_warns_and_returns_nan(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            assert math.isnan(pearson_cc([1, 1, 1], [1, 2, 3]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40), st.data())
    def test_matches_brute_force(self, x, data):
        y = data.draw(st.lists(st.floats(-100, 100), min_size=len(x), max_size=len(x)))
        if np.std(x) < 1e-9 or np.std(y) < 1e-9:
            return
        assert pearson_cc(x, y) == pytest.approx(brute_force_cc(x, y), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30),
           st.floats(0.1, 10), st.floats(-5, 5))
    def test_affine_identity(self, x, a, b):
        if np.var(x) < 1e-6:
            return
        assert pearson_cc(x, [a * v + b for v in x]) == pytest.approx(1.0, abs=1e-9)
        assert pearson_cc(x, [-a * v + b for v in x]) == pytest.approx(-1.0, abs=1e-9)


class TestEvaluate:
    def _setup(self):
        from xdata.dataset import TaskSchema
        from xdata.model import NetworkConfig, init_network
        tasks = [TaskSchema("cls", "multiclass", ("a", "b", "c", "d")),
                 TaskSchema("reg", "regression")]
        net = init_network(NetworkConfig(shared_layers=(4,), dropout=0.0, seed=0),
                           3, tasks)
        return tasks, net

    def _eval_set(self, tasks, n=20, seed=0):
        from xdata.dataset import MultiTargetDataset
        rng = np.random.default_rng(seed)
        labels = np.zeros((n, 2))
        labels[:, 0] = rng.integers(0, 4, n)
        labels[:, 1] = rng.normal(size=n)
        return MultiTargetDataset(rng.normal(size=(n, 3)), labels,
                                  np.ones((n, 2), dtype=bool), tasks,
                                  np.zeros(n, dtype=int), ["f1", "f2", "f3"])

    def test_task_without_defined_cells_not_evaluable(self):
        from xdata.metrics import evaluate
        tasks, net = self._setup()
        ev = self._eval_set(tasks)
        ev.defined[:, 0] = False
        report = evaluate(net, ev)
        assert not report.tasks["cls"].evaluable
        assert report.tasks["reg"].evaluable

    def test_constant_regression_prediction_flagged(self):
        from xdata.metrics import evaluate
        tasks, net = self._setup()
        w, b = net.heads[1][-1]
        w[...], b[...] = 0.0, 1.0  # constant output
        with pytest.warns(UserWarning, match="zero-variance"):
            report = evaluate(net, self._eval_set(tasks))
        assert not report.tasks["reg"].evaluable

    def test_perfect_classifier_reports_uar_one(self):
        from xdata.metrics import evaluate
        from xdata.model import mc_predict
        tasks, net = self._setup()
        ev = self._eval_set(tasks)
        preds = mc_predict(net, ev.features)
        ev.labels[:, 0] = preds[0].decoded  # truth := predictions
        report = evaluate(net, ev)
        assert report.tasks["cls"].uar == 1.0

    def test_uar_is_uar_of_the_true_and_predicted_labels(self):
        from xdata.metrics import evaluate
        tasks, net = self._setup()
        ev = self._eval_set(tasks, n=200, seed=3)
        ev.defined[::3, 0] = False
        tm = evaluate(net, ev).tasks["cls"]
        assert tm.n == int(ev.defined[:, 0].sum())
        assert 0.0 < tm.uar < 1.0
        assert tm.uar == uar(tm.true, tm.predicted, 4)
        assert tm.recalls == {tasks[0].classes[c]: r for c, r
                              in per_class_recalls(tm.true, tm.predicted, 4).items()}

    def test_schema_mismatch_errors(self):
        from xdata.dataset import TaskSchema
        from xdata.metrics import evaluate
        tasks, net = self._setup()
        ev = self._eval_set([TaskSchema("other", "regression"), tasks[1]])
        with pytest.raises(ValueError, match="schemas"):
            evaluate(net, ev)


class TestPseudoLabelAccuracy:
    def _truth(self, labels, defined):
        from xdata.dataset import MultiTargetDataset, TaskSchema
        labels = np.asarray(labels, dtype=float).reshape(-1, 1)
        defined = np.asarray(defined, dtype=bool).reshape(-1, 1)
        n = len(labels)
        return MultiTargetDataset(np.zeros((n, 1)), labels, defined,
                                  [TaskSchema("t", "multiclass", ("A", "B", "C"))],
                                  np.zeros(n, dtype=int), ["f1"])

    def _assign(self, values, iteration=0):
        from xdata.trainer import Assignments
        n = len(values)
        return Assignments(np.full(n, iteration), np.arange(n), np.zeros(n, dtype=int),
                           np.asarray(values, dtype=float), np.full(n, -0.1))

    def test_all_correct(self):
        from xdata.metrics import pseudo_label_accuracy
        truth = self._truth([0, 1, 2], [True] * 3)
        reports = pseudo_label_accuracy(self._assign([0, 1, 2]), truth)
        assert reports["t"].accuracy == 1.0

    def test_two_of_three(self):
        from xdata.metrics import pseudo_label_accuracy
        truth = self._truth([0, 0, 1], [True] * 3)
        reports = pseudo_label_accuracy(self._assign([0, 1, 1]), truth)
        assert reports["t"].accuracy == pytest.approx(2 / 3)
        assert reports["t"].n_compared == 3

    def test_no_overlap_reports_zero_comparable(self):
        from xdata.metrics import pseudo_label_accuracy
        truth = self._truth([0, 0, 0], [False] * 3)
        reports = pseudo_label_accuracy(self._assign([0, 1, 2]), truth)
        assert reports["t"].n_compared == 0
        assert reports["t"].n_skipped == 3

    def test_constant_regression_truth_gives_undefined_cc(self):
        from xdata.dataset import MultiTargetDataset, TaskSchema
        from xdata.metrics import pseudo_label_accuracy
        truth = MultiTargetDataset(np.zeros((3, 1)), np.full((3, 1), 5.0),
                                   np.ones((3, 1), dtype=bool), [TaskSchema("y", "regression")],
                                   np.zeros(3, dtype=int), ["f1"])
        with pytest.warns(UserWarning, match="zero-variance"):
            reports = pseudo_label_accuracy(self._assign([4.0, 5.0, 6.0]), truth)
        assert reports["y"].cc is None  # None, not NaN: undefined, as in `evaluate`
        assert reports["y"].mae == pytest.approx(2 / 3)
