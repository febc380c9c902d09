import math

import numpy as np
import pytest

from xdata.dataset import TaskSchema
from xdata.model import (MtShlNetwork, NetworkConfig, forward, init_network, loss_and_grads,
                         mc_predict, mt_loss, sample_dropout_masks, shannon_entropy,
                         train)

THREE_TASKS = [
    TaskSchema("flag", "binary", ("no", "yes")),
    TaskSchema("cat", "multiclass", ("a", "b", "c", "d")),
    TaskSchema("value", "regression"),
]


def micro_net(seed=0, shared=(6, 4), heads=None, dropout=0.0, **kw):
    cfg = NetworkConfig(shared_layers=shared, head_layers=heads or {},
                        dropout=dropout, seed=seed, **kw)
    return init_network(cfg, 5, THREE_TASKS)


def random_batch(n, rng):
    x = rng.normal(size=(n, 5))
    y = np.zeros((n, 3))
    y[:, 0] = rng.integers(0, 2, n)
    y[:, 1] = rng.integers(0, 4, n)
    y[:, 2] = rng.normal(size=n)
    mask = rng.random((n, 3)) < 0.7
    return x, y, mask


class TestInit:
    def test_deterministic_in_seed(self):
        a, b = micro_net(seed=9), micro_net(seed=9)
        assert np.array_equal(a.params, b.params)

    def test_shapes_chain(self):
        cfg = NetworkConfig(shared_layers=(8, 8), seed=1)
        net = init_network(cfg, 10, [TaskSchema("r", "regression")])
        assert net.trunk[0][0].shape == (10, 8)
        assert net.trunk[1][0].shape == (8, 8)
        assert net.heads[0][0][0].shape == (8, 1)

    def test_zero_tasks_error(self):
        with pytest.raises(ValueError):
            init_network(NetworkConfig(), 10, [])

    def test_mc_passes_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(dropout=0.5, mc_passes=1).validate()


class TestParameterBuffer:
    def test_layers_are_views_into_params(self):
        net = micro_net(heads={"cat": (3,)})
        layers = [*net.trunk, *(layer for head in net.heads for layer in head)]
        assert net.params.size == sum(w.size + b.size for w, b in layers)
        for w, b in layers:
            assert np.shares_memory(w, net.params)
            assert np.shares_memory(b, net.params)
        before = net.params.copy()
        net.heads[1][-1][0][...] = 7.0
        assert (net.params != before).sum() == net.heads[1][-1][0].size

    def test_copy_shares_no_memory(self):
        net = micro_net()
        dup = net.copy()
        assert np.array_equal(dup.params, net.params)
        assert not np.shares_memory(dup.params, net.params)
        for w, b in (*dup.trunk, *(layer for head in dup.heads for layer in head)):
            assert not np.shares_memory(w, net.params)
            assert not np.shares_memory(b, net.params)

    def test_layers_cannot_be_rebound(self):
        net = micro_net()
        w, b = net.heads[1][-1]
        with pytest.raises(TypeError):
            net.heads[1][-1] = (np.zeros_like(w), np.zeros_like(b))

    def test_buffer_size_must_match_layout(self):
        net = micro_net()
        with pytest.raises(ValueError, match="parameters"):
            MtShlNetwork(net.params[:-1].copy(), net.tasks, net.config, net.feature_dim)


class TestForward:
    def test_zero_dropout_matches_deterministic(self):
        net = micro_net(dropout=0.0)
        x = np.random.default_rng(0).normal(size=(4, 5))
        det = forward(net, x)
        # dropout 0 yields no masks at all
        assert sample_dropout_masks(net, 4, np.random.default_rng(1)) is None
        for a, b in zip(det, forward(net, x, np.random.default_rng(1))):
            assert np.array_equal(a, b)

    def test_softmax_of_zero_weights_is_uniform(self):
        net = micro_net()
        w, b = net.heads[1][-1]
        w[...], b[...] = 0.0, 0.0
        out = forward(net, np.ones((3, 5)))
        assert np.allclose(out[1], 0.25)

    def test_binary_output_in_open_interval(self):
        net = micro_net()
        out = forward(net, np.random.default_rng(2).normal(size=(10, 5)))
        assert ((out[0] > 0) & (out[0] < 1)).all()

    def test_probabilities_valid_at_large_magnitudes(self):
        net = micro_net(shared=(4,))
        # blow up the multiclass output layer to push logits to ~1e3
        w, b = net.heads[1][-1]
        w[...], b[...] = 500.0, b + 500.0
        out = forward(net, np.random.default_rng(3).normal(size=(20, 5)))
        p = out[1]
        assert (p >= 0).all()
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(micro_net(), np.zeros((2, 7)))


class TestMtLoss:
    def test_all_undefined_gives_zero_loss_and_grads(self):
        net = micro_net()
        rng = np.random.default_rng(4)
        x, y, _ = random_batch(6, rng)
        mask = np.zeros((6, 3), dtype=bool)
        grads = loss_and_grads(net, x, y, mask)
        assert mt_loss(net, x, y, mask) == 0.0
        assert np.all(grads == 0)

    def test_regression_squared_error(self):
        net = micro_net(shared=())
        # single regression cell: force output 0.5 via a zeroed head
        net_single = init_network(NetworkConfig(shared_layers=(), seed=0), 2,
                                  [TaskSchema("r", "regression")])
        w, b = net_single.heads[0][0]
        w[...], b[...] = 0.0, b + 0.5
        y = np.array([[1.0]])
        mask = np.array([[True]])
        assert mt_loss(net_single, np.zeros((1, 2)), y, mask) == pytest.approx(0.25)

    def test_multiclass_neg_log_prob(self):
        net = init_network(NetworkConfig(shared_layers=(), seed=0), 2,
                           [TaskSchema("c", "multiclass", ("a", "b", "c"))])
        w, b = net.heads[0][0]
        w[...], b[...] = 0.0, np.log(np.array([0.7, 0.2, 0.1]))
        loss = mt_loss(net, np.zeros((1, 2)), np.array([[0.0]]),
                       np.array([[True]]))
        assert loss == pytest.approx(-math.log(0.7), abs=1e-9)

    def test_undefined_cell_value_is_irrelevant(self):
        net = micro_net()
        rng = np.random.default_rng(5)
        x, y, mask = random_batch(8, rng)
        mask[2, 1] = False
        y2 = y.copy()
        y2[2, 1] = 3.0  # arbitrary perturbation of an undefined cell
        assert mt_loss(net, x, y, mask) == mt_loss(net, x, y2, mask)
        assert np.array_equal(loss_and_grads(net, x, y, mask),
                              loss_and_grads(net, x, y2, mask))

    def test_single_cell_toggle_adds_exactly_that_loss(self):
        net = micro_net(seed=7)
        rng = np.random.default_rng(6)
        x, y, mask = random_batch(5, rng)
        mask[:] = False
        mask[3, 2] = True
        single = mt_loss(net, x, y, mask)
        only_cell = mt_loss(net, x[3:4], y[3:4], mask[3:4])
        assert single == pytest.approx(only_cell, abs=1e-12)


def finite_difference_check(net, x, y, mask, eps=1e-5, tol=1e-4):
    grads = loss_and_grads(net, x, y, mask)
    p = net.params
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + eps
        lp = mt_loss(net, x, y, mask)
        p[i] = orig - eps
        lm = mt_loss(net, x, y, mask)
        p[i] = orig
        fd = (lp - lm) / (2 * eps)
        err = abs(fd - grads[i])
        assert err <= max(1e-8, tol * max(abs(fd), abs(grads[i]))), (
            f"gradient mismatch: analytic {grads[i]}, fd {fd}"
        )


class TestGradients:
    def test_finite_differences_three_task_micro_net(self):
        rng = np.random.default_rng(11)
        net = micro_net(seed=11, shared=(6, 4), heads={"cat": (3,)})
        x, y, mask = random_batch(6, rng)
        finite_difference_check(net, x, y, mask)

    def test_finite_differences_no_shared_layers(self):
        rng = np.random.default_rng(12)
        net = micro_net(seed=12, shared=())
        x, y, mask = random_batch(4, rng)
        finite_difference_check(net, x, y, mask)

    def test_finite_differences_relu(self):
        rng = np.random.default_rng(13)
        net = micro_net(seed=13, shared=(5,), activation="relu")
        x, y, mask = random_batch(5, rng)
        finite_difference_check(net, x, y, mask)


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(20)
        n = 200
        x = rng.normal(size=(n, 5))
        labels = (x[:, 0] > 0).astype(float)
        y = np.zeros((n, 3))
        y[:, 0] = labels
        mask = np.zeros((n, 3), dtype=bool)
        mask[:, 0] = True
        net = micro_net(seed=21, epochs=50, learning_rate=0.005, dropout=0.0)
        before = mt_loss(net, x, y, mask)
        trained = train(net, x, y, mask)
        assert mt_loss(trained, x, y, mask) < before

    def test_task_without_labels_is_frozen(self):
        rng = np.random.default_rng(22)
        x, y, mask = random_batch(40, rng)
        mask[:, 1] = False
        net = micro_net(seed=23, epochs=5, dropout=0.0)
        trained = train(net, x, y, mask)
        for (w0, b0), (w1, b1) in zip(net.heads[1], trained.heads[1]):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(24)
        x, y, mask = random_batch(50, rng)
        net = micro_net(seed=25, epochs=4, dropout=0.3)
        t1 = train(net, x, y, mask)
        t2 = train(net, x, y, mask)
        assert np.array_equal(t1.params, t2.params)

    def test_input_network_unchanged(self):
        rng = np.random.default_rng(26)
        x, y, mask = random_batch(30, rng)
        net = micro_net(seed=27, epochs=2, dropout=0.0)
        snapshot = net.params.copy()
        train(net, x, y, mask)
        assert np.array_equal(snapshot, net.params)

    def test_momentum_matches_heavy_ball_oracle(self):
        rng = np.random.default_rng(28)
        x, y, mask = random_batch(20, rng)
        lr, momentum = 0.01, 0.9
        net = micro_net(seed=29, epochs=3, dropout=0.0, batch_size=32,
                        learning_rate=lr, momentum=momentum)
        # one step per epoch, on the rows in train's seeded shuffle order
        oracle, v = net.copy(), np.zeros_like(net.params)
        order_rng = np.random.default_rng(net.config.seed)
        for _ in range(3):
            idx = order_rng.permutation(len(x))
            v = momentum * v + loss_and_grads(oracle, x[idx], y[idx], mask[idx])
            oracle.params[...] = oracle.params - lr * v
        assert np.array_equal(train(net, x, y, mask).params, oracle.params)

    def test_diverging_training_stops_at_the_epoch(self):
        rng = np.random.default_rng(30)
        x, y, mask = random_batch(40, rng)
        x *= 1e200
        net = micro_net(seed=31, epochs=3, dropout=0.0, activation="relu")
        with pytest.raises(FloatingPointError, match="^epoch 0: non-finite network parameters$"):
            train(net, x, y, mask)

    def test_empty_labeled_set_errors(self):
        net = micro_net()
        with pytest.raises(ValueError):
            train(net, np.zeros((0, 5)), np.zeros((0, 3)), np.zeros((0, 3), dtype=bool))


class TestConfidence:
    def test_uniform_multiclass_entropy(self):
        p = np.full(4, 0.25)
        assert shannon_entropy(p) == pytest.approx(math.log(4), abs=1e-9)

    def test_one_hot_entropy_zero(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_zero_dropout_regression_variance_exactly_zero(self):
        net = micro_net(dropout=0.0)
        preds = mc_predict(net, np.random.default_rng(0).normal(size=(5, 5)))
        assert (preds[2].confidence == 0.0).all()

    def test_no_rng_is_one_dropout_free_pass(self):
        net = micro_net(dropout=0.3, mc_passes=5)
        x = np.random.default_rng(35).normal(size=(20, 5))
        preds = mc_predict(net, x)
        outs = forward(net, x)
        for m in range(3):
            assert np.array_equal(preds[m].raw, outs[m])
        assert (preds[2].confidence == 0.0).all()

    def test_classification_confidence_bounds(self):
        net = micro_net(dropout=0.3, mc_passes=5)
        x = np.random.default_rng(31).normal(size=(1000, 5))
        preds = mc_predict(net, x, np.random.default_rng(32))
        assert (preds[0].confidence <= 0).all()
        assert (preds[0].confidence >= -math.log(2) - 1e-12).all()
        assert (preds[1].confidence <= 0).all()
        assert (preds[1].confidence >= -math.log(4) - 1e-12).all()

    def test_regression_confidence_nonpositive(self):
        net = micro_net(dropout=0.4, mc_passes=6)
        preds = mc_predict(net, np.random.default_rng(33).normal(size=(50, 5)),
                           np.random.default_rng(34))
        assert (preds[2].confidence <= 0).all()


class TestDecoding:
    def test_binary_half_ties_to_class_zero(self):
        net = init_network(NetworkConfig(shared_layers=(), seed=0, dropout=0.0), 2,
                           [TaskSchema("b", "binary", ("n", "p"))])
        w, b = net.heads[0][0]
        w[...], b[...] = 0.0, 0.0  # sigmoid(0) = 0.5
        preds = mc_predict(net, np.zeros((3, 2)))
        assert (preds[0].decoded == 0).all()

    def test_multiclass_argmax(self):
        net = init_network(NetworkConfig(shared_layers=(), seed=0, dropout=0.0), 2,
                           [TaskSchema("c", "multiclass", ("a", "b", "c"))])
        w, b = net.heads[0][0]
        w[...], b[...] = 0.0, np.log(np.array([0.1, 0.6, 0.3]))
        preds = mc_predict(net, np.zeros((1, 2)))
        assert preds[0].decoded[0] == 1
