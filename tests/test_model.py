import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import xdata
import xdata.model as model
from xdata.dataset import TaskSchema
from xdata.model import (MtShlNetwork, NetworkConfig, _activate_output, _forward, forward,
                         init_network, loss_and_grads, mc_predict, mt_loss,
                         sample_dropout_masks, shannon_entropy, train)

THREE_TASKS = [
    TaskSchema("flag", "multiclass", ("no", "yes")),
    TaskSchema("cat", "multiclass", ("a", "b", "c", "d")),
    TaskSchema("value", "regression"),
]


# every task kind (THREE_TASKS), with and without head hidden layers; the
# second has an odd number of hidden units (7), the last two hold groups of
# equal-depth heads, so block-diagonal layers
NET_SHAPES = [
    ((), {}),
    ((5,), {"cat": (2,)}),
    ((6,), {"flag": (3,), "value": (5, 2)}),
    ((6, 4), {}),
    ((6, 4), {"flag": (3,), "cat": (4,), "value": (5, 2)}),
    ((6,), {"flag": (3, 2), "cat": (4,), "value": (5, 2)}),
]


def micro_net(seed=0, shared=(6, 4), heads=None, dropout=0.0, tasks=THREE_TASKS, **kw):
    cfg = NetworkConfig(shared_layers=shared, head_layers=heads or {},
                        dropout=dropout, seed=seed, **kw)
    return init_network(cfg, 5, tasks)


def block_diag(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


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

    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_glorot_draws_per_layer_in_documented_order(self, shared, heads):
        # trunk layers, then each head's layers in task order, whatever the layout
        sizes, outputs = [5, *shared], {"flag": 2, "cat": 4, "value": 1}
        shapes = list(zip(sizes, sizes[1:]))
        for task in THREE_TASKS:
            head = [sizes[-1], *heads.get(task.name, ()), outputs[task.name]]
            shapes += zip(head, head[1:])
        net = micro_net(seed=8, shared=shared, heads=heads)
        layers = [*net.trunk, *(layer for head in net.heads for layer in head)]
        assert len(layers) == len(shapes)
        rng = np.random.default_rng([8, model.INIT_STREAM])
        for (w, b), (n_in, n_out) in zip(layers, shapes):
            s = np.sqrt(6.0 / (n_in + n_out))
            assert np.array_equal(w, rng.uniform(-s, s, n_in * n_out).reshape(n_in, n_out))
            assert np.array_equal(b, np.zeros(n_out))

    def test_zero_tasks_error(self):
        with pytest.raises(ValueError):
            init_network(NetworkConfig(), 10, [])

    def test_mc_passes_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(dropout=0.5, mc_passes=1).validate()

    def test_head_layer_sizes_must_be_positive(self):
        cfg = NetworkConfig(head_layers={"cat": (4,), "value": (0,)})
        with pytest.raises(ValueError,
                           match=r"^net\.head_layers\.value: layer sizes must be positive$"):
            init_network(cfg, 5, THREE_TASKS)


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

    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_layout_is_trunk_then_groups_by_depth(self, shared, heads):
        net = micro_net(shared=shared, heads=heads)
        # per group of equal-depth heads (ascending depth, task order): first
        # layers side by side, later layers block-diagonal; `stored` is 1 where
        # a head's entry lies and 0 at the structural zeros
        layers = list(net.trunk)
        stored = [(np.ones_like(w), np.ones_like(b)) for w, b in net.trunk]
        cols, start = [None] * len(net.tasks), 0
        for depth in sorted({len(head) for head in net.heads}):
            members = [head for head in net.heads if len(head) == depth]
            for i in range(depth):
                join = np.hstack if i == 0 else block_diag
                layers.append((join([head[i][0] for head in members]),
                               np.concatenate([head[i][1] for head in members])))
                stored.append((join([np.ones_like(head[i][0]) for head in members]),
                               np.ones_like(layers[-1][1])))
            for m, head in enumerate(net.heads):
                if len(head) == depth:
                    cols[m] = slice(start, start + head[-1][1].size)
                    start = cols[m].stop
        flat, ones = (np.concatenate([a.ravel() for layer in ls for a in layer])
                      for ls in (layers, stored))
        assert np.array_equal(flat, net.params)
        assert np.array_equal(net.zeros, np.flatnonzero(ones == 0.0))
        assert net.cols == tuple(cols)
        group_layers = [layer for group, _ in net.groups for layer in group]
        assert len(group_layers) == len(layers) - len(net.trunk)
        for (w, b), (w_ref, b_ref) in zip(group_layers, layers[len(net.trunk):]):
            assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)

    def test_fused_head_write_changes_only_its_columns(self):
        net = micro_net()  # every head in the depth-0 group; cat's columns between the others'
        w, b = net.heads[1][-1]
        (block, bias), = net.groups[0][0]  # the one group: depth 0
        assert np.shares_memory(w, block) and np.shares_memory(b, bias)
        before = net.params.copy()
        others = [(v.copy(), c.copy()) for m in (0, 2) for v, c in net.heads[m]]
        w[...] = 7.0
        assert (net.params != before).sum() == w.size
        for (v, c), (v0, c0) in zip((layer for m in (0, 2) for layer in net.heads[m]), others):
            assert np.array_equal(v, v0) and np.array_equal(c, c0)

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
        # a two-category task's output is a (B, 2) distribution
        net = micro_net()
        out = forward(net, np.random.default_rng(2).normal(size=(10, 5)))
        assert out[0].shape == (10, 2)
        assert ((out[0] > 0) & (out[0] < 1)).all()
        assert np.abs(out[0].sum(axis=1) - 1.0).max() <= 1e-12

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

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_saturated_logits_stay_finite_without_warnings(self, dropout):
        # no hidden layers: x = +-1 gives logits of exactly +-800 (0 for class c)
        net = init_network(NetworkConfig(shared_layers=(), dropout=dropout, mc_passes=3),
                           1, THREE_TASKS)
        for (w, b), row in zip((h[-1] for h in net.heads),
                               ([-800.0, 800.0], [800.0, -800.0, 0.0, -800.0], [800.0])):
            w[...], b[...] = row, 0.0
        x = np.array([[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = forward(net, x, np.random.default_rng(0) if dropout else None)
            preds = mc_predict(net, x, np.random.default_rng(0))
        assert outs[0].tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert np.abs(outs[1].sum(axis=1) - 1.0).max() <= 1e-12
        assert outs[1].argmax(axis=1).tolist() == [0, 1]
        assert outs[2].tolist() == [800.0, -800.0]
        for out in outs:
            assert np.isfinite(out).all()
        assert [p.decoded.tolist() for p in preds] == [[1, 0], [0, 1], [800.0, -800.0]]
        for p in preds:
            assert np.isfinite(p.confidence).all()

    def test_import_loads_no_scipy(self):
        # a fresh interpreter, because this test process may have imported scipy
        src = str(Path(xdata.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c", "import sys, xdata.cli; print(sorted(m for m in sys.modules "
                                   "if m == 'scipy' or m.startswith('scipy.')))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"


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


def finite_difference_check(net, x, y, mask, masks=None, eps=1e-5, tol=1e-4, entries=None):
    """Central differences of mt_loss against loss_and_grads at the flat
    parameter indices `entries` (all by default)."""
    grads = loss_and_grads(net, x, y, mask, masks)
    p = net.params
    for i in range(p.size) if entries is None else entries:
        orig = p[i]
        p[i] = orig + eps
        lp = mt_loss(net, x, y, mask, masks)
        p[i] = orig - eps
        lm = mt_loss(net, x, y, mask, masks)
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

    # all heads in the depth-0 group; and `flag` and `value` in it around a depth-1 `cat` head
    @pytest.mark.parametrize("heads", [{}, {"cat": (3,)}])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_finite_differences_under_sampled_dropout_masks(self, activation, heads):
        rng = np.random.default_rng(15)
        net = micro_net(seed=15, shared=(6, 4), heads=heads, dropout=0.3, activation=activation)
        # biases off zero: a relu unit fed only dropped units then sits off its kink
        for _, b in (*net.trunk, *(layer for head in net.heads for layer in head)):
            b[...] = rng.uniform(0.05, 0.1, b.size)
        x, y, mask = random_batch(7, rng)
        masks = sample_dropout_masks(net, len(x), rng)
        assert not masks[0].all()  # some units are dropped
        finite_difference_check(net, x, y, mask, masks)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_finite_differences_under_sampled_masks_on_every_shape(self, activation, shared,
                                                                   heads):
        rng = np.random.default_rng(16)
        net = micro_net(seed=16, shared=shared, heads=heads, dropout=0.3, activation=activation)
        # biases off zero: a relu unit fed only dropped units then sits off its kink
        for _, b in (*net.trunk, *(layer for head in net.heads for layer in head)):
            b[...] = rng.uniform(0.05, 0.1, b.size)
        x, y, mask = random_batch(7, rng)
        masks = sample_dropout_masks(net, len(x), rng)
        assert len(masks) == len(net.spans)
        assert all(not m.all() for m in masks)  # some units of every layer are dropped
        # the structural zeros are TestStructuralZeros'
        trainable = np.setdiff1d(np.arange(net.params.size), net.zeros)
        finite_difference_check(net, x, y, mask, masks, entries=trainable)

    @pytest.mark.parametrize("shared", [(), (6, 4)])
    def test_gradient_buffer_is_overwritten(self, shared):
        rng = np.random.default_rng(14)
        net = micro_net(seed=14, shared=shared, heads={"cat": (3,)}, dropout=0.3)
        x, y, mask = random_batch(8, rng)
        mask[:, 0] = False  # an all-undefined task still gets its zero gradient written
        masks = sample_dropout_masks(net, len(x), rng)
        grad = MtShlNetwork(np.full_like(net.params, np.nan), net.tasks, net.config,
                            net.feature_dim)
        out = loss_and_grads(net, x, y, mask, masks, grad=grad)
        assert out is grad.params
        assert np.array_equal(out, loss_and_grads(net, x, y, mask, masks))


def raw_draw(rng, n, p):
    """Reference for one dropout draw of n units, from random_raw directly:
    the words from one call of ceil(n/4) 64-bit words, a tie's second word
    (one each in flat order) from one more call, none without a tie, and a
    unit kept iff its 32-bit (word, tie word) is >= the threshold. Returns the
    flat bool keep mask and the positions of the ties."""
    words = rng.bit_generator.random_raw((n + 3) // 4).view(np.uint16)[:n]
    threshold = min(round(p * 2**32), 2**32 - 1)
    ties = np.flatnonzero(words == threshold >> 16)
    low = np.zeros(n, dtype=np.int64)
    if ties.size:
        low[ties] = rng.bit_generator.random_raw((ties.size + 3) // 4).view(
            np.uint16)[:ties.size]
    return words.astype(np.int64) * 2**16 + low >= threshold, ties


def layer_major(kept, rows, widths):
    """The (rows, W) mask of each hidden layer, in turn from the flat `kept`."""
    ends = np.cumsum([0, *widths]) * rows
    return [kept[a:b].reshape(rows, w) for a, b, w in zip(ends, ends[1:], widths)]


def hidden_widths(net):
    """The width of each hidden layer, in a draw's order: trunk layers, then
    each group's hidden layers."""
    widths = [w.shape[1] for w, _ in net.trunk]
    return widths + [w.shape[1] for layers, _ in net.groups for w, _ in layers[:-1]]


def epoch_masks(rng, net, n):
    """Reference for the dropout masks of one epoch of train on n rows: one
    :func:`raw_draw` of every row's units, the minibatch at rows s..s+b of the
    epoch's order taking the U units of each of its rows, s*U..(s+b)*U, layer
    by layer, in the training form keep * (1/(1-p)). Returns each minibatch's
    masks and the minibatch of each tie."""
    widths = hidden_widths(net)
    units, size, p = sum(widths), net.config.batch_size, net.config.dropout
    kept, ties = raw_draw(rng, n * units, p)
    kept = kept * (1.0 / (1.0 - p))
    masks = [layer_major(kept[s * units:(s + b) * units], b, widths)
             for s, b in ((s, min(size, n - s)) for s in range(0, n, size))]
    return masks, (ties // (size * units)).tolist()


def per_step_train(net, x, y, mask):
    """Reference for train: per epoch a shuffle and, with dropout, its
    :func:`epoch_masks`, then per minibatch of its order one loss_and_grads
    call on the raw labels under its masks and the heavy-ball update. Returns
    the trained network and the minibatch index of every tie its draws met."""
    cfg = net.config
    ref, v, ties = net.copy(), np.zeros_like(net.params), []
    rng = np.random.default_rng([cfg.seed, model.TRAIN_STREAM])
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        masks, at = epoch_masks(rng, ref, len(x)) if cfg.dropout else (None, [])
        ties += at
        for i, start in enumerate(range(0, len(x), cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            step = None if masks is None else masks[i]
            v = cfg.momentum * v + loss_and_grads(ref, x[idx], y[idx], mask[idx], step)
            ref.params[...] = ref.params - cfg.learning_rate * v
    return ref, ties


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

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_momentum_matches_heavy_ball_oracle(self, dropout):
        rng = np.random.default_rng(28)
        x, y, mask = random_batch(20, rng)
        lr, momentum, batch = 0.01, 0.9, 8
        net = micro_net(seed=29, epochs=3, dropout=dropout, batch_size=batch,
                        learning_rate=lr, momentum=momentum)
        # per epoch a seeded shuffle, then minibatches of 8, 8 and 4 rows in its
        # order, each under its share of the epoch's dropout draw
        oracle, v = net.copy(), np.zeros_like(net.params)
        step_rng = np.random.default_rng([net.config.seed, model.TRAIN_STREAM])
        for _ in range(3):
            order = step_rng.permutation(len(x))
            masks = epoch_masks(step_rng, oracle, len(x))[0] if dropout else [None] * 3
            for start, step in zip(range(0, len(x), batch), masks):
                idx = order[start:start + batch]
                v = momentum * v + loss_and_grads(oracle, x[idx], y[idx], mask[idx], step)
                oracle.params[...] = oracle.params - lr * v
        assert train(net, x, y, mask).params.tobytes() == oracle.params.tobytes()

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_train_equals_per_step_reference(self, shared, heads, activation, momentum):
        rng = np.random.default_rng(32)
        # minibatches of 13, 13, 13 and a ragged 6: with an odd number of units
        # a row, a minibatch's share of the epoch's draw starts mid 64-bit word
        x, y, mask = random_batch(45, rng)
        net = micro_net(seed=33, shared=shared, heads=heads, dropout=0.3, activation=activation,
                        epochs=3, batch_size=13, learning_rate=0.01, momentum=momentum)
        ref, _ = per_step_train(net, x, y, mask)
        # bytes, so that a signed zero differs too
        assert train(net, x, y, mask).params.tobytes() == ref.params.tobytes()

    @pytest.mark.parametrize("piece", [model._PIECE, 8])  # 8 words: an epoch's draw in pieces
    def test_train_equals_per_step_reference_through_ties(self, monkeypatch, piece):
        monkeypatch.setattr(model, "_PIECE", piece)
        rng = np.random.default_rng(34)
        x, y, mask = random_batch(1000, rng)  # 160 units a row, about 2.4 ties an epoch
        net = micro_net(seed=35, shared=(128,), heads={"cat": (32,)}, dropout=0.3, epochs=2,
                        batch_size=64, learning_rate=0.002)
        ref, ties = per_step_train(net, x, y, mask)
        assert ties
        assert train(net, x, y, mask).params.tobytes() == ref.params.tobytes()

    def test_train_equals_per_step_reference_with_a_tie_in_the_last_minibatch(self):
        rng = np.random.default_rng(38)
        x, y, mask = random_batch(1000, rng)  # 16 minibatches, the last of 40 rows
        # the first seed whose draws put a tie among the last minibatch's units;
        # its tie word comes after all of the epoch's words
        for seed in range(100):
            net = micro_net(seed=seed, shared=(128,), heads={"cat": (32,)}, dropout=0.3,
                            epochs=2, batch_size=64, learning_rate=0.002)
            ref, ties = per_step_train(net, x, y, mask)
            if 15 in ties:
                break
        assert 15 in ties
        assert train(net, x, y, mask).params.tobytes() == ref.params.tobytes()

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
        p_flag, p_cat, value = forward(net, x)
        assert np.array_equal(preds[0].decoded, p_flag.argmax(axis=1))
        assert np.array_equal(preds[0].confidence, -shannon_entropy(p_flag))
        assert np.array_equal(preds[1].decoded, p_cat.argmax(axis=1))
        assert np.array_equal(preds[1].confidence, -shannon_entropy(p_cat))
        assert np.array_equal(preds[2].decoded, value)
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
                           [TaskSchema("b", "multiclass", ("n", "p"))])
        w, b = net.heads[0][0]
        w[...], b[...] = 0.0, 0.0  # equal logits: the distribution (0.5, 0.5)
        preds = mc_predict(net, np.zeros((3, 2)))
        assert (preds[0].decoded == 0).all()

    def test_multiclass_argmax(self):
        net = init_network(NetworkConfig(shared_layers=(), seed=0, dropout=0.0), 2,
                           [TaskSchema("c", "multiclass", ("a", "b", "c"))])
        w, b = net.heads[0][0]
        w[...], b[...] = 0.0, np.log(np.array([0.1, 0.6, 0.3]))
        preds = mc_predict(net, np.zeros((1, 2)))
        assert preds[0].decoded[0] == 1


class TestStructuralZeros:
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_off_diagonal_entries_stay_exactly_zero(self, shared, heads):
        rng = np.random.default_rng(70)
        x, y, mask = random_batch(40, rng)
        net = micro_net(seed=71, shared=shared, heads=heads, dropout=0.3, momentum=0.9,
                        activation="relu", epochs=3, batch_size=8, learning_rate=0.01)
        masks = sample_dropout_masks(net, len(x), rng)
        grads = loss_and_grads(net, x, y, mask, masks)
        assert (grads[net.zeros] == 0.0).all()
        trained = train(net, x, y, mask)
        assert (trained.params[trained.zeros] == 0.0).all()
        assert not np.array_equal(trained.params, net.params)


class TestDropoutDraw:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_keep_rate_is_one_minus_p(self, p):
        net = micro_net(shared=(1001,), dropout=p)
        masks = sample_dropout_masks(net, 1001, np.random.default_rng(60))
        assert len(masks) == 1  # the heads have no hidden layers
        mask = masks[0]
        n = mask.size  # odd, so the last 64-bit word is half used
        # the training form: keep * scale
        assert n >= 10**6 and mask.dtype == np.float64
        assert np.isin(mask, (0.0, 1.0 / (1.0 - p))).all()
        kept = np.count_nonzero(mask)
        assert abs(kept - n * (1 - p)) <= 5 * math.sqrt(n * p * (1 - p))

    def test_dropout_just_below_one_drops_almost_every_unit(self):
        p = 1 - 1e-12
        net = micro_net(shared=(1000,), dropout=p)  # validate() accepts it
        # round(p * 2**32) is 2**32, which would wrap to a threshold of 0 in 32 bits
        masks = sample_dropout_masks(net, 1000, np.random.default_rng(61))
        assert np.count_nonzero(masks[0]) <= 2  # expected 10**6 / 2**32

    # the last case has 2**20 units, so ties (about 16) occur; with pieces of
    # 8 words (32 units) one draw is many random_raw calls
    @pytest.mark.parametrize("piece", [model._PIECE, 8])
    @pytest.mark.parametrize("shared,heads,batch",
                             [*((s, h, 7) for s, h in NET_SHAPES), ((1024,), {}, 1024)])
    def test_masks_are_one_raw_draw_sliced_layer_major(self, monkeypatch, shared, heads, batch,
                                                       piece):
        monkeypatch.setattr(model, "_PIECE", piece)
        p = 0.3
        net = micro_net(shared=shared, heads=heads, dropout=p)
        rng, ref_rng = np.random.default_rng(62), np.random.default_rng(62)
        masks = sample_dropout_masks(net, batch, rng)
        # trunk layers, then per group of equal-depth heads (ascending depth)
        # each hidden layer, as wide as its heads' layers together
        widths = list(shared)
        hidden = [heads.get(t.name, ()) for t in THREE_TASKS]
        for d in sorted({len(head) for head in hidden}):
            members = [head for head in hidden if len(head) == d]
            widths += [sum(head[i] for head in members) for i in range(d)]
        kept, ties = raw_draw(ref_rng, batch * sum(widths), p)
        if batch >= 1024:  # both outcomes of a tie occur
            assert 0 < np.count_nonzero(kept[ties]) < ties.size
        assert len(masks) == len(widths)
        for mask, ref in zip(masks, layer_major(kept, batch, widths)):
            # the training form: keep * scale
            assert mask.dtype == np.float64 and np.array_equal(mask, ref * (1.0 / (1.0 - p)))
        assert rng.random() == ref_rng.random()  # nothing else was drawn

    def test_draw_in_pieces_equals_one_call_with_ties_at_piece_edges(self, monkeypatch):
        # pieces of 8 words (32 units): three whole ones, then a short one of 5 units
        monkeypatch.setattr(model, "_PIECE", 8)
        p, n = 0.3, 101
        hi, lo = model._threshold(p)
        units = np.random.default_rng(63).integers(0, 2**16, 4 * 28, dtype=np.uint16)
        units[units == hi] = hi + 1  # no tie but those placed below
        # ties on both sides of the piece boundaries at units 32, 64 and 96, in
        # the short last piece, and a tie's word in the last word's unused unit 101
        tied = [31, 32, 63, 64, 77, 96, 100]
        units[[*tied, 101]] = hi
        # the tie words, one call after the 26 words of the units
        units[104:104 + len(tied)] = [lo, lo - 1, 0, 2**16 - 1, lo + 1, lo - 1, lo]
        words = units.view(np.uint64)
        ref_rng = ScriptedBits(words)
        kept, ties = raw_draw(ref_rng, n, p)
        assert ties.tolist() == tied
        assert kept[ties].tolist() == [True, False, False, True, True, False, True]
        for keep in (None, np.ones(n + 3, dtype=bool)):
            rng = ScriptedBits(words)
            got = model._draw(rng, n, hi, lo, keep)
            assert got.dtype == bool and np.array_equal(got, kept)
            assert rng.at == ref_rng.at == 28  # the same words were read
            if keep is not None:
                assert np.shares_memory(got, keep) and keep[n:].all()  # only keep[:n] written


class ScriptedBits:
    """A stand-in for a Generator whose bit generator's random_raw serves the
    64-bit `words` in order; `at` counts the words served."""

    def __init__(self, words):
        self.words, self.at, self.bit_generator = words, 0, self

    def random_raw(self, size):
        self.at += size
        return self.words[self.at - size:self.at].copy()


def pair_form_outputs(net, x, masks):
    """Activated per-task outputs of the training forward with each layer
    computed as a @ W then + b (prediction's form; training's is one GEMM over
    [W; b]), a hidden layer's activation times its mask under the training-form
    `masks` (keep * scale; None: none dropped), into (B, sum K) logits written
    column-major as training and prediction write them."""
    akind, j = net.config.activation, 0

    def hidden(a, layers):
        nonlocal j
        for w, b in layers:
            h = np.matmul(a, w)
            h += b
            a = model._act(h, akind)
            if masks is not None:
                a = a * masks[j]
            j += 1
        return a

    top = hidden(x, net.trunk)
    z = np.empty((len(x), net.groups[-1][1].stop), order="F")
    for layers, cs in net.groups:
        w, b = layers[-1]
        np.matmul(hidden(top, layers[:-1]), w, out=z[:, cs])
        z[:, cs] += b
    return [_activate_output(t, z[:, cs]) for t, cs in zip(net.tasks, net.cols)]


def passes_mean(stack):
    """The documented mean of a (T, B, K) stack of pass outputs: the sum of
    its rows in pass order, the first row copied, over T; column-major, so
    that its entropy's terms are too, as mc_predict's are in the logits."""
    total = np.array(stack[0], order="F")
    for y in stack[1:]:
        total = total + y
    return total / len(stack)


def mean_and_variance(stack):
    """The documented regression mean and variance of a (T, B) stack of pass
    outputs: Welford's update over its rows in pass order, mean and m2 from
    (stack[0], 0), the k-th row y adding d / (k + 1) to the mean and
    d * (y - mean) to m2, d = y - the old mean; the variance m2 / (T - 1),
    or m2 = 0 for T = 1."""
    mean, m2 = stack[0].copy(), np.zeros(stack.shape[1])
    for k in range(1, len(stack)):
        y = stack[k]
        d = y - mean
        mean = mean + d / (k + 1)
        m2 = m2 + d * (y - mean)
    return mean, m2 / max(len(stack) - 1, 1)


def block_streams(rng, n):
    """The n row blocks' mask streams of one MC call on `rng`, as documented:
    the children of a SeedSequence of rng's next two 64-bit raw words."""
    seed = np.random.SeedSequence(rng.bit_generator.random_raw(2))
    return [np.random.Generator(np.random.PCG64(child)) for child in seed.spawn(n)]


def stacked_mc_predict(net, x, rng=None):
    """Reference for mc_predict: per row block of ``model._blocks`` (at most
    ``model._block_rows(net)`` rows) and per pass t in order, the block's rows
    through :func:`pair_form_outputs` under the masks of one
    :func:`raw_draw` of the block's units from the block's
    :func:`block_streams` stream. Per block and task the passes' outputs are
    ``np.stack``-ed and reduced by :func:`passes_mean` or, for a regression
    task, :func:`mean_and_variance`; the blocks' results are concatenated."""
    widths, x = hidden_widths(net), np.atleast_2d(np.asarray(x, dtype=float))
    scale = 1.0 / (1.0 - net.config.dropout)
    blocks = model._blocks(len(x), model._block_rows(net))
    passes, streams = 1, None
    if rng is not None and net.config.dropout > 0.0:
        passes, streams = net.config.mc_passes, block_streams(rng, len(blocks) or 1)
    results = [([], []) for _ in net.tasks]  # per task, its blocks' two results
    for i, (r0, r1) in enumerate(blocks or [(0, 0)]):  # zero rows: one empty block
        outputs = [[] for _ in net.tasks]  # per task, the block's passes
        for _ in range(passes):
            masks = None
            if streams is not None:
                kept, _ = raw_draw(streams[i], (r1 - r0) * sum(widths), net.config.dropout)
                masks = layer_major(kept * scale, r1 - r0, widths)
            for ys, y in zip(outputs, pair_form_outputs(net, x[r0:r1], masks)):
                ys.append(y)
        for task, ys, (decoded, confidence) in zip(net.tasks, outputs, results):
            if task.kind == "regression":
                mean, var = mean_and_variance(np.stack(ys))
                decoded.append(mean)
                confidence.append(-var)
            else:
                mean = passes_mean(np.stack(ys))
                decoded.append(mean.argmax(axis=1))
                confidence.append(-shannon_entropy(mean))
    return [tuple(map(np.concatenate, pair)) for pair in results]


# the tasks of the perfbench workloads
BENCH_TASKS = [
    TaskSchema("quadrant", "multiclass", ("q1", "q2", "q3", "q4")),
    TaskSchema("coord_a", "regression"),
    TaskSchema("coord_v", "regression"),
]


def worker_row_bytes(shared, heads, tasks):
    """Reference for the bytes an MC worker's buffers take per block row, from
    the layer sizes: the first trunk layer's activation, every hidden layer's
    output, the logits and each classification task's (K,) sum, float64, and
    a bool keep word per hidden unit."""
    hidden = sum(shared) + sum(sum(heads.get(t.name, ())) for t in tasks)
    logits = sum(t.num_classes or 1 for t in tasks)
    sums = sum(t.num_classes or 0 for t in tasks)
    return 8 * (shared[0] if shared else 0) + 8 * (hidden + logits + sums) + hidden


class TestBlockRows:
    """An MC row block holds as many rows as fit the per-worker byte budget
    ``model._BLOCK_BYTES``, at least one and at most ``model._BLOCK``."""

    def test_a_narrow_net_keeps_the_row_cap(self):
        # cdlc-train's and ingest-wide's net: a 32-unit tanh trunk, linear heads
        net = init_network(NetworkConfig(shared_layers=(32,), activation="tanh"), 5,
                           BENCH_TASKS)
        assert model._row_bytes(net) == 8 * (32 + 32 + 6 + 4) + 32 == 624
        assert model._block_rows(net) == model._BLOCK == 4096

    def test_a_wide_net_gets_the_budgets_rows(self):
        # cdlc-mc-heads' net: a 64-unit relu trunk, a 16-unit hidden layer a head
        heads = {t.name: (16,) for t in BENCH_TASKS}
        net = init_network(NetworkConfig(shared_layers=(64,), head_layers=heads,
                                         activation="relu"), 5, BENCH_TASKS)
        assert model._row_bytes(net) == 8 * (64 + 112 + 6 + 4) + 112 == 1600
        assert model._block_rows(net) == model._BLOCK_BYTES // 1600 == 2048

    @settings(max_examples=60, deadline=None)
    @given(shared=st.lists(st.integers(1, 300), max_size=3),
           tasks=st.lists(st.tuples(st.sampled_from([0, 2, 3, 10]),  # 0: regression
                                    st.lists(st.integers(1, 64), max_size=2)),
                          min_size=1, max_size=4),
           budget=st.one_of(st.just(model._BLOCK_BYTES), st.integers(1, 2**23)),
           rows=st.integers(0, 20000))
    def test_block_buffers_fit_the_budget(self, shared, tasks, budget, rows):
        schemas = [TaskSchema(f"t{m}", "multiclass", tuple(map(str, range(k)))) if k
                   else TaskSchema(f"t{m}", "regression") for m, (k, _) in enumerate(tasks)]
        heads = {f"t{m}": tuple(h) for m, (_, h) in enumerate(tasks) if h}
        net = init_network(NetworkConfig(shared_layers=tuple(shared), head_layers=heads),
                           5, schemas)
        per_row = worker_row_bytes(shared, heads, schemas)
        with mock.patch.object(model, "_BLOCK_BYTES", budget):
            size = model._block_rows(net)
        assert model._row_bytes(net) == per_row
        assert 1 <= size <= model._BLOCK
        assert size == 1 or size * per_row <= budget
        assert size == model._BLOCK or (size + 1) * per_row > budget  # the most that fit
        blocks = model._blocks(rows, size)
        assert all(b - a <= size for a, b in blocks)
        assert [r for a, b in blocks for r in range(a, b)] == list(range(rows))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(0, 50000), size=st.integers(1, 5000))
    def test_block_count_is_even_and_as_small_as_the_size_allows(self, rows, size):
        blocks = model._blocks(rows, size)
        n = -(-rows // size)  # the fewest blocks of at most `size` rows
        assert len(blocks) == (n + n % 2 if rows > 1 else n)
        assert rows < 2 or (len(blocks) % 2 == 0 and len(blocks) >= 2)
        assert [r for a, b in blocks for r in range(a, b)] == list(range(rows))
        assert all(b - a <= size for a, b in blocks)
        sizes = [b - a for a, b in blocks]
        assert not sizes or max(sizes) - min(sizes) <= 1  # near-equal
        # an empty block only where one row is the most a block holds
        assert min(sizes, default=1) > 0 or (size == 1 and rows % 2 == 1)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(0, 40), cap=st.integers(1, 9), passes=st.integers(1, 4))
    def test_blocks_run_do_not_depend_on_the_workers(self, rows, cap, passes):
        # the (stream, units) of every draw a call makes, per worker count:
        # each block's passes draw from one stream, and the blocks and their
        # streams are the same however many workers run them
        net = micro_net(seed=85, shared=(6,), heads={"cat": (3,)}, dropout=0.3,
                        mc_passes=max(passes, 2))
        x = np.random.default_rng(86).normal(size=(rows, 5))
        runs, draw = [], model._draw
        with mock.patch.object(model, "_BLOCK", cap):
            for workers in (1, 2, 3):
                drawn = {}

                def recording(rng, n, *args):
                    drawn.setdefault(id(rng), (rng, []))[1].append(n)
                    return draw(rng, n, *args)

                with mock.patch.object(model, "_mc_workers", lambda: workers), \
                        mock.patch.object(model, "_draw", recording):
                    mc_predict(net, x, np.random.default_rng(87))
                runs.append(sorted((rng.bit_generator.state["state"]["state"], ns)
                                   for rng, ns in drawn.values()))
        blocks = model._blocks(rows, cap)
        assert len(runs[0]) == len(blocks)
        assert sorted(ns for _, ns in runs[0]) == sorted(
            [(b - a) * net.units] * net.config.mc_passes for a, b in blocks)
        assert runs[0] == runs[1] == runs[2]


# with a K = 10 multiclass task: from K = 8 on numpy sums a C-order row
# pairwise, a column-major one sequentially, so the logits' layout shows
WIDE_TASKS = [*THREE_TASKS, TaskSchema("wide", "multiclass", tuple("abcdefghij"))]


def reference_outputs(net, x):
    """Per task (logits, activated output) of an independent dropout-free
    forward: x @ W + b per layer through the trunk, then through the task's
    own head (the ``net.trunk`` and ``net.heads`` views), with the textbook
    activations."""
    act = np.tanh if net.config.activation == "tanh" else (lambda z: np.maximum(z, 0.0))
    for w, b in net.trunk:
        x = act(x @ w + b)
    results = []
    for task, head in zip(net.tasks, net.heads):
        a = x
        for w, b in head[:-1]:
            a = act(a @ w + b)
        z = a @ head[-1][0] + head[-1][1]
        if task.kind == "regression":
            results.append((z, z[:, 0]))
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            results.append((z, e / e.sum(axis=1, keepdims=True)))
    return results


class TestForwardReference:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_forward_equals_an_independent_reference(self, activation, shared, heads):
        net = micro_net(seed=55, shared=shared, heads=heads, dropout=0.3, activation=activation,
                        tasks=WIDE_TASKS)
        rng = np.random.default_rng(56)
        for _, b in (*net.trunk, *(layer for head in net.heads for layer in head)):
            b[...] = rng.normal(size=b.shape)  # init_network's biases are all zero
        x = rng.normal(size=(70, 5))
        # the training step's form: x with a ones column, one GEMM a layer
        x1, buf = model._step_batch(net, x)
        z1 = _forward(net, x1, None, buf)
        for cs, out, (ref_z, ref_out) in zip(net.cols, forward(net, x),
                                             reference_outputs(net, x)):
            np.testing.assert_allclose(z1[:, cs], ref_z, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)


class TestPredictionPath:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_mc_predict_equals_stacked_reference(self, activation, shared, heads):
        x = np.random.default_rng(40).normal(size=(300, 5))
        for dropout in (0.0, 0.3):
            net = micro_net(seed=41, shared=shared, heads=heads, dropout=dropout,
                            activation=activation, mc_passes=6, tasks=WIDE_TASKS)
            for seed in (None, 42):
                rng, ref_rng = (None, None) if seed is None else (
                    np.random.default_rng(seed), np.random.default_rng(seed))
                got = mc_predict(net, x, rng)
                for pred, (decoded, confidence) in zip(got, stacked_mc_predict(net, x, ref_rng)):
                    # bytes, so that a signed zero differs too
                    assert pred.decoded.dtype == decoded.dtype
                    assert pred.decoded.tobytes() == decoded.tobytes()
                    assert pred.confidence.tobytes() == confidence.tobytes()
                if seed is not None:  # the same words drawn from the caller's stream
                    assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_forward_equals_training_forward_under_sampled_masks(self, activation, shared,
                                                                heads):
        # per row block, the training form's masks from the block's stream
        net = micro_net(seed=43, shared=shared, heads=heads, dropout=0.3, activation=activation)
        x = np.random.default_rng(44).normal(size=(50, 5))
        blocks = model._blocks(len(x), model._block_rows(net))
        assert len(blocks) == 2
        refs = [pair_form_outputs(net, x[r0:r1], sample_dropout_masks(net, r1 - r0, stream))
                for (r0, r1), stream in zip(blocks, block_streams(np.random.default_rng(45),
                                                                  len(blocks)))]
        for m, out in enumerate(forward(net, x, np.random.default_rng(45))):
            ref = np.concatenate([block[m] for block in refs])
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rows", [1, 2])
    def test_many_passes_over_few_rows_equal_stacked_reference(self, rows):
        net = micro_net(seed=60, shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=64,
                        tasks=WIDE_TASKS)
        x = np.random.default_rng(61).normal(size=(rows, 5))
        for seed in range(62, 72):
            got = mc_predict(net, x, np.random.default_rng(seed))
            for pred, (decoded, confidence) in zip(
                    got, stacked_mc_predict(net, x, np.random.default_rng(seed))):
                assert pred.decoded.tobytes() == decoded.tobytes()
                assert pred.confidence.tobytes() == confidence.tobytes()

    @pytest.mark.parametrize("seed", [None, 46])
    def test_zero_rows_give_empty_results(self, seed):
        net = micro_net(shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=4)
        rng = None if seed is None else np.random.default_rng(seed)
        for pred in mc_predict(net, np.zeros((0, 5)), rng):
            assert pred.decoded.shape == (0,)
            assert pred.confidence.shape == (0,)

    def test_one_dimensional_input_is_one_row(self):
        net = micro_net(shared=(6,), dropout=0.3, mc_passes=4)
        x = np.random.default_rng(47).normal(size=(1, 5))
        row = mc_predict(net, x[0], np.random.default_rng(48))
        batch = mc_predict(net, x, np.random.default_rng(48))
        for a, b in zip(row, batch):
            assert a.decoded.shape == a.confidence.shape == (1,)
            assert np.array_equal(a.decoded, b.decoded)
            assert np.array_equal(a.confidence, b.confidence)

    def test_wrong_feature_count_is_named(self):
        with pytest.raises(ValueError, match="^expected 5 features, got 7$"):
            mc_predict(micro_net(dropout=0.3), np.zeros((2, 7)), np.random.default_rng(0))

    def test_network_and_input_unchanged(self):
        net = micro_net(shared=(6, 4), heads={"flag": (3,)}, dropout=0.3, mc_passes=4,
                        activation="relu")
        x = np.random.default_rng(49).normal(size=(30, 5))
        params, features = net.params.copy(), x.copy()
        mc_predict(net, x, np.random.default_rng(50))
        mc_predict(net, x)
        assert np.array_equal(net.params, params)
        assert np.array_equal(x, features)


def pass_outputs(net, x, seed, workers, monkeypatch):
    """The bytes of `_predict_passes` on `workers` workers (each result array
    of each task), and the next uniform of its generator."""
    monkeypatch.setattr(model, "_mc_workers", lambda: workers)
    rng = np.random.default_rng(seed)
    results = model._predict_passes(net, x, rng, net.config.mc_passes)
    return [a.tobytes() for pair in results for a in pair], rng.random()


def stall_worker(monkeypatch, caller, blocks):
    """Make one worker, the caller's thread if `caller`, else the other, stall
    at its first output activation until the other worker has drawn for the
    other blocks - 1 of the call's `blocks` blocks, and the other worker wait
    at its own first one until that stall has begun, so that each holds a
    block and the other runs on. Returns (slept, streams): the thread that
    stalled and, per thread, the ids of the generators its draws read, one
    per block it ran; the call fills both."""
    slept, streams, callers, stalled = [], {}, [], threading.Event()
    draw, activate, predict = model._draw, model._activate_output, model._predict_passes

    def predicting(*args, **kw):
        callers.append(threading.get_ident())
        return predict(*args, **kw)

    def drawing(rng, *args):
        streams.setdefault(threading.get_ident(), set()).add(id(rng))
        return draw(rng, *args)

    def stalling(task, z):
        me = threading.get_ident()
        if (me == callers[-1]) == caller:
            if not slept:
                slept.append(me)
                stalled.set()
                deadline = time.monotonic() + 10
                # list(): the other worker may add its entry meanwhile
                while sum(len(ids) for thread, ids in list(streams.items())
                          if thread != me) < blocks - 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
        elif not stalled.is_set():
            assert stalled.wait(timeout=10), "the slowed worker took no block"
        return activate(task, z)

    monkeypatch.setattr(model, "_predict_passes", predicting)
    monkeypatch.setattr(model, "_draw", drawing)
    monkeypatch.setattr(model, "_activate_output", stalling)
    return slept, streams


class TestTwoWorkers:
    """The MC row blocks of one call split over two threads give the bytes,
    and leave the generator in the state, of one thread running them all."""

    @pytest.mark.parametrize("rows", [0, 1, 4097])  # 4097: two row blocks
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_equal_to_one_worker_and_stacked_reference(self, monkeypatch, shared, heads,
                                                       rows):
        net = micro_net(seed=51, shared=shared, heads=heads, dropout=0.3, activation="relu",
                        mc_passes=5, tasks=WIDE_TASKS)
        x = np.random.default_rng(52).normal(size=(rows, 5))
        assert (pass_outputs(net, x, 53, 2, monkeypatch)
                == pass_outputs(net, x, 53, 1, monkeypatch))
        rng, ref_rng = np.random.default_rng(53), np.random.default_rng(53)
        for pred, (decoded, confidence) in zip(mc_predict(net, x, rng),
                                               stacked_mc_predict(net, x, ref_rng)):
            assert pred.decoded.tobytes() == decoded.tobytes()
            assert pred.confidence.tobytes() == confidence.tobytes()
        assert rng.random() == ref_rng.random()

    # 7-row blocks: 7 and 8 rows are two blocks, 20 rows four blocks of 5
    @pytest.mark.parametrize("rows", [1, 7, 8, 20])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shared,heads", NET_SHAPES)
    def test_row_blocks_draw_in_block_then_pass_order(self, monkeypatch, shared, heads, workers,
                                                      rows):
        monkeypatch.setattr(model, "_mc_workers", lambda: workers)
        net = micro_net(seed=76, shared=shared, heads=heads, dropout=0.3, mc_passes=5,
                        tasks=WIDE_TASKS)
        x = np.random.default_rng(77).normal(size=(rows, 5))
        # 7 rows set by the row cap, then by the byte budget under a cap of 4096
        for cap, budget in ((7, model._BLOCK_BYTES), (4096, 8 * model._row_bytes(net) - 1)):
            monkeypatch.setattr(model, "_BLOCK", cap)
            monkeypatch.setattr(model, "_BLOCK_BYTES", budget)
            assert model._block_rows(net) == 7
            rng, ref_rng = np.random.default_rng(78), np.random.default_rng(78)
            for pred, (decoded, confidence) in zip(mc_predict(net, x, rng),
                                                   stacked_mc_predict(net, x, ref_rng)):
                assert pred.decoded.tobytes() == decoded.tobytes()
                assert pred.confidence.tobytes() == confidence.tobytes()
            # the caller's generator ends two words on
            assert rng.random() == ref_rng.random()

    def test_draws_in_small_pieces_equal_the_one_call_reference(self, monkeypatch):
        # 80 units a row: each pass's draw is 1500 random_raw calls of 8 words
        monkeypatch.setattr(model, "_PIECE", 8)
        net = micro_net(seed=64, shared=(64,), heads={"cat": (16,)}, dropout=0.3, mc_passes=8,
                        tasks=WIDE_TASKS)
        x = np.random.default_rng(65).normal(size=(600, 5))
        probe = np.random.default_rng(66)
        assert sum(raw_draw(probe, 600 * 80, 0.3)[1].size for _ in range(8)) > 0  # ties occur
        # one worker, then two, which mc_predict below keeps
        assert (pass_outputs(net, x, 66, 1, monkeypatch)
                == pass_outputs(net, x, 66, 2, monkeypatch))
        rng, ref_rng = np.random.default_rng(66), np.random.default_rng(66)
        for pred, (decoded, confidence) in zip(mc_predict(net, x, rng),
                                               stacked_mc_predict(net, x, ref_rng)):
            assert pred.decoded.tobytes() == decoded.tobytes()
            assert pred.confidence.tobytes() == confidence.tobytes()
        assert rng.random() == ref_rng.random()

    def test_two_workers_under_frequent_thread_switches(self, monkeypatch):
        # each worker adds into its own block's moments; a lost or reordered
        # add would change the bytes. With 7-row blocks the two workers share
        # 6 blocks.
        net = micro_net(seed=70, shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=9,
                        tasks=WIDE_TASKS)
        x = np.random.default_rng(71).normal(size=(40, 5))
        interval = sys.getswitchinterval()
        for block in (model._BLOCK, 7):
            monkeypatch.setattr(model, "_BLOCK", block)
            expected = pass_outputs(net, x, 72, 1, monkeypatch)
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(20):
                    assert pass_outputs(net, x, 72, 2, monkeypatch) == expected
            finally:
                sys.setswitchinterval(interval)

    def test_worker_exception_is_raised_after_the_workers_end(self, monkeypatch):
        net = micro_net(shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=8)
        calls, original = [], model._activate_output

        def failing(task, z):
            calls.append(threading.get_ident())
            if len(calls) == 7:
                raise KeyError("pass failed")
            return original(task, z)

        monkeypatch.setattr(model, "_mc_workers", lambda: 2)
        monkeypatch.setattr(model, "_activate_output", failing)
        threads = threading.active_count()
        with pytest.raises(KeyError, match="pass failed"):
            mc_predict(net, np.random.default_rng(54).normal(size=(40, 5)),
                       np.random.default_rng(55))
        assert threading.active_count() == threads
        assert len(calls) < 8 * len(net.tasks)  # the passes stopped

    @pytest.mark.parametrize("caller", [True, False])
    def test_a_slow_worker_gives_one_workers_bytes(self, monkeypatch, caller):
        # the slowed worker stays on its first block while the other takes
        # the rest, so which worker runs which block differs from an even split
        monkeypatch.setattr(model, "_BLOCK", 50)
        net = micro_net(seed=51, shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=5,
                        tasks=WIDE_TASKS)
        x = np.random.default_rng(52).normal(size=(300, 5))
        assert len(model._blocks(len(x), model._block_rows(net))) == 6
        expected = pass_outputs(net, x, 53, 1, monkeypatch)
        slept, streams = stall_worker(monkeypatch, caller, 6)
        assert pass_outputs(net, x, 53, 2, monkeypatch) == expected
        assert len(slept) == 1
        ran = {thread: len(ids) for thread, ids in streams.items()}
        assert sum(ran.values()) == 6
        # the slowed worker ran only the block it stalled in
        assert ran[slept[0]] == 1

    def test_no_worker_waits_for_the_other(self, monkeypatch):
        # the second worker's first pass waits until the caller's thread has
        # run every pass of the other 5 of the 6 blocks, which a worker
        # waiting for the other never lets happen
        monkeypatch.setattr(model, "_BLOCK", 7)
        net = micro_net(shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=6)
        x = np.random.default_rng(58).normal(size=(40, 5))
        assert len(model._blocks(len(x), model._block_rows(net))) == 6
        expected = pass_outputs(net, x, 59, 1, monkeypatch)
        released, original = threading.Event(), model._activate_output
        caller, worker0_calls, results = [], [], []

        def gated(task, z):
            if threading.get_ident() == caller[0]:
                out = original(task, z)
                worker0_calls.append(None)
                if len(worker0_calls) == 5 * 6 * len(net.tasks):
                    released.set()
                return out
            assert released.wait(timeout=10), "worker 0 did not run its passes"
            return original(task, z)

        def call():
            caller.append(threading.get_ident())
            results.append(pass_outputs(net, x, 59, 2, monkeypatch))

        monkeypatch.setattr(model, "_activate_output", gated)
        watchdog = threading.Thread(target=call, daemon=True)
        watchdog.start()
        watchdog.join(timeout=30)
        assert not watchdog.is_alive(), "a worker still waits for the other"
        assert results == [expected]

    def test_each_block_draws_from_a_child_of_the_callers_words(self, monkeypatch):
        net = micro_net(seed=73, shared=(6,), heads={"cat": (3,)}, dropout=0.3, mc_passes=7)
        x = np.random.default_rng(74).normal(size=(30, 5))  # two blocks of 15 rows
        n = 15 * net.units
        drawn, draw = [], model._draw

        def recording(rng, *args):
            keep = draw(rng, *args)
            drawn.append((rng, keep[:n].copy()))
            return keep

        monkeypatch.setattr(model, "_mc_workers", lambda: 1)
        monkeypatch.setattr(model, "_draw", recording)
        caller, ref = np.random.default_rng(75), np.random.default_rng(75)
        mc_predict(net, x, caller)
        # one worker runs block 0's passes, then block 1's, each block from
        # its own stream, which is never the caller's
        first, second = drawn[0][0], drawn[7][0]
        assert [rng for rng, _ in drawn] == [first] * 7 + [second] * 7
        assert caller not in (first, second) and first is not second
        streams = block_streams(ref, 2)
        for t, (_, keep) in enumerate(drawn):
            assert np.array_equal(keep, raw_draw(streams[t // 7], n, 0.3)[0])
        # the caller's generator ends two words on, where `ref` is
        assert caller.random() == ref.random()
        # so a second call on the same generator draws other masks
        before = drawn[0][1]
        drawn.clear()
        mc_predict(net, x, caller)
        assert not np.array_equal(drawn[0][1], before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_run_under_the_callers_error_state(self, monkeypatch, workers):
        # the first trunk layer stays finite; the second overflows in a
        # worker's matmul
        net = micro_net(shared=(6, 4), dropout=0.3, mc_passes=4, activation="relu")
        net.params *= 1e200
        monkeypatch.setattr(model, "_mc_workers", lambda: workers)
        x = np.random.default_rng(56).normal(size=(20, 5))
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
                mc_predict(net, x, np.random.default_rng(57))

    def test_one_worker_without_blas_control_or_a_second_cpu(self, monkeypatch):
        with model.one_blas_thread() as before:
            expected = 2 if before is not None and model.usable_cpus() >= 2 else 1
            assert model._mc_workers() == expected
            monkeypatch.setattr(model, "usable_cpus", lambda: 1)
            assert model._mc_workers() == 1
            monkeypatch.undo()
            monkeypatch.setattr(model, "_blas_threads", lambda: None)
            assert model._mc_workers() == 1

    def test_blas_helper_restores_the_prior_count(self):
        control = model._blas_threads()
        if control is None:
            pytest.skip("no OpenBLAS thread control resolves in this process")
        get, set_ = control
        prior = get()
        try:
            set_(2)
            with model.one_blas_thread() as before:
                assert (before, get()) == (2, 1)
            assert get() == 2
        finally:
            set_(prior)


def mc_over_outputs(stack):
    """mc_predict's prediction for a regression task whose outputs in pass t
    are row t of the (T, B) `stack`: a one-worker call on a one-task net whose
    output activation is replaced, per row block and pass in turn, by the
    block's columns of the stack's rows."""
    net = micro_net(shared=(3,), dropout=0.3, mc_passes=len(stack), tasks=[THREE_TASKS[2]])
    rows = iter([stack[t, r0:r1] for r0, r1 in model._blocks(stack.shape[1], model._BLOCK)
                 for t in range(len(stack))])

    def scripted(task, z):
        z[:, 0] = next(rows)
        return z[:, 0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_mc_workers", lambda: 1)
        mp.setattr(model, "_activate_output", scripted)
        (pred,) = mc_predict(net, np.zeros((stack.shape[1], 5)), np.random.default_rng(0))
    return pred


class TestRegressionMoments:
    """Regression confidence from Welford's moments over the passes in order
    (:func:`mean_and_variance`), whose memory does not grow with the
    passes."""

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 17), st.integers(1, 4)),
                  elements=st.floats(-1.0, 1.0)),
           st.sampled_from([0.0, -7.0, 1e6, -3e9, 1e12]),
           st.sampled_from([1.0, 1e-3, 1e-9]))
    def test_confidence_is_welfords_variance_and_never_positive(self, base, offset, spread):
        # a large offset with a tiny spread is where a one-pass variance loses
        # digits; B >= 2 rows are two row blocks
        stack = offset + spread * base
        pred = mc_over_outputs(stack)
        assert (pred.confidence <= 0.0).all()
        mean, var = mean_and_variance(stack)
        assert pred.confidence.tobytes() == (-var).tobytes()
        assert pred.decoded.tobytes() == mean.tobytes()
        # against numpy's two-pass variance: both err by a few ulps of the
        # variance, and Welford's means by an ulp of the offset, which a
        # deviation of about the spread scales
        var = stack.var(axis=0, ddof=1)
        mean = np.abs(stack.mean(axis=0))
        bound = 8 * len(stack) * np.finfo(float).eps * (var + mean * np.sqrt(var))
        # and by a few steps where the variance is subnormal, which the
        # relative bound underflows to 0 at
        bound += len(stack) * np.finfo(float).smallest_subnormal
        assert (np.abs(-pred.confidence - var) <= bound).all()

    @pytest.mark.parametrize("value", [0.0, -2.5, 1e12])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_constant_outputs_give_exactly_zero(self, value, rows):
        pred = mc_over_outputs(np.full((9, rows), value))
        assert (pred.confidence == 0.0).all()
        assert (pred.decoded == value).all()

    def test_mc_predict_peak_does_not_grow_with_the_passes(self):
        # a (64, 4000) regression stack alone is 2 MB; a pass's outputs 32 kB
        x = np.random.default_rng(67).normal(size=(4000, 5))
        peaks = []
        for passes in (4, 64):
            net = micro_net(seed=68, shared=(16,), dropout=0.3, mc_passes=passes)
            tracemalloc.start()
            try:
                mc_predict(net, x, np.random.default_rng(69))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


class TestPeakMemory:
    """An MC call holds no array over all of its rows but its results: the
    rest is sized to one row block, whose buffers take at most
    ``model._BLOCK_BYTES`` a worker."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_predict_peak_per_added_row_is_the_results(self, monkeypatch, workers):
        monkeypatch.setattr(model, "_mc_workers", lambda: workers)
        net = micro_net(seed=79, shared=(16,), heads={"cat": (8,)}, dropout=0.3, mc_passes=6,
                        tasks=WIDE_TASKS)
        # per row and task its two results, 8 B each: a decoded class or a
        # regression mean, and a confidence; no moments
        results = 16 * len(net.tasks)
        # not per row: per added block its stream (a generator, under 1 KiB),
        # and with two workers one worker's transients, a draw's piece of
        # words and a pass's temporaries, which may or may not meet the
        # other's at the peak
        slack = 4 * 1024 + (workers - 1) * (8 * model._PIECE + 64 * 1024)
        peaks = []
        for blocks in (4, 8):  # even counts: 4096-row blocks
            x = np.random.default_rng(80).normal(size=(blocks * model._BLOCK, 5))
            tracemalloc.start()
            try:
                mc_predict(net, x, np.random.default_rng(81))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added = peaks[1] - peaks[0]
        assert added <= 4 * model._BLOCK * results + slack, (added / (4 * model._BLOCK), results)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_predict_peak_of_a_wide_net_is_the_byte_budget(self, monkeypatch, workers):
        monkeypatch.setattr(model, "_mc_workers", lambda: workers)
        # 3096 B a row: 4096-row blocks would take 12.7 MB a worker
        net = micro_net(seed=82, shared=(128,), heads={t.name: (32,) for t in THREE_TASKS},
                        dropout=0.3, mc_passes=4)
        assert model._BLOCK * model._row_bytes(net) > 3 * model._BLOCK_BYTES
        rows = 2 * model._BLOCK
        x = np.random.default_rng(83).normal(size=(rows, 5))  # allocated before the trace
        # per task, a decoded class or regression mean and a confidence
        results = 16 * rows * len(net.tasks)
        # per worker, the draw's piece of random words and the passes'
        # temporaries over a block (softmax's row max and sum, Welford's deltas)
        slack = workers * (8 * model._PIECE + 64 * 1024)
        tracemalloc.start()
        try:
            mc_predict(net, x, np.random.default_rng(84))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = peak - results
        assert held <= workers * model._BLOCK_BYTES + slack, (held, workers, slack)
