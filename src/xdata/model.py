"""Multi-task shared-hidden-layer feedforward network.

A shared trunk feeds one head per task; heads end in a single sigmoid unit
(binary), a softmax layer (multiclass), or a single linear unit (regression).
The training loss is the sum of per-task losses over *defined* label cells
only; undefined cells contribute exactly zero to loss and gradients.

Dropout is inverted (survivors scaled by 1/(1-p) at sample time), applied to
hidden units of trunk and heads, never to inputs or outputs. Uncertainty is
estimated by repeated stochastic forward passes: classification confidence is
the negated Shannon entropy of the mean output distribution, regression
confidence the negated sample variance of the outputs.

Prediction (:func:`forward`, :func:`mc_predict`) runs all passes of one call
through one function, separate from the training forward, which keeps caches
for backprop. Dropout never touches the inputs, so the first trunk layer's
activation is computed once per call. Each pass draws its masks in the order
of :func:`sample_dropout_masks` (trunk layers, then each head's hidden layers
in task order) into reused buffers, works in place in per-layer buffers, and
writes its outputs into one preallocated (passes, B) or (passes, B, K) array
per task. The float operations are those of the training forward and of
stacking per-pass outputs, so the outputs are byte-identical to that stacked
form (the reference in the tests).

All computation is float64 numpy, the output activations included (the
max-shifted softmax and log-softmax and the sigmoid below); training is plain
minibatch SGD (optional momentum) and fully deterministic in (config, seed, data).

Parameter layout: all weights and biases live in one flat float64 array,
``MtShlNetwork.params``, each layer its row-major (in_dim x out_dim) weights
then its bias. First come the trunk layers. Next comes the fused output
block ``block``: one (H, sum K) layer that holds, side by side in task
order, the output layers of every head without hidden layers, so their
logits, weight gradient and share of the trunk's gradient take one matmul
each. Each remaining head's layers follow, in task order (output layer
last). ``trunk`` and ``heads`` are tuples of views into it (write through
them, ``w[...] = ...``); a fused head's output layer is its column slice of
the block, and ``cols[m]`` is task m's slice of the logits' columns (the
block's first, then the other heads'). Heads with hidden layers keep their
own first layer: fusing those into one matmul made an MC pass 1.1-1.2x
slower in two measurements at 5000 rows (64-unit relu trunk, three 16-unit
heads), because each head then works on a strided column slice. Gradients
share the layout, so an SGD step is one vector operation. Initial weights
are drawn per layer in the order trunk, then each head's layers in task
order, whatever the layout.

Training encodes the labels once per :func:`train` call into a target and a
weight matrix in the logits' column order and gathers them with the inputs
once per epoch; each step's output gradient is then (activated logits -
targets) * weights on its contiguous rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import REGRESSION, TaskSchema

logger = logging.getLogger(__name__)


@dataclass
class NetworkConfig:
    shared_layers: tuple[int, ...] = (64,)
    head_layers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    dropout: float = 0.1
    activation: str = "tanh"  # or "relu"
    epochs: int = 50
    learning_rate: float = 0.001  # scaled for the sum-over-cells loss
    batch_size: int = 64
    momentum: float = 0.0
    mc_passes: int = 20
    seed: int = 1

    def validate(self) -> None:
        """Range checks; each message names the configuration key at fault."""
        sizes = {"net.shared_layers": self.shared_layers,
                 **{f"net.head_layers.{t}": h for t, h in sorted(self.head_layers.items())}}
        for key, layers in sizes.items():
            if not all(s > 0 for s in layers):
                raise ValueError(f"{key}: layer sizes must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("net.dropout must be in [0, 1)")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"net.activation must be tanh or relu, got {self.activation!r}")
        if self.epochs <= 0 or self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("net.epochs, net.learning_rate and net.batch_size must be positive")
        if self.mc_passes < 1:
            raise ValueError("net.mc_passes must be >= 1")
        if self.dropout > 0 and self.mc_passes < 2:
            raise ValueError("net.mc_passes must be >= 2 when net.dropout > 0")


Layer = tuple[np.ndarray, np.ndarray]  # (weights in_dim x out_dim, bias out_dim)


def head_output_size(task: TaskSchema) -> int:
    if task.kind == "multiclass":
        return task.num_classes
    return 1  # binary sigmoid unit or regression scalar


def _layer_shapes(config: NetworkConfig, feature_dim: int,
                  tasks: list[TaskSchema]) -> list[list[tuple[int, int]]]:
    """(n_in, n_out) per layer: the trunk's group, then one group per task head."""
    sizes = [feature_dim, *config.shared_layers]
    groups = [list(zip(sizes, sizes[1:]))]
    for task in tasks:
        head = [sizes[-1], *config.head_layers.get(task.name, ()), head_output_size(task)]
        groups.append(list(zip(head, head[1:])))
    return groups


def _layer_views(flat: np.ndarray, groups: list[list[tuple[int, int]]]):
    """(trunk, heads, block, cols): (W, b) views into `flat`, laid out as in the
    module docstring. `block` is the fused output layer (None if every head has
    hidden layers); cols[m] is task m's slice of the logits' columns."""
    offset = 0

    def take(n_in, n_out):
        nonlocal offset
        end = offset + n_in * n_out
        layer = flat[offset:end].reshape(n_in, n_out), flat[end:end + n_out]
        offset = end + n_out
        return layer

    trunk, shapes = tuple(take(*shape) for shape in groups[0]), groups[1:]
    fused = [m for m, group in enumerate(shapes) if len(group) == 1]
    cols, start = {}, 0
    for m in sorted(range(len(shapes)), key=lambda m: m not in fused):  # fused heads first
        cols[m] = slice(start, start + shapes[m][-1][1])
        start = cols[m].stop
    block = take(shapes[fused[0]][0][0], cols[fused[-1]].stop) if fused else None
    heads = tuple(((block[0][:, cols[m]], block[1][cols[m]]),) if m in fused
                  else tuple(take(*shape) for shape in group)
                  for m, group in enumerate(shapes))
    if offset != flat.size:
        raise ValueError(f"expected {offset} parameters, got {flat.size}")
    return trunk, heads, block, tuple(cols[m] for m in range(len(shapes)))


@dataclass
class MtShlNetwork:
    params: np.ndarray  # every weight and bias, laid out as in the module docstring
    tasks: list[TaskSchema]
    config: NetworkConfig
    feature_dim: int
    trunk: tuple[Layer, ...] = field(init=False, repr=False)  # views into params
    heads: tuple[tuple[Layer, ...], ...] = field(init=False, repr=False)  # last: output
    block: Optional[Layer] = field(init=False, repr=False)  # fused output layers
    cols: tuple[slice, ...] = field(init=False, repr=False)  # per task, of the logits

    def __post_init__(self):
        self.trunk, self.heads, self.block, self.cols = _layer_views(
            self.params, _layer_shapes(self.config, self.feature_dim, self.tasks))

    def copy(self) -> "MtShlNetwork":
        return MtShlNetwork(self.params.copy(), list(self.tasks), self.config, self.feature_dim)


def init_network(config: NetworkConfig, feature_dim: int,
                 tasks: list[TaskSchema]) -> MtShlNetwork:
    """Fan-in scaled uniform weights, zero biases; deterministic in config.seed."""
    config.validate()
    if not tasks:
        raise ValueError("at least one task required")
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    groups = _layer_shapes(config, feature_dim, tasks)
    net = MtShlNetwork(np.zeros(sum((n_in + 1) * n_out for group in groups
                                    for n_in, n_out in group)), list(tasks), config, feature_dim)
    rng = np.random.default_rng(config.seed)
    # drawn per layer in the order of _layer_shapes, whatever the layout
    for w, _ in (*net.trunk, *(layer for head in net.heads for layer in head)):
        scale = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-scale, scale, size=w.size).reshape(w.shape)
    return net


# ---------------------------------------------------------------------------
# forward / backward


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """The hidden activation of `z`, in place."""
    return np.tanh(z, out=z) if kind == "tanh" else np.maximum(z, 0.0, out=z)


def _dact(a: np.ndarray, kind: str) -> np.ndarray:
    """Activation derivative from the activation itself (a > 0 iff z > 0 for relu)."""
    return 1.0 - a * a if kind == "tanh" else a > 0


def sample_dropout_masks(net: MtShlNetwork, batch: int,
                         rng: np.random.Generator) -> Optional[dict]:
    """Inverted-dropout masks for all hidden units of a batch, or None if p=0."""
    p = net.config.dropout
    if p == 0.0:
        return None
    scale = 1.0 / (1.0 - p)

    def mask(size):
        return (rng.random((batch, size)) >= p) * scale

    return {
        "trunk": [mask(w.shape[1]) for w, _ in net.trunk],
        "heads": [[mask(w.shape[1]) for w, _ in head[:-1]] for head in net.heads],
    }


def _hidden_forward(layers, a: np.ndarray, masks: Optional[list], akind: str):
    """Pass `a` through hidden layers; returns the output and one cache entry
    (input, activation before the dropout mask) per layer."""
    cache = []
    for li, (w, b) in enumerate(layers):
        h = _act(a @ w + b, akind)
        cache.append((a, h))
        a = h if masks is None else h * masks[li]
    return a, cache


def _forward(net: MtShlNetwork, x: np.ndarray, masks: Optional[dict]):
    """Full forward pass with caches for backprop.

    Returns (top, trunk_cache, head_caches, z): the trunk's (masked) output,
    the caches of :func:`_hidden_forward` (head_caches[m] is None for a fused
    head, else head m's (output-layer input, cache)), and the (B, sum K)
    logits, whose columns net.cols[m] are task m's.
    """
    akind = net.config.activation
    top, trunk_cache = _hidden_forward(net.trunk, x, masks and masks["trunk"], akind)
    parts = [] if net.block is None else [top @ net.block[0] + net.block[1]]
    head_caches = []
    for m, head in enumerate(net.heads):
        if len(head) == 1:
            head_caches.append(None)
            continue
        ha, cache = _hidden_forward(head[:-1], top, masks and masks["heads"][m], akind)
        parts.append(ha @ head[-1][0] + head[-1][1])
        head_caches.append((ha, cache))
    return top, trunk_cache, head_caches, parts[0] if len(parts) == 1 else np.hstack(parts)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-z) overflows to inf for very negative z, and the result is then exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _activate_output(task: TaskSchema, z: np.ndarray) -> np.ndarray:
    """Logits -> probabilities (classification) or identity (regression)."""
    if task.kind == "multiclass":
        return _softmax(z)
    if task.kind == "binary":
        return _sigmoid(z[:, 0])
    return z[:, 0]


def _as_rows(net: MtShlNetwork, x) -> np.ndarray:
    """`x` as a float (B, F) batch; a 1-D input is one row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.feature_dim:
        raise ValueError(f"expected {net.feature_dim} features, got {x.shape[1]}")
    return x


def _predict_passes(net: MtShlNetwork, x: np.ndarray, rng: Optional[np.random.Generator],
                    passes: int) -> list[np.ndarray]:
    """Activated outputs of `passes` forward passes of the batch `x`, one
    (passes, B) or (passes, B, K) array per task.

    Dropout-free when `rng` is None or p = 0, else every pass draws its masks
    as :func:`sample_dropout_masks` does, in the same order. Computes what
    :func:`_forward` does with the same float operations, in buffers reused
    across passes.
    """
    p = net.config.dropout
    akind, rows = net.config.activation, x.shape[0]
    drop = rng is not None and p > 0.0
    scale = 1.0 / (1.0 - p)
    draws: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # width -> (uniforms, keep)

    def dense(a, layer, out):  # out = a @ w + b
        np.matmul(a, layer[0], out=out)
        out += layer[1]
        return out

    def dropout(h, out):  # out = h * mask, the mask drawn as sample_dropout_masks draws it
        if not drop:
            return h
        if h.shape[1] not in draws:
            draws[h.shape[1]] = np.empty(h.shape), np.empty(h.shape, dtype=bool)
        u, keep = draws[h.shape[1]]
        rng.random(out=u)
        np.greater_equal(u, p, out=keep)
        np.multiply(keep, scale, out=u)
        return np.multiply(h, u, out=out)

    def buffers(layers):
        return [np.empty((rows, w.shape[1])) for w, _ in layers]

    trunk_bufs = buffers(net.trunk)
    head_bufs = [buffers(head) if len(head) > 1 else None for head in net.heads]
    block_buf = None if net.block is None else np.empty((rows, net.block[1].size))
    # dropout never touches the inputs, so the first trunk layer's activation
    # is the same in every pass
    first = _act(dense(x, net.trunk[0], np.empty_like(trunk_bufs[0])), akind) if net.trunk else x
    outs = [np.empty((passes, rows, head_output_size(t)) if t.kind == "multiclass"
                     else (passes, rows)) for t in net.tasks]
    for t in range(passes):
        top = dropout(first, trunk_bufs[0]) if net.trunk else x
        for layer, buf in zip(net.trunk[1:], trunk_bufs[1:]):
            top = dropout(_act(dense(top, layer, buf), akind), buf)
        zb = None if net.block is None else dense(top, net.block, block_buf)
        for task, head, cs, bufs, out in zip(net.tasks, net.heads, net.cols, head_bufs, outs):
            if bufs is None:  # fused: task's columns of the block's logits
                z = zb[:, cs]
            else:
                a = top
                for layer, buf in zip(head[:-1], bufs):
                    a = dropout(_act(dense(a, layer, buf), akind), buf)
                z = dense(a, head[-1], bufs[-1])
            out[t] = _activate_output(task, z)
    return outs


def forward(net: MtShlNetwork, x: np.ndarray,
            rng: Optional[np.random.Generator] = None) -> list[np.ndarray]:
    """Activated per-task outputs for a batch.

    With `rng` given, hidden units are dropped stochastically (sampled-dropout
    mode); without, the pass is deterministic. Binary tasks yield the
    probability of class 1, multiclass a (B, K) distribution, regression the
    raw output.
    """
    return [out[0] for out in _predict_passes(net, _as_rows(net, x), rng, 1)]


def _cell_losses(task: TaskSchema, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row task loss given logits z and (safe) labels y."""
    if task.kind == "binary":
        return np.logaddexp(0.0, z[:, 0]) - y * z[:, 0]
    if task.kind == "multiclass":
        logp = _log_softmax(z)
        return -logp[np.arange(len(y)), y.astype(int)]
    d = z[:, 0] - y
    return d * d


def _encode_targets(net: MtShlNetwork, y: np.ndarray,
                    defined: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, weights) for the rows of `y`, each (B, sum K) in the logits'
    column order (net.cols): targets one-hot for multiclass and the label for
    binary and regression, 0 in undefined cells; weights the defined mask,
    doubled for regression. (activated logits - targets) * weights is then
    d(masked loss)/d(logits)."""
    width = max(cs.stop for cs in net.cols)
    targets, weights = np.zeros((len(defined), width)), np.empty((len(defined), width))
    for m, (task, cs) in enumerate(zip(net.tasks, net.cols)):
        sel = defined[:, m]
        if task.kind == "multiclass":
            targets[sel, cs.start + y[sel, m].astype(int)] = 1.0
        else:
            targets[sel, cs.start] = y[sel, m]
        weights[:, cs] = (sel * (2.0 if task.kind == REGRESSION else 1.0))[:, None]
    return targets, weights


def mt_loss(net: MtShlNetwork, x: np.ndarray, y: np.ndarray, defined: np.ndarray,
            masks: Optional[dict] = None) -> float:
    """Masked multi-task loss: sum over defined cells of the per-task loss."""
    z = _forward(net, np.asarray(x, dtype=float), masks)[-1]
    total = 0.0
    for m, task in enumerate(net.tasks):
        sel = defined[:, m]
        if sel.any():
            losses = _cell_losses(task, z[:, net.cols[m]], np.where(sel, y[:, m], 0.0))
            total += float(losses[sel].sum())
    return total


def _hidden_backward(layers, cache: list, masks: Optional[list], da: np.ndarray,
                     grads, akind: str) -> np.ndarray:
    """Backpropagate `da`, the gradient at the hidden layers' (masked) output,
    writing each layer's (W, b) gradient into the views `grads`; returns the
    gradient at the first layer's input."""
    for li in range(len(layers) - 1, -1, -1):
        a_in, a = cache[li]
        # the mask was applied after the activation; fold it into the derivative
        dz = da * _dact(a, akind)
        if masks is not None:
            dz = dz * masks[li]
        np.matmul(a_in.T, dz, out=grads[li][0])
        dz.sum(axis=0, out=grads[li][1])
        da = dz @ layers[li][0].T
    return da


def loss_and_grads(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
                   defined: np.ndarray, masks: Optional[dict] = None,
                   grad: Optional[MtShlNetwork] = None,
                   encoded: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Gradients of the masked loss, one flat array laid out like ``net.params``.

    Written into ``grad.params`` (every entry overwritten) when `grad` is
    given, else into a fresh array. `encoded`, the :func:`_encode_targets` of
    these rows, stands in for `y` and `defined` (which are then not read);
    :func:`train` encodes its labels once per call that way. The loss itself
    is :func:`mt_loss`; the name stays because the benchmark times the
    ``model.grad`` stage and ``micro.grad_us`` under it.
    """
    akind = net.config.activation
    targets, weights = _encode_targets(net, y, defined) if encoded is None else encoded
    top, trunk_cache, head_caches, dz = _forward(net, np.asarray(x, dtype=float), masks)
    if grad is None:
        grad = MtShlNetwork(np.zeros_like(net.params), net.tasks, net.config, net.feature_dim)
    # the logits become d(loss)/d(logits) in place; a regression output is its logit
    for task, cs in zip(net.tasks, net.cols):
        if task.kind != REGRESSION:
            dz[:, cs] = _activate_output(task, dz[:, cs]).reshape(len(dz), -1)
    dz -= targets
    dz *= weights
    d_top = None
    if net.block is not None:
        (w, _), (gw, gb) = net.block, grad.block
        dzb = dz[:, :gb.size]
        np.matmul(top.T, dzb, out=gw)
        dzb.sum(axis=0, out=gb)
        d_top = dzb @ w.T
    for m, (head, cache) in enumerate(zip(net.heads, head_caches)):
        if cache is None:  # fused
            continue
        (ha, hidden), dzm, (gw, gb) = cache, dz[:, net.cols[m]], grad.heads[m][-1]
        np.matmul(ha.T, dzm, out=gw)
        dzm.sum(axis=0, out=gb)
        da = _hidden_backward(head[:-1], hidden, masks and masks["heads"][m],
                              dzm @ head[-1][0].T, grad.heads[m], akind)
        d_top = da if d_top is None else d_top + da
    _hidden_backward(net.trunk, trunk_cache, masks and masks["trunk"], d_top, grad.trunk, akind)
    return grad.params


# ---------------------------------------------------------------------------
# training


def train(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
          defined: np.ndarray) -> MtShlNetwork:
    """Minibatch SGD on the masked loss with sampled-dropout forward passes.

    Runs exactly config.epochs epochs of seeded shuffles; returns a new
    network, the input is unchanged. Tasks without a single defined cell are
    effectively frozen (their gradients vanish) and a warning is logged.
    Raises FloatingPointError naming the epoch after which a parameter is
    non-finite.
    """
    cfg = net.config
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty labeled set")
    for m, task in enumerate(net.tasks):
        if not defined[:, m].any():
            logger.warning("task %r has no defined labels; its head is frozen", task.name)

    out = net.copy()
    # allocated once per call: loss_and_grads and the update write into them
    grad = MtShlNetwork(np.zeros_like(out.params), out.tasks, cfg, out.feature_dim)
    velocity, step = np.zeros_like(out.params), np.empty_like(out.params)
    targets, weights = _encode_targets(out, y, defined)
    rng = np.random.default_rng(cfg.seed)
    # overflow is expected while diverging; the per-epoch check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            # one gather per epoch; the minibatches are contiguous slices of it
            order = rng.permutation(n)
            xs, ts, ws = x[order], targets[order], weights[order]
            for start in range(0, n, cfg.batch_size):
                rows = slice(start, start + cfg.batch_size)
                masks = sample_dropout_masks(out, len(xs[rows]), rng)
                velocity *= cfg.momentum
                velocity += loss_and_grads(out, xs[rows], None, None, masks, grad=grad,
                                           encoded=(ts[rows], ws[rows]))
                out.params -= np.multiply(cfg.learning_rate, velocity, out=step)
            if not np.isfinite(out.params).all():
                raise FloatingPointError(f"epoch {epoch}: non-finite network parameters")
    return out


# ---------------------------------------------------------------------------
# prediction and confidence


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy along the last axis, with 0 * ln 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


@dataclass
class TaskPredictionBatch:
    """Per-task predictions for a batch of rows (standardized target space)."""

    decoded: np.ndarray  # class indices (int) or regression values (float)
    confidence: np.ndarray  # (B,); higher = more certain, <= 0


def _decode_classification(task: TaskSchema, pbar: np.ndarray) -> np.ndarray:
    if task.kind == "binary":
        return (pbar > 0.5).astype(int)  # p == 0.5 ties to class 0
    return pbar.argmax(axis=1)


def mc_predict(net: MtShlNetwork, x: np.ndarray,
               rng: Optional[np.random.Generator] = None) -> list[TaskPredictionBatch]:
    """Monte-Carlo dropout prediction with per-row confidences.

    Runs config.mc_passes stochastic forward passes drawn from `rng`; with
    `rng` None or dropout 0 it runs one dropout-free pass instead, and the
    confidences come from that point distribution. Classification: mean
    output distribution, confidence is the negated Shannon entropy of that
    mean. Regression: mean output, confidence is the negated unbiased sample
    variance across passes (0 for a single pass).
    """
    x = _as_rows(net, x)
    passes = 1 if rng is None or net.config.dropout == 0.0 else net.config.mc_passes
    results = []
    for task, stack in zip(net.tasks, _predict_passes(net, x, rng, passes)):
        mean = stack.mean(axis=0)  # stack: (T, B) or (T, B, K)
        if task.kind == REGRESSION:
            var = stack.var(axis=0, ddof=1) if passes > 1 else np.zeros(x.shape[0])
            results.append(TaskPredictionBatch(mean, -var))
        else:
            dist = np.stack([1.0 - mean, mean], axis=-1) if task.kind == "binary" else mean
            conf = -shannon_entropy(dist)
            results.append(TaskPredictionBatch(_decode_classification(task, mean), conf))
    return results

