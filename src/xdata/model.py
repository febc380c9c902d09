"""Multi-task shared-hidden-layer feedforward network.

A shared trunk feeds one head per task; heads end in a single sigmoid unit
(binary), a softmax layer (multiclass), or a single linear unit (regression).
The training loss is the sum of per-task losses over *defined* label cells
only; undefined cells contribute exactly zero to loss and gradients.

Layout: after the trunk, the heads are grouped by depth (number of hidden
layers), groups in ascending depth and heads in task order within a group.
A group is one stack of layers: its first layer holds its heads' first layers
side by side (they all read the trunk output), and every later layer, the
output layer included, is block-diagonal, head j's layer in the j-th diagonal
block. Heads without hidden layers form the depth-0 group, one (H, sum K)
layer. One flat float64 array, ``MtShlNetwork.params``, holds the trunk's
layers, then each group's, each layer its row-major (in_dim x out_dim)
weights then its bias. The off-diagonal entries of block-diagonal layers are
stored (``zeros`` holds their flat indices) and stay exactly 0.0, because
:func:`loss_and_grads` zeroes their gradient. ``trunk`` and ``groups`` are
views into ``params``; ``heads[m]`` is task m's layers as views into its
group's (write through them, ``w[...] = ...``) and ``cols[m]`` its slice of
the logits' columns. Gradients share the layout, so an SGD step is one vector
operation. Initial weights are drawn per layer in the order trunk, then each
head's layers in task order, whatever the layout.

Dropout is inverted, applied to hidden units of trunk and heads, never to
inputs or outputs. One draw covers every hidden unit of a batch of B rows: the
U hidden units (trunk layers, then each group's hidden layers;
``MtShlNetwork.spans``) take B*U 32-bit words from one
``rng.bit_generator.random_raw(ceil(B*U/2))`` call, viewed as uint32 (native
byte order), layer-major: layer j's bool keep mask is the next B*W_j words,
reshaped (B, W_j); a group's layer is as wide as its heads' layers together.
A unit is kept iff its word is >= t = min(round(p * 2**32), 2**32 - 1), so
P(keep) is within 2**-33 of 1 - p; the clamp stops a p just below 1 from
wrapping t to 0, which would keep every unit. p = 0 draws nothing. Training
and prediction apply a mask as (h * keep) * scale with scale = 1/(1-p), which
equals h * (keep * scale) as both factors are exact. Uncertainty is estimated
by repeated stochastic forward passes: classification confidence is the
negated Shannon entropy of the mean output distribution, regression
confidence the negated sample variance of the outputs.

Prediction (:func:`forward`, :func:`mc_predict`) runs all passes of one call
through one function, separate from the training forward, which keeps caches
for backprop. It computes the first trunk layer's activation once per call
(dropout never touches the inputs), makes each pass's draw into one reused
bool buffer, works in place in per-layer buffers and writes into one
preallocated (passes, B) or (passes, B, K) array per task. Its float
operations are those of the training forward, so its outputs are
byte-identical to stacking per-pass training outputs (the tests' reference).

All computation is float64 numpy, the output activations included (the
max-shifted softmax and log-softmax and the sigmoid below); training is plain
minibatch SGD (optional momentum) and fully deterministic in (config, seed, data).
It encodes the labels once per :func:`train` call into a target and a weight
matrix in the logits' column order and gathers them with the inputs once per
epoch; each step's output gradient is then (activated logits - targets) *
weights on its contiguous rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
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
        for key in ("epochs", "learning_rate", "batch_size"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"net.{key} must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("net.momentum must be in [0, 1)")
        if self.mc_passes < 1:
            raise ValueError("net.mc_passes must be >= 1")
        if self.dropout > 0 and self.mc_passes < 2:
            raise ValueError("net.mc_passes must be >= 2 when net.dropout > 0")


Layer = tuple[np.ndarray, np.ndarray]  # (weights in_dim x out_dim, bias out_dim)


def head_output_size(task: TaskSchema) -> int:
    if task.kind == "multiclass":
        return task.num_classes
    return 1  # binary sigmoid unit or regression scalar


def _layout(config: NetworkConfig, feature_dim: int, tasks: list[TaskSchema]):
    """(trunk, groups) as in the module docstring: (n_in, n_out) of each trunk
    layer, and per group its task indices and, per layer, the layer's
    (n_in, n_out) and each member head's (rows, cols) slice of its weights."""
    sizes = [feature_dim, *config.shared_layers]
    heads = [[sizes[-1], *config.head_layers.get(t.name, ()), head_output_size(t)]
             for t in tasks]
    groups = []
    for size in sorted({len(head) for head in heads}):
        members = [m for m, head in enumerate(heads) if len(head) == size]
        layers, rows = [], [slice(None)] * len(members)  # a first layer reads all of the trunk
        for i in range(1, size):
            ends = list(accumulate(heads[m][i] for m in members))
            cols = [slice(end - heads[m][i], end) for m, end in zip(members, ends)]
            n_in = layers[-1][0][1] if layers else sizes[-1]
            layers.append(((n_in, ends[-1]), list(zip(rows, cols))))
            rows = cols
        groups.append((members, layers))
    return list(zip(sizes, sizes[1:])), groups


def _layer_views(flat: np.ndarray, trunk_shapes, group_shapes, n_tasks: int):
    """(trunk, groups, heads, cols, zeros): the views into `flat` and the flat
    indices of its structural zeros, for the :func:`_layout` shapes."""
    offset, zeros, start = 0, [], 0
    heads, cols, groups = [[] for _ in range(n_tasks)], [None] * n_tasks, []

    def take(n_in, n_out):
        nonlocal offset
        end = offset + n_in * n_out
        layer = flat[offset:end].reshape(n_in, n_out), flat[end:end + n_out]
        offset = end + n_out
        return layer

    trunk = tuple(take(*shape) for shape in trunk_shapes)
    for members, layers in group_shapes:
        group = []
        for shape, blocks in layers:
            base, structural = offset, np.ones(shape, dtype=bool)
            w, b = take(*shape)
            for m, (rows, cs) in zip(members, blocks):
                heads[m].append((w[rows, cs], b[cs]))
                structural[rows, cs] = False
            zeros.append(base + np.flatnonzero(structural))
            group.append((w, b))
        for m, (_, cs) in zip(members, layers[-1][1]):
            cols[m] = slice(start + cs.start, start + cs.stop)
        groups.append((tuple(group), slice(start, start + b.size)))
        start += b.size
    if offset != flat.size:
        raise ValueError(f"expected {offset} parameters, got {flat.size}")
    return trunk, tuple(groups), tuple(map(tuple, heads)), tuple(cols), np.concatenate(zeros)


@dataclass
class MtShlNetwork:
    params: np.ndarray  # every weight and bias, laid out as in the module docstring
    tasks: list[TaskSchema]
    config: NetworkConfig
    feature_dim: int
    trunk: tuple[Layer, ...] = field(init=False, repr=False)  # views into params
    # per group (ascending depth): its layers (last: output) and logits' columns
    groups: tuple[tuple[tuple[Layer, ...], slice], ...] = field(init=False, repr=False)
    heads: tuple[tuple[Layer, ...], ...] = field(init=False, repr=False)  # last: output
    cols: tuple[slice, ...] = field(init=False, repr=False)  # per task, of the logits
    zeros: np.ndarray = field(init=False, repr=False)  # indices of structural zeros
    # (lo, hi) hidden-unit span of each hidden layer in a dropout draw (trunk
    # layers, then each group's); `units` in all
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    units: int = field(init=False, repr=False)

    def __post_init__(self):
        self.trunk, self.groups, self.heads, self.cols, self.zeros = _layer_views(
            self.params, *_layout(self.config, self.feature_dim, self.tasks), len(self.tasks))
        hidden = (*self.trunk, *(layer for layers, _ in self.groups for layer in layers[:-1]))
        ends = list(accumulate((w.shape[1] for w, _ in hidden), initial=0))
        self.spans, self.units = tuple(zip(ends, ends[1:])), ends[-1]

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
    trunk, groups = _layout(config, feature_dim, tasks)
    shapes = [*trunk, *(shape for _, layers in groups for shape, _ in layers)]
    net = MtShlNetwork(np.zeros(sum((n_in + 1) * n_out for n_in, n_out in shapes)),
                       list(tasks), config, feature_dim)
    rng = np.random.default_rng(config.seed)
    # drawn per layer in the order trunk, then each head's layers, whatever the layout
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


def _dense(a: np.ndarray, layer: Layer, out: np.ndarray) -> np.ndarray:
    """out = a @ w + b, in place."""
    np.matmul(a, layer[0], out=out)
    out += layer[1]
    return out


def _drop(h: np.ndarray, keep: Optional[np.ndarray], scale: float, out=None) -> np.ndarray:
    """Inverted dropout (h * keep) * scale, into `out` if given; `h` if keep is None."""
    if keep is None:
        return h
    out = np.multiply(h, keep, out=out)
    out *= scale
    return out


def _draw(net: MtShlNetwork, rng: np.random.Generator, keep: np.ndarray,
          rows: int) -> list[np.ndarray]:
    """One dropout draw (module docstring) of `rows` rows into the flat bool
    buffer `keep`: word i of one random_raw call is kept iff >= the threshold.
    Returns each hidden layer's (rows, W) view of it."""
    words = rng.bit_generator.random_raw((keep.size + 1) // 2).view(np.uint32)
    threshold = np.uint32(min(round(net.config.dropout * 2**32), 2**32 - 1))
    np.greater_equal(words[:keep.size], threshold, out=keep)
    return [keep[rows * lo:rows * hi].reshape(rows, hi - lo) for lo, hi in net.spans]


def sample_dropout_masks(net: MtShlNetwork, batch: int, rng: np.random.Generator,
                         keep: Optional[np.ndarray] = None) -> Optional[list[np.ndarray]]:
    """The bool keep masks of one dropout draw for a batch, one (batch, W) per
    hidden layer (trunk layers, then each group's), or None if p = 0. `keep`,
    a bool buffer of at least batch * net.units entries, holds the draw (a
    prefix of it) instead of a fresh array."""
    if net.config.dropout == 0.0:
        return None
    n = batch * net.units
    return _draw(net, rng, np.empty(n, dtype=bool) if keep is None else keep[:n], batch)


def _hidden_forward(layers, a: np.ndarray, keeps, akind: str, scale: float):
    """Pass `a` through hidden layers, each masked by the next mask of the
    iterator `keeps` (none once it is exhausted); returns the output and one
    cache entry (input, activation before the mask, mask) per layer."""
    cache = []
    for w, b in layers:
        h = _act(a @ w + b, akind)
        keep = next(keeps, None)
        cache.append((a, h, keep))
        a = _drop(h, keep, scale)
    return a, cache


def _forward(net: MtShlNetwork, x: np.ndarray, masks: Optional[list]):
    """Full forward pass with caches for backprop: (caches, z), the
    :func:`_hidden_forward` cache of the trunk and of each group (ending in its
    output layer's (input, None, None)), and the (B, sum K) logits."""
    akind, scale = net.config.activation, 1.0 / (1.0 - net.config.dropout)
    keeps = iter(masks or ())  # in draw order: the trunk's layers, then each group's
    top, trunk_cache = _hidden_forward(net.trunk, x, keeps, akind, scale)
    caches, z = [trunk_cache], np.empty((len(x), net.groups[-1][1].stop))
    for layers, cs in net.groups:
        a, cache = _hidden_forward(layers[:-1], top, keeps, akind, scale)
        _dense(a, layers[-1], z[:, cs])
        caches.append([*cache, (a, None, None)])
    return caches, z


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

    Dropout-free when `rng` is None or p = 0, else every pass makes the draw
    of :func:`sample_dropout_masks`. Computes what :func:`_forward` does with
    the same float operations, in buffers reused across passes.
    """
    p = net.config.dropout
    akind, rows, scale = net.config.activation, x.shape[0], 1.0 / (1.0 - p)
    keep = np.empty(rows * net.units, dtype=bool) if rng is not None and p > 0.0 else None

    def hidden(a, layers, bufs, kept):
        for layer, buf in zip(layers, bufs):
            a = _drop(_act(_dense(a, layer, buf), akind), next(kept, None), scale, buf)
        return a

    trunk_bufs = [np.empty((rows, w.shape[1])) for w, _ in net.trunk]
    group_bufs = [[np.empty((rows, w.shape[1])) for w, _ in layers[:-1]]
                  for layers, _ in net.groups]
    z = np.empty((rows, net.groups[-1][1].stop))
    # dropout never touches the inputs, so the first trunk layer's activation
    # is the same in every pass
    first = _act(_dense(x, net.trunk[0], np.empty_like(trunk_bufs[0])), akind) if net.trunk else x
    outs = [np.empty((passes, rows, head_output_size(t)) if t.kind == "multiclass"
                     else (passes, rows)) for t in net.tasks]
    for t in range(passes):
        kept = iter(() if keep is None else _draw(net, rng, keep, rows))
        top = _drop(first, next(kept, None), scale, trunk_bufs[0]) if net.trunk else x
        top = hidden(top, net.trunk[1:], trunk_bufs[1:], kept)
        for (layers, cs), bufs in zip(net.groups, group_bufs):
            _dense(hidden(top, layers[:-1], bufs, kept), layers[-1], z[:, cs])
        for task, cs, out in zip(net.tasks, net.cols, outs):
            out[t] = _activate_output(task, z[:, cs])
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
    width = net.groups[-1][1].stop
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
            masks: Optional[list] = None) -> float:
    """Masked multi-task loss: sum over defined cells of the per-task loss."""
    z = _forward(net, np.asarray(x, dtype=float), masks)[-1]
    total = 0.0
    for m, task in enumerate(net.tasks):
        sel = defined[:, m]
        if sel.any():
            losses = _cell_losses(task, z[:, net.cols[m]], np.where(sel, y[:, m], 0.0))
            total += float(losses[sel].sum())
    return total


def _backward(layers, cache: list, d: np.ndarray, grads, akind: str,
              scale: float) -> np.ndarray:
    """Backpropagate `d`, the gradient at the last layer's (masked) output,
    through `layers` and their :func:`_forward` cache, writing each layer's
    (W, b) gradient into the views `grads`; returns the gradient at the first
    layer's input."""
    for (w, _), (a_in, h, keep), (gw, gb) in zip(reversed(layers), reversed(cache),
                                                 reversed(grads)):
        if h is not None:  # hidden: fold the activation and the mask into d
            d = d * _dact(h, akind)
            _drop(d, keep, scale, out=d)
        np.matmul(a_in.T, d, out=gw)
        d.sum(axis=0, out=gb)
        d = d @ w.T
    return d


def loss_and_grads(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
                   defined: np.ndarray, masks: Optional[list] = None,
                   grad: Optional[MtShlNetwork] = None,
                   encoded: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Gradients of the masked loss, one flat array laid out like ``net.params``.

    Written into ``grad.params`` (every entry overwritten) when `grad` is
    given, else into a fresh array; the structural zeros get exactly 0.0.
    `encoded`, the :func:`_encode_targets` of these rows, stands in for `y`
    and `defined` (which are then not read); :func:`train` encodes its labels
    once per call that way. The loss itself is :func:`mt_loss`; the name
    stays because the benchmark times the ``model.grad`` stage and
    ``micro.grad_us`` under it.
    """
    akind, scale = net.config.activation, 1.0 / (1.0 - net.config.dropout)
    targets, weights = _encode_targets(net, y, defined) if encoded is None else encoded
    caches, dz = _forward(net, np.asarray(x, dtype=float), masks)
    if grad is None:
        grad = MtShlNetwork(np.zeros_like(net.params), net.tasks, net.config, net.feature_dim)
    # the logits become d(loss)/d(logits) in place; a regression output is its logit
    for task, cs in zip(net.tasks, net.cols):
        if task.kind != REGRESSION:
            dz[:, cs] = _activate_output(task, dz[:, cs]).reshape(len(dz), -1)
    dz -= targets
    dz *= weights
    d_top = None
    for (layers, cs), (grads, _), cache in zip(net.groups, grad.groups, caches[1:]):
        d = _backward(layers, cache, dz[:, cs], grads, akind, scale)
        d_top = d if d_top is None else d_top + d
    _backward(net.trunk, caches[0], d_top, grad.trunk, akind, scale)
    grad.params[net.zeros] = 0.0
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
    keep = np.empty(cfg.batch_size * out.units, dtype=bool)  # each step's dropout draw
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
                masks = sample_dropout_masks(out, len(xs[rows]), rng, keep)
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

