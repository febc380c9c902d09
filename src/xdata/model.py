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
inputs or outputs. One draw (:func:`_draw`) covers every hidden unit of a
batch of B rows: the U hidden units (trunk layers, then each group's hidden
layers; ``MtShlNetwork.spans``) take B*U 16-bit words from one
``rng.bit_generator.random_raw(ceil(B*U/4))`` call, viewed as uint16 (native
byte order), layer-major: layer j's bool keep mask is the next B*W_j words,
reshaped (B, W_j); a group's layer is as wide as its heads' layers together.
The threshold t = min(round(p * 2**32), 2**32 - 1) splits into
hi, lo = divmod(t, 2**16). A unit is kept iff its word is > hi; a unit whose
word equals hi (a tie, about 1 in 65536) takes one more 16-bit word, all ties
of the draw from one further random_raw call in flat layer-major order (none
without a tie), and is kept iff that word is >= lo. So a unit is kept iff its
32-bit (word, tie word) is >= t, and P(keep) = 1 - t/2**32 exactly, within
2**-33 of 1 - p, independently of every other unit; the clamp stops a p just
below 1 from wrapping t to 0, which would keep every unit. p = 0 draws
nothing. Prediction makes one draw per pass. Training makes one draw of the
N*U units of an epoch's N rows after its shuffle, and the minibatch of rows
s..s+B of that order takes the units s*U..(s+B)*U as its own draw of B rows.
Prediction applies its bool mask as (h * keep) * scale with scale = 1/(1-p);
training pre-scales each step's mask once to keep * scale, so that its forward
and backward each take one float multiply, h * (keep * scale), which is equal
as both factors are exact. Prediction's first trunk layer is the one
exception (below). Uncertainty is estimated by repeated stochastic
forward passes: classification confidence is the negated Shannon entropy of
the mean output distribution, regression confidence the negated sample
variance of the outputs.

Prediction (:func:`forward`, :func:`mc_predict`) runs all passes of one call
through one function, separate from the training forward, which keeps each
layer's activation for backprop. It computes the first trunk layer's
activation once per call (dropout never touches the inputs) and, when the
passes draw masks, scales it once: each pass then masks it with one
multiply, as (h * scale) * keep equals (h * keep) * scale for keep in {0, 1},
signed zeros included. It makes each pass's draw into one reused bool buffer,
works in place in per-layer buffers and writes into one preallocated
(passes, B) or (passes, B, K) array per task. Training and prediction both
write the (B, sum K) logits column-major, so that a task's softmax reduces
over contiguous columns and both sum a row in the same order. Apart from that
reordered mask, its float operations are those of the training forward, so
its outputs are byte-identical to stacking per-pass training outputs (the
tests' reference).

All computation is float64 numpy, the output activations included (the
max-shifted softmax and log-softmax and the sigmoid below); training is plain
minibatch SGD (optional momentum) and fully deterministic in (config, seed, data).
It encodes the labels once per :func:`train` call into a target and a weight
matrix in the logits' column order and gathers them with the inputs once per
epoch; each step's output gradient is then (activated logits - targets) *
weights on its contiguous rows. It allocates each step's arrays once per call
(:class:`_Buffers`, for the full batch and for a ragged last one), so a step
allocates nothing, and its backward pass stops at the first trunk layer's
weight gradient.
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
        if self.seed < 0:
            raise ValueError("net.seed must be >= 0")


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
    """(trunk, groups, heads, cols): the views into `flat` for the :func:`_layout`
    shapes, and each task's slice of the logits' columns."""
    offset, start = 0, 0
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
            w, b = take(*shape)
            for m, (rows, cs) in zip(members, blocks):
                heads[m].append((w[rows, cs], b[cs]))
            group.append((w, b))
        for m, (_, cs) in zip(members, layers[-1][1]):
            cols[m] = slice(start + cs.start, start + cs.stop)
        groups.append((tuple(group), slice(start, start + b.size)))
        start += b.size
    if offset != flat.size:
        raise ValueError(f"expected {offset} parameters, got {flat.size}")
    return trunk, tuple(groups), tuple(map(tuple, heads)), tuple(cols)


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
    shapes: tuple = field(init=False, repr=False)  # the _layout of the views

    def __post_init__(self):
        self.shapes = _layout(self.config, self.feature_dim, self.tasks)
        self.trunk, self.groups, self.heads, self.cols = _layer_views(
            self.params, *self.shapes, len(self.tasks))
        # the structural zeros are the entries outside every trunk layer and head
        covered = np.zeros(self.params.size, dtype=bool)
        trunk, _, heads, _ = _layer_views(covered, *self.shapes, len(self.tasks))
        for w, b in (*trunk, *(layer for head in heads for layer in head)):
            w[...] = b[...] = True
        self.zeros = np.flatnonzero(~covered)
        hidden = (*self.trunk, *(layer for layers, _ in self.groups for layer in layers[:-1]))
        ends = list(accumulate((w.shape[1] for w, _ in hidden), initial=0))
        self.spans, self.units = tuple(zip(ends, ends[1:])), ends[-1]

    def like(self, params: np.ndarray) -> "MtShlNetwork":
        """A network of this one's layout over `params`: its zeros, cols and
        spans are shared, only the views are sliced anew."""
        net = object.__new__(MtShlNetwork)
        net.__dict__.update(self.__dict__, params=params, tasks=list(self.tasks))
        net.trunk, net.groups, net.heads, _ = _layer_views(params, *self.shapes, len(self.tasks))
        return net

    def copy(self) -> "MtShlNetwork":
        return self.like(self.params.copy())


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


def _words(rng: np.random.Generator, n: int) -> np.ndarray:
    """The next n 16-bit words of `rng`: one random_raw call of ceil(n/4) 64-bit
    words, viewed as uint16 (native byte order)."""
    return rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]


def _threshold(p: float) -> tuple[np.uint16, np.uint16]:
    """(hi, lo) of the dropout threshold t = min(round(p * 2**32), 2**32 - 1)."""
    return tuple(map(np.uint16, divmod(min(round(p * 2**32), 2**32 - 1), 2**16)))


def _draw(rng: np.random.Generator, n: int, hi, lo, keep=None) -> np.ndarray:
    """One dropout draw (module docstring) of n units into the bool buffer
    keep[:n] (a fresh array if `keep` is None), which it returns: unit i is
    kept iff (word i, its tie word) >= (hi, lo)."""
    words = _words(rng, n)
    keep = np.empty(n, dtype=bool) if keep is None else keep[:n]
    ties = np.flatnonzero(np.equal(words, hi, out=keep))
    np.greater(words, hi, out=keep)
    if ties.size:
        keep[ties] = _words(rng, ties.size) >= lo
    return keep


def _layer_masks(keep: np.ndarray, rows: int, spans) -> list[np.ndarray]:
    """Each hidden layer's (rows, W) view of the draw `keep`, layer-major."""
    return [keep[rows * a:rows * b].reshape(rows, b - a) for a, b in spans]


def sample_dropout_masks(net: MtShlNetwork, batch: int,
                         rng: np.random.Generator) -> Optional[list[np.ndarray]]:
    """The bool keep masks of one dropout draw for a batch, one (batch, W) per
    hidden layer (trunk layers, then each group's), or None if p = 0."""
    if net.config.dropout == 0.0:
        return None
    keep = _draw(rng, batch * net.units, *_threshold(net.config.dropout))
    return _layer_masks(keep, batch, net.spans)


def _scaled(net: MtShlNetwork, masks: Optional[list]) -> Optional[list]:
    """`masks` in the training form keep * scale, scale = 1/(1-p): bool masks
    are converted, float ones are taken to be in that form already."""
    if not masks or masks[0].dtype != bool:
        return masks
    scale = 1.0 / (1.0 - net.config.dropout)
    return [np.multiply(keep, scale) for keep in masks]


class _Buffers:
    """The arrays of one training step of `rows` rows, so that a step
    allocates none: per hidden layer (trunk layers, then each group's) its
    activation `h`, masked output `a`, gradient `d` at its masked output and
    derivative scratch `t`; the (rows, sum K) logits `z` (column-major) and
    their gradient `dz` (row-major), each also sliced per group and per task;
    and `top`, a later group's share of the trunk output's gradient."""

    def __init__(self, net: MtShlNetwork, rows: int):
        widths = [b - a for a, b in net.spans]
        tanh = net.config.activation == "tanh"
        self.h = [np.empty((rows, w)) for w in widths]
        self.a = [np.empty((rows, w)) for w in widths]
        self.d = [np.empty((rows, w)) for w in widths]
        self.t = [np.empty((rows, w), dtype=float if tanh else bool) for w in widths]
        self.z = _logits(net, rows)
        self.dz = np.empty(self.z.shape)
        self.z_groups = [self.z[:, cs] for _, cs in net.groups]
        self.dz_groups = [self.dz[:, cs] for _, cs in net.groups]
        self.z_tasks = [self.z[:, cs] for cs in net.cols]
        self.top = (np.empty((rows, net.trunk[-1][0].shape[1]))
                    if net.trunk and len(net.groups) > 1 else None)


def _hidden_forward(layers, a: np.ndarray, j: int, masks, buf: _Buffers, akind: str):
    """Pass `a` through hidden layers j, j+1, ... (`layers`) into `buf`, each
    masked by its mask if `masks` is not None; returns the last output."""
    for layer in layers:
        h = _act(_dense(a, layer, buf.h[j]), akind)
        a = h if masks is None else np.multiply(h, masks[j], out=buf.a[j])
        j += 1
    return a


def _forward(net: MtShlNetwork, x: np.ndarray, masks: Optional[list],
             buf: Optional[_Buffers] = None):
    """The training forward of the batch `x` into `buf` (fresh buffers if None)
    under `masks` (bool or pre-scaled, :func:`_scaled`): (buf, z), z the
    (B, sum K) logits, ``buf.z``."""
    akind, masks = net.config.activation, _scaled(net, masks)
    buf = _Buffers(net, len(x)) if buf is None else buf
    top = _hidden_forward(net.trunk, x, 0, masks, buf, akind)
    j = len(net.trunk)
    for (layers, _), z in zip(net.groups, buf.z_groups):
        _dense(_hidden_forward(layers[:-1], top, j, masks, buf, akind), layers[-1], z)
        j += len(layers) - 1
    return buf, buf.z


def _logits(net: MtShlNetwork, rows: int) -> np.ndarray:
    """An empty (rows, sum K) logits array, column-major so that the row
    reductions of a task's softmax run over contiguous columns."""
    return np.empty((rows, net.groups[-1][1].stop), order="F")


def _softmax(z: np.ndarray) -> np.ndarray:
    """The softmax of each row of `z`, in place."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), in place."""
    # exp(-z) overflows to inf for very negative z, and the result is then exactly 0
    with np.errstate(over="ignore"):
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)


def _activate_output(task: TaskSchema, z: np.ndarray) -> np.ndarray:
    """Logits -> probabilities (classification) or identity (regression), in
    place in the (B, K) logits `z`: the (B, K) distribution for multiclass,
    else z's (B,) column."""
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
    (passes, B) or (passes, B, K) array per task, each pass's (B, K) block
    column-major.

    Dropout-free when `rng` is None or p = 0, else every pass makes the draw
    of :func:`sample_dropout_masks`. Computes what :func:`_forward` does,
    to the bit, in buffers reused across passes.
    """
    p = net.config.dropout
    akind, rows, scale = net.config.activation, x.shape[0], 1.0 / (1.0 - p)
    keep = np.empty(rows * net.units, dtype=bool) if rng is not None and p > 0.0 else None
    hi, lo = _threshold(p)

    def hidden(a, layers, bufs, kept):
        for layer, buf in zip(layers, bufs):
            a = _drop(_act(_dense(a, layer, buf), akind), next(kept, None), scale, buf)
        return a

    trunk_bufs = [np.empty((rows, w.shape[1])) for w, _ in net.trunk]
    group_bufs = [[np.empty((rows, w.shape[1])) for w, _ in layers[:-1]]
                  for layers, _ in net.groups]
    z = _logits(net, rows)
    # dropout never touches the inputs, so the first trunk layer's activation
    # is the same in every pass, and with a draw it is scaled once here
    first = _act(_dense(x, net.trunk[0], np.empty_like(trunk_bufs[0])), akind) if net.trunk else x
    masked = bool(net.trunk) and keep is not None
    if masked:
        first *= scale
    # a pass's (B, K) block column-major, as np.stack of the training outputs
    # lays it out, so that the entropy of the mean sums over K in their order
    outs = [np.empty((passes, head_output_size(t), rows)).transpose(0, 2, 1)
            if t.kind == "multiclass" else np.empty((passes, rows)) for t in net.tasks]
    for t in range(passes):
        kept = iter(() if keep is None else _layer_masks(
            _draw(rng, keep.size, hi, lo, keep), rows, net.spans))
        top = np.multiply(first, next(kept), out=trunk_bufs[0]) if masked else first
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


def _hidden_backward(layers, grads, a: np.ndarray, j: int, masks, buf: _Buffers,
                     akind: str) -> np.ndarray:
    """Backpropagate through hidden layers j, j+1, ... (`layers`, the first
    reading `a`), ``buf.d`` of the last holding the gradient at its masked
    output: writes each layer's (W, b) gradient into the views `grads` and
    returns the gradient at the first layer's pre-activation."""
    outs = buf.h if masks is None else buf.a
    for i in range(len(layers) - 1, -1, -1):
        d, h, t = buf.d[j + i], buf.h[j + i], buf.t[j + i]
        if akind == "tanh":  # the derivative from the activation itself
            np.subtract(1.0, np.multiply(h, h, out=t), out=t)
        else:  # a > 0 iff z > 0
            np.greater(h, 0, out=t)
        d *= t
        if masks is not None:
            d *= masks[j + i]
        np.matmul((outs[j + i - 1] if i else a).T, d, out=grads[i][0])
        d.sum(axis=0, out=grads[i][1])
        if i:
            np.matmul(d, layers[i][0].T, out=buf.d[j + i - 1])
    return d


def loss_and_grads(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
                   defined: np.ndarray, masks: Optional[list] = None,
                   grad: Optional[MtShlNetwork] = None,
                   encoded: Optional[tuple[np.ndarray, np.ndarray]] = None,
                   buf: Optional[_Buffers] = None) -> np.ndarray:
    """Gradients of the masked loss, one flat array laid out like ``net.params``.

    Written into ``grad.params`` (every entry overwritten) when `grad` is
    given, else into a fresh array; the structural zeros get exactly 0.0.
    `masks` are bool (:func:`sample_dropout_masks`) or pre-scaled
    (:func:`_scaled`). `encoded`, the :func:`_encode_targets` of these rows,
    stands in for `y` and `defined` (which are then not read), and `buf`,
    :class:`_Buffers` of len(x) rows, holds the step's arrays; :func:`train`
    encodes its labels and allocates its buffers once per call that way. The
    loss itself is :func:`mt_loss`; the name stays because the benchmark times
    the ``model.grad`` stage and ``micro.grad_us`` under it.
    """
    akind, masks = net.config.activation, _scaled(net, masks)
    targets, weights = _encode_targets(net, y, defined) if encoded is None else encoded
    x = np.asarray(x, dtype=float)
    buf, z = _forward(net, x, masks, buf)
    if grad is None:
        grad = net.like(np.zeros_like(net.params))
    # the logits are activated in place (a regression output is its logit);
    # d(loss)/d(logits) is row-major, so each bias gradient sums its rows in order
    for task, z_task in zip(net.tasks, buf.z_tasks):
        _activate_output(task, z_task)
    np.subtract(z, targets, out=buf.dz)
    buf.dz *= weights
    n_trunk, outs = len(net.trunk), buf.h if masks is None else buf.a
    top, j = outs[n_trunk - 1] if n_trunk else x, n_trunk
    for k, ((layers, _), (grads, _), d) in enumerate(zip(net.groups, grad.groups,
                                                         buf.dz_groups)):
        hidden = len(layers) - 1
        np.matmul((outs[j + hidden - 1] if hidden else top).T, d, out=grads[-1][0])
        d.sum(axis=0, out=grads[-1][1])
        if hidden:
            np.matmul(d, layers[-1][0].T, out=buf.d[j + hidden - 1])
            d = _hidden_backward(layers[:-1], grads[:-1], top, j, masks, buf, akind)
        if n_trunk:  # the trunk output's gradient: each group's share, in group order
            if k == 0:
                np.matmul(d, layers[0][0].T, out=buf.d[n_trunk - 1])
            else:
                buf.d[n_trunk - 1] += np.matmul(d, layers[0][0].T, out=buf.top)
        j += hidden
    if n_trunk:  # stops at the first layer's weight gradient: x needs none
        _hidden_backward(net.trunk, grad.trunk, x, 0, masks, buf, akind)
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
    grad = out.like(np.zeros_like(out.params))
    velocity, step = np.zeros_like(out.params), np.empty_like(out.params)
    starts = range(0, n, cfg.batch_size)
    rows = [min(cfg.batch_size, n - start) for start in starts]
    bufs = {b: _Buffers(out, b) for b in set(rows)}  # the full batch and a ragged last one
    units, (hi, lo), scale = out.units, _threshold(cfg.dropout), 1.0 / (1.0 - cfg.dropout)
    # an epoch's draw, and a step's mask pre-scaled (keep * scale)
    keep, scaled = np.empty(n * units, dtype=bool), np.empty(rows[0] * units)
    targets, weights = _encode_targets(out, y, defined)
    rng = np.random.default_rng(cfg.seed)
    # overflow is expected while diverging; the per-epoch check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            # one gather per epoch; the minibatches are contiguous slices of it
            order = rng.permutation(n)
            xs, ts, ws = x[order], targets[order], weights[order]
            if cfg.dropout > 0.0:  # one draw for the epoch; a minibatch takes its rows' units
                _draw(rng, n * units, hi, lo, keep)
            for start, b in zip(starts, rows):
                batch = slice(start, start + b)
                masks = None if cfg.dropout == 0.0 else _layer_masks(np.multiply(
                    keep[start * units:(start + b) * units], scale, out=scaled[:b * units]),
                    b, out.spans)
                velocity *= cfg.momentum
                velocity += loss_and_grads(out, xs[batch], None, None, masks, grad=grad,
                                           encoded=(ts[batch], ws[batch]), buf=bufs[b])
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

