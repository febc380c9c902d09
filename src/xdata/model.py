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
the logits' columns. As a layer's bias follows its weights, ``stacked`` views
each trunk and group layer as one (in_dim + 1, out_dim) array [W; b].
Gradients share the layout, so an SGD step is one vector operation. Initial
weights are drawn per layer in the order trunk, then each head's layers in
task order, whatever the layout.

Dropout is inverted, applied to hidden units of trunk and heads, never to
inputs or outputs. One draw (:func:`_draw`) covers every hidden unit of a
batch of B rows: the U hidden units (trunk layers, then each group's hidden
layers; ``MtShlNetwork.spans``) take the B*U 16-bit words of
``rng.bit_generator.random_raw(ceil(B*U/4))``, viewed as uint16 (native
byte order), layer-major: layer j's bool keep mask is the next B*W_j words,
reshaped (B, W_j); a group's layer is as wide as its heads' layers together.
The draw reads those words in pieces of a fixed number of 64-bit words
(``_PIECE``), one random_raw call each, which yield the words of the one call
and leave the generator where it leaves it; it writes each piece's units and
notes its ties before it reads the next, so that it holds one piece's words,
however many units it draws.
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
signed zeros included. The passes run on one or two worker threads, two
where a second CPU is usable and BLAS is held at one thread (the CLI holds it
there; :func:`one_blas_thread`). A worker takes the next pass and makes its
draw under one lock, so that pass t makes the t-th draw whatever the thread
and the outputs do not depend on the number of workers. It makes each draw
into its own reused bool buffer and computes the pass in row blocks of at most
4096 rows, in place in per-layer buffers of its own. A task's outputs go into
running moments over the passes: block i of pass t is added once block i of
pass t - 1 is (a pass count per block under one condition variable), so they
are made in pass order. Each task has a (B,) or (B, K) running sum, pass 0
copied, which sums the passes as ``stack.mean(axis=0)`` sums a stack of them;
a regression task also has Welford's running mean and sum of squared
deviations m2, from which :func:`mc_predict` takes the variance
m2 / (passes - 1). A worker whose outputs are not yet due copies them into a
spare buffer of a block's size and goes on to its next pass, holding at most
one block's outputs; it waits only to add those before it would hold another.
So no buffer of a call grows with the number of passes. The one exception is
a call over one row: a binary or regression task keeps its (passes, 1) stack,
as numpy reduces that stack pairwise, not in pass order, and its variance
takes the same Welford update over the stack's rows in order. Training and
prediction both write the (B, sum K) logits column-major, so that a task's
softmax reduces over contiguous columns and both sum a row in the same
order. Apart from that reordered mask, its float operations are those of
:func:`_forward`, so its outputs are byte-identical to stacking per-pass
training outputs (the tests' reference).

All computation is float64 numpy, the output activations included (the
max-shifted softmax and log-softmax and the sigmoid below); training is plain
minibatch SGD (optional momentum) and fully deterministic in (config, seed, data).
It encodes the labels once per :func:`train` call into a target and a weight
matrix in the logits' column order and gathers them with the inputs once per
epoch, the inputs into an array whose last column is 1.0; each step's output
gradient is then (activated logits - targets) * weights on its contiguous
rows. Each hidden layer writes its masked output into an array that also ends
in a ones column, so a training step computes every layer, forward and
backward, as one GEMM over the layer's [W; b]: z = [a, 1] @ [W; b], and
[a, 1].T @ d into the gradient's [gW; gb] view, whose ones row, the bias
gradient, sums d's rows in order as a row sum did. Prediction, and the
training forward without a ones column (:func:`_forward`, the tests'
reference for it), compute a @ W then + b: a prediction pass would have to
write each masked layer into a strided ones-column array, which costs more
than the bias add. The two forms agree to the bit on the layer shapes of the
perfbench workloads at up to 64 rows, not on every shape (an output width of
1 or 4 often differs in the last bit). A :func:`train` call allocates each
step's arrays (:class:`_Buffers`, for the full batch and for a ragged last
one) and binds each step's views (its rows of the gather, its units of the
draw, its buffers, every layer's [W; b], W.T and [gW; gb]) once, so a step
allocates nothing; its backward pass stops at the first trunk layer's
gradient. Without momentum the update is params -= lr * grad, with no
velocity, and the structural zeros' gradient is zeroed only in a layout that
has them.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
from contextlib import contextmanager
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


def _param_count(trunk_shapes, group_shapes) -> int:
    """The size of ``params`` for the :func:`_layout` shapes."""
    shapes = [*trunk_shapes, *(shape for _, layers in group_shapes for shape, _ in layers)]
    return sum((n_in + 1) * n_out for n_in, n_out in shapes)


def _layer_views(flat: np.ndarray, trunk_shapes, group_shapes, n_tasks: int):
    """(trunk, groups, heads, cols, stacked): the views into `flat` for the
    :func:`_layout` shapes, each task's slice of the logits' columns, and the
    [W; b] of each trunk layer, then each group's, as one (n_in + 1, n_out) view."""
    expected = _param_count(trunk_shapes, group_shapes)
    if expected != flat.size:
        raise ValueError(f"expected {expected} parameters, got {flat.size}")
    offset, start = 0, 0
    heads, cols, groups, stacked = [[] for _ in range(n_tasks)], [None] * n_tasks, [], []

    def take(n_in, n_out):
        nonlocal offset
        end = offset + (n_in + 1) * n_out
        stacked.append(flat[offset:end].reshape(n_in + 1, n_out))
        offset = end
        return stacked[-1][:-1], stacked[-1][-1]

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
    return trunk, tuple(groups), tuple(map(tuple, heads)), tuple(cols), tuple(stacked)


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
    # [W; b] of each trunk layer, then each group's: views into params
    stacked: tuple[np.ndarray, ...] = field(init=False, repr=False)
    zeros: np.ndarray = field(init=False, repr=False)  # indices of structural zeros
    # (lo, hi) hidden-unit span of each hidden layer in a dropout draw (trunk
    # layers, then each group's); `units` in all
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    units: int = field(init=False, repr=False)
    shapes: tuple = field(init=False, repr=False)  # the _layout of the views

    def __post_init__(self):
        self.shapes = _layout(self.config, self.feature_dim, self.tasks)
        self.trunk, self.groups, self.heads, self.cols, self.stacked = _layer_views(
            self.params, *self.shapes, len(self.tasks))
        # the structural zeros are the entries outside every trunk layer and head
        covered = np.zeros(self.params.size, dtype=bool)
        trunk, _, heads, _, _ = _layer_views(covered, *self.shapes, len(self.tasks))
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
        net.trunk, net.groups, net.heads, _, net.stacked = _layer_views(
            params, *self.shapes, len(self.tasks))
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
    net = MtShlNetwork(np.zeros(_param_count(*_layout(config, feature_dim, tasks))),
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


def _dense(a: np.ndarray, op, out: np.ndarray) -> np.ndarray:
    """out = a @ W + b, in place: a @ W then + b for the pair `op` = (W, b),
    one GEMM [a, 1] @ [W; b] for `op` = [W; b] (``a`` then ends in a ones
    column)."""
    if type(op) is tuple:
        np.matmul(a, op[0], out=out)
        out += op[1]
        return out
    return np.matmul(a, op, out=out)


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


_PIECE = 16384  # 64-bit words a dropout draw reads from its generator at a time


def _draw(rng: np.random.Generator, n: int, hi, lo, keep=None) -> np.ndarray:
    """One dropout draw (module docstring) of n units into the bool buffer
    keep[:n] (a fresh array if `keep` is None), which it returns. It reads the
    words _PIECE 64-bit words at a time, as many random_raw calls give the
    words of one, and writes each piece's units and collects its ties before
    it reads the next; then all tie words in one call."""
    keep = np.empty(n, dtype=bool) if keep is None else keep[:n]
    ties, step = [], 4 * _PIECE
    for start in range(0, n, step):
        piece = keep[start:start + step]
        words = _words(rng, piece.size)
        tied = np.equal(words, hi, out=piece).nonzero()[0]
        if tied.size:
            ties.append(tied + start)
        np.greater(words, hi, out=piece)
    if ties:
        ties = np.concatenate(ties)
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


def _with_ones(rows: int, width: int) -> np.ndarray:
    """An empty (rows, width + 1) array whose last column is 1.0: a layer's
    input, written into the first `width` columns, that its gradient GEMM
    reads as [a, 1]."""
    a = np.empty((rows, width + 1))
    a[:, -1] = 1.0
    return a


class _Buffers:
    """The arrays of one training step of `rows` rows, so that a step
    allocates none, and the step's views, bound once. Per hidden layer (trunk
    layers, then each group's): its activation `h`, its masked output `a`
    (the first columns of `a1`, which ends in a ones column), the gradient `d`
    at its masked output, derivative scratch `t` and a pre-scaled mask
    (`masks`, views of the flat `mask` that :func:`train` fills). The
    (rows, sum K) logits `z` (column-major) and their gradient `dz`
    (row-major); `z_tasks`, each task with its view of the logits; `top`, a
    later group's share of the trunk output's gradient. `grad` is where the
    gradient goes (a fresh one if None). `stacks`, per stack of layers (the
    trunk, then each group): its layers as (W, b) pairs, as [W; b] views,
    their W.T and their [gW; gb] views of `grad`; `groups`, per group, its
    logits' and their gradient's views and the index of its first hidden
    layer."""

    def __init__(self, net: MtShlNetwork, rows: int, grad: Optional[MtShlNetwork] = None):
        widths = [b - a for a, b in net.spans]
        tanh = net.config.activation == "tanh"
        self.h = [np.empty((rows, w)) for w in widths]
        self.a1 = [_with_ones(rows, w) for w in widths]
        self.a = [a[:, :-1] for a in self.a1]
        self.d = [np.empty((rows, w)) for w in widths]
        self.t = [np.empty((rows, w), dtype=float if tanh else bool) for w in widths]
        self.mask = np.empty(rows * net.units)
        self.masks = _layer_masks(self.mask, rows, net.spans)
        self.z = _logits(net, rows)
        self.dz = np.empty(self.z.shape)
        self.z_tasks = [(task, self.z[:, cs]) for task, cs in zip(net.tasks, net.cols)]
        self.top = (np.empty((rows, net.trunk[-1][0].shape[1]))
                    if net.trunk and len(net.groups) > 1 else None)
        self.grad = net.like(np.zeros_like(net.params)) if grad is None else grad
        wbs, grads = iter(net.stacked), iter(self.grad.stacked)
        self.stacks = [(layers, [next(wbs) for _ in layers], [w.T for w, _ in layers],
                        [next(grads) for _ in layers])
                       for layers in (net.trunk, *(layers for layers, _ in net.groups))]
        firsts = accumulate((len(layers) - 1 for layers, _ in net.groups), initial=len(net.trunk))
        self.groups = [(self.z[:, cs], self.dz[:, cs], j) for (_, cs), j in zip(net.groups, firsts)]


def _hidden_forward(ops, a: np.ndarray, j: int, masks, buf: _Buffers, akind: str, read):
    """Pass `a` through hidden layers j, j+1, ... (their operands `ops`,
    :func:`_dense`) into `buf`, each masked by its mask if `masks` is not
    None; returns the last output as the next layer reads it, ``read[j]``."""
    for op in ops:
        h = _act(_dense(a, op, buf.a[j] if masks is None else buf.h[j]), akind)
        if masks is not None:
            np.multiply(h, masks[j], out=buf.a[j])
        a = read[j]
        j += 1
    return a


def _forward(net: MtShlNetwork, x: np.ndarray, masks: Optional[list],
             buf: Optional[_Buffers] = None, ones: bool = False):
    """The training forward of the batch `x` into `buf` (fresh buffers if None)
    under `masks` (bool or pre-scaled, :func:`_scaled`): (buf, z), z the
    (B, sum K) logits, ``buf.z``. Each layer is a @ W then + b, as prediction
    computes it, or, with `ones` (`x` then ends in a ones column), one GEMM
    [a, 1] @ [W; b]."""
    akind, masks = net.config.activation, _scaled(net, masks)
    buf = _Buffers(net, len(x)) if buf is None else buf
    k, read = (1, buf.a1) if ones else (0, buf.a)
    top = _hidden_forward(buf.stacks[0][k], x, 0, masks, buf, akind, read)
    for stack, (z, _, j) in zip(buf.stacks[1:], buf.groups):
        ops = stack[k]
        _dense(_hidden_forward(ops[:-1], top, j, masks, buf, akind, read), ops[-1], z)
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


# ---------------------------------------------------------------------------
# threads: BLAS's and the MC passes'


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


@functools.cache
def _blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count through ctypes, the
    library found by its /proc/self/maps entry; None where none resolves."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy >= 2 wheels, the numpy 1.24 wheels, then a plain build
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Hold BLAS at one thread inside the block, then restore its previous count;
    yields that count, or None, doing nothing, where BLAS control does not resolve."""
    control = _blas_threads()
    if control is None:
        yield None
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield before
    finally:
        set_(before)


def _mc_workers() -> int:
    """Threads for the MC passes of one call: 2 when a second CPU is usable and
    BLAS is observed at one thread, else 1 (a second BLAS thread spins on that
    CPU between the passes' GEMMs)."""
    control = _blas_threads()
    return 2 if usable_cpus() >= 2 and control is not None and control[0]() == 1 else 1


_BLOCK = 4096  # most rows of a pass computed at once


def _blocks(rows: int) -> list[tuple[int, int]]:
    """`rows` split into ceil(rows / _BLOCK) contiguous (start, stop) blocks of
    near-equal size, so that no block is a single row unless `rows` is."""
    n = -(-rows // _BLOCK)
    return [(rows * i // n, rows * (i + 1) // n) for i in range(n)]


def _keeps_stack(task: TaskSchema, rows: int) -> bool:
    """Whether :func:`_predict_passes` keeps task's (passes, B) stack of a
    call over `rows` rows, not its running moments: numpy's mean over a
    (passes, 1) stack sums pairwise, not in pass order (over a (passes, 1, K)
    stack it sums in pass order)."""
    return rows == 1 and task.kind != "multiclass"


def _welford(t: int, y: np.ndarray, mean: np.ndarray, m2: np.ndarray) -> None:
    """Welford's update of the running `mean` and sum of squared deviations
    `m2` by pass t's outputs `y`, in place; pass 0 sets them to (y, 0). Each
    update adds d * (y - mean) with d = y - (the old mean), two factors of
    one sign, so `m2` never goes below 0."""
    if t == 0:
        np.copyto(mean, y)
        m2.fill(0.0)
        return
    d = y - mean
    mean += d / (t + 1)
    m2 += d * (y - mean)


def _predict_passes(net: MtShlNetwork, x: np.ndarray, rng: Optional[np.random.Generator],
                    passes: int) -> list:
    """Activated outputs of `passes` forward passes of the batch `x`, per task
    the (passes, B) stack of its outputs where :func:`_keeps_stack`, else
    their running moments over the passes: (sum,) for a classification task,
    the sum (B,) or (B, K), the latter column-major, and for a regression task
    (sum, mean, m2), each (B,), mean and m2 by :func:`_welford`.

    The moments add the passes in pass order, so that dividing the sum by
    `passes` gives ``stack.mean(axis=0)`` to the bit, in its layout, and
    mean and m2 are Welford's over the stack's rows in order.
    Dropout-free when `rng` is None or p = 0, else every pass makes the draw
    of :func:`sample_dropout_masks`. Computes what :func:`_forward` does
    (a @ W, then + b), to the bit, in buffers reused across passes. The
    :func:`_mc_workers` workers are the caller's thread and one more thread
    each (module docstring). They run under the caller's numpy error state,
    which a new thread does not inherit; the first exception one raises stops
    the others at their next pass or wait for an add and is raised here once
    all have ended. Workers call only private helpers, none that
    perfbench/traced.py wraps: its span stack is not thread-safe.
    """
    p = net.config.dropout
    akind, rows, scale = net.config.activation, x.shape[0], 1.0 / (1.0 - p)
    drawn = rng is not None and p > 0.0
    hi, lo = _threshold(p)
    blocks = _blocks(rows)
    size = max((b - a for a, b in blocks), default=0)
    widths, logits = [b - a for a, b in net.spans], net.groups[-1][1].stop
    # dropout never touches the inputs, so the first trunk layer's activation
    # is the same in every pass, and with a draw it is scaled once here
    first = _act(_dense(x, net.trunk[0], np.empty((rows, widths[0]))), akind) if net.trunk else x
    masked = bool(net.trunk) and drawn
    if masked:
        first *= scale
    stacked = [_keeps_stack(t, rows) for t in net.tasks]
    # a multiclass sum column-major, as stack.mean(axis=0) lays it out, so that
    # the entropy of the mean sums over K in its order
    outs = [np.empty((passes, rows)) if kept
            else (np.empty((head_output_size(t), rows)).T,) if t.kind == "multiclass"
            else tuple(np.empty(rows) for _ in range(3 if t.kind == REGRESSION else 1))
            for t, kept in zip(net.tasks, stacked)]

    def worker_state():
        """A worker's keep buffer (None without a draw); per row block, its
        index, rows, layer masks, per-layer buffers and column-major logits, a
        block's buffers being contiguous views of storage for the largest
        block; and per task with moments, a spare buffer for a block's outputs."""
        spare = [np.empty((size, head_output_size(t)) if t.kind == "multiclass" else size)
                 for t, kept in zip(net.tasks, stacked) if not kept]
        keep = np.empty(rows * net.units, dtype=bool) if drawn else None
        masks = _layer_masks(keep, rows, net.spans) if drawn else [None] * len(widths)
        flats, zflat = [np.empty(size * w) for w in widths], np.empty(size * logits)
        state = []
        for i, (r0, r1) in enumerate(blocks):
            b = r1 - r0
            bufs = [f[:b * w].reshape(b, w) for f, w in zip(flats, widths)]
            z = zflat[:b * logits].reshape((b, logits), order="F")
            state.append((i, r0, r1, [m if m is None else m[r0:r1] for m in masks], bufs, z))
        return keep, state, spare

    def hidden(a, layers, j, masks, bufs):
        for layer in layers:
            a = _drop(_act(_dense(a, layer, bufs[j]), akind), masks[j], scale, bufs[j])
            j += 1
        return a

    # the draws are made in pass order under `lock`; block i of pass t is added
    # to the moments once added[i] == t, under `cond`, which an error also wakes
    lock, cond, order, errors, err = (threading.Lock(), threading.Condition(),
                                      iter(range(passes)), [], np.geterr())
    added = [0] * len(blocks)

    def add(i, t, pairs) -> None:
        """Add pass t's outputs of block i, `pairs` of (the block's rows of a
        task's moments, the outputs), pass 0 copied into the sum, then count
        them."""
        for (total, *moments), y in pairs:
            if t:
                total += y
            else:
                np.copyto(total, y)
            if moments:
                _welford(t, y, *moments)
        with cond:
            added[i] += 1
            cond.notify_all()

    def flush(held) -> bool:
        """Add the held outputs, (i, t, pairs) in held[0] if any, once it is
        their turn; False if an error stopped the call."""
        if held[0] is not None:
            i, t, pairs = held[0]
            with cond:
                cond.wait_for(lambda: errors or added[i] == t)
                if errors:
                    return False
            add(i, t, pairs)
            held[0] = None
        return True

    def one_pass(t, i, r0, r1, masks, bufs, z, held, spare) -> bool:
        """Pass t over block i into the outputs; False if an error stopped it.
        Outputs that are not yet due are held in `spare` until their turn, so
        that a worker goes on to its next pass; it holds at most one block's."""
        top = np.multiply(first[r0:r1], masks[0], out=bufs[0]) if masked else first[r0:r1]
        top = hidden(top, net.trunk[1:], 1, masks, bufs)
        j = len(net.trunk)
        for layers, cs in net.groups:
            _dense(hidden(top, layers[:-1], j, masks, bufs), layers[-1], z[:, cs])
            j += len(layers) - 1
        pairs = []  # (this block's rows of a task's moments, its outputs)
        for task, cs, out, kept in zip(net.tasks, net.cols, outs, stacked):
            y = _activate_output(task, z[:, cs])
            if kept:
                out[t, r0:r1] = y
            else:
                pairs.append((tuple(a[r0:r1] for a in out), y))
        if not pairs:
            return True
        if not flush(held):  # by now due, unless the other worker is a pass behind
            return False
        with cond:
            due = added[i] == t
        if due:
            add(i, t, pairs)
            return True
        for (_, y), buf in zip(pairs, spare):
            np.copyto(buf[:r1 - r0], y)
        held[0] = (i, t, [(acc, buf[:r1 - r0]) for (acc, _), buf in zip(pairs, spare)])
        return True

    def next_pass(keep) -> Optional[int]:
        """The next pass, its draw made into `keep`; None once all are taken."""
        with lock:  # the generator is read in stream order
            t = next(order, None)
            if drawn and t is not None:
                _draw(rng, keep.size, hi, lo, keep)
        return t

    def work(keep, state, spare):
        held = [None]  # (i, t, pairs) of outputs not yet due, held in `spare`
        try:
            with np.errstate(**err):  # a new thread starts at numpy's defaults
                while not errors:
                    t = next_pass(keep)
                    if t is None:
                        flush(held)
                        return
                    for block in state:
                        if not one_pass(t, *block, held, spare):
                            return
        except BaseException as exc:  # noqa: BLE001 - raised by the caller
            with cond:  # wakes a worker waiting for an add this one will not make
                errors.append(exc)
                cond.notify_all()

    states = [worker_state() for _ in range(min(_mc_workers(), passes))]
    threads = [threading.Thread(target=work, args=state, daemon=True) for state in states[1:]]
    for thread in threads:
        thread.start()
    work(*states[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outs


def forward(net: MtShlNetwork, x: np.ndarray,
            rng: Optional[np.random.Generator] = None) -> list[np.ndarray]:
    """Activated per-task outputs for a batch.

    With `rng` given, hidden units are dropped stochastically (sampled-dropout
    mode); without, the pass is deterministic. Binary tasks yield the
    probability of class 1, multiclass a (B, K) distribution, regression the
    raw output.
    """
    x = _as_rows(net, x)
    # a stack's one pass, or the sum of the moments over one pass
    return [out[0] for out in _predict_passes(net, x, rng, 1)]


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


def _hidden_backward(wt, grads, n: int, a1: np.ndarray, j: int, masks, buf: _Buffers,
                     akind: str) -> np.ndarray:
    """Backpropagate through the n hidden layers j, ..., j+n-1 of a stack, the
    first reading `a1` (with its ones column), ``buf.d`` of the last holding
    the gradient at its masked output: writes each layer's [gW; gb] into
    `grads` with one GEMM and returns the gradient at the first layer's
    pre-activation. `wt` and `grads` are the stack's (:class:`_Buffers`)."""
    hs = buf.a if masks is None else buf.h
    for i in range(n - 1, -1, -1):
        d, h, t = buf.d[j + i], hs[j + i], buf.t[j + i]
        if akind == "tanh":  # the derivative from the activation itself
            np.subtract(1.0, np.multiply(h, h, out=t), out=t)
        else:  # a > 0 iff z > 0
            np.greater(h, 0, out=t)
        d *= t
        if masks is not None:
            d *= masks[j + i]
        np.matmul((buf.a1[j + i - 1] if i else a1).T, d, out=grads[i])
        if i:
            np.matmul(d, wt[i], out=buf.d[j + i - 1])
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
    stands in for `y` and `defined` (which are then not read). `buf`,
    :class:`_Buffers` of len(x) rows built for `net` and `grad`, holds the
    step's arrays and views, and `x` then carries a trailing ones column;
    :func:`train` encodes its labels, builds its buffers and gathers its
    inputs that way once per call. The loss itself is :func:`mt_loss`; the
    name stays because the benchmark times the ``model.grad`` stage and
    ``micro.grad_us`` under it.
    """
    akind, masks = net.config.activation, _scaled(net, masks)
    targets, weights = _encode_targets(net, y, defined) if encoded is None else encoded
    if buf is None:
        x = np.asarray(x, dtype=float)
        x1 = _with_ones(*x.shape)
        x1[:, :-1] = x
        buf = _Buffers(net, len(x), grad)
    else:
        x1 = x
    buf, z = _forward(net, x1, masks, buf, ones=True)
    # the logits are activated in place (a regression output is its logit)
    for task, z_task in buf.z_tasks:
        _activate_output(task, z_task)
    np.subtract(z, targets, out=buf.dz)
    buf.dz *= weights
    n_trunk = len(net.trunk)
    top = buf.a1[n_trunk - 1] if n_trunk else x1
    for k, ((_, _, wt, grads), (_, d, j)) in enumerate(zip(buf.stacks[1:], buf.groups)):
        hidden = len(wt) - 1
        np.matmul((buf.a1[j + hidden - 1] if hidden else top).T, d, out=grads[-1])
        if hidden:
            np.matmul(d, wt[-1], out=buf.d[j + hidden - 1])
            d = _hidden_backward(wt, grads, hidden, top, j, masks, buf, akind)
        if n_trunk:  # the trunk output's gradient: each group's share, in group order
            if k == 0:
                np.matmul(d, wt[0], out=buf.d[n_trunk - 1])
            else:
                buf.d[n_trunk - 1] += np.matmul(d, wt[0], out=buf.top)
    if n_trunk:  # stops at the first layer's gradient: x needs none
        _, _, wt, grads = buf.stacks[0]
        _hidden_backward(wt, grads, n_trunk, x1, 0, masks, buf, akind)
    if net.zeros.size:
        buf.grad.params[net.zeros] = 0.0
    return buf.grad.params


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
    velocity = np.zeros_like(out.params) if cfg.momentum else None
    update = np.empty_like(out.params)
    units, (hi, lo), scale = out.units, _threshold(cfg.dropout), 1.0 / (1.0 - cfg.dropout)
    drawn = cfg.dropout > 0.0
    targets, weights = _encode_targets(out, y, defined)
    # an epoch's gather (inputs with a ones column, targets, weights) and draw
    xs, ts, ws = _with_ones(*x.shape), np.empty_like(targets), np.empty_like(weights)
    keep = np.empty(n * units, dtype=bool)
    # per minibatch, bound once: its rows of the gather, its units of the draw
    # (None without dropout), its buffers (the full batch's, or a ragged last one's)
    bufs, steps = {}, []
    for start in range(0, n, cfg.batch_size):
        b = min(cfg.batch_size, n - start)
        if b not in bufs:
            bufs[b] = _Buffers(out, b, grad)
        rows = slice(start, start + b)
        steps.append((xs[rows], (ts[rows], ws[rows]),
                      keep[start * units:(start + b) * units] if drawn else None, bufs[b]))
    rng = np.random.default_rng(cfg.seed)
    # overflow is expected while diverging; the per-epoch check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            # one gather per epoch; the minibatches are contiguous slices of it
            order = rng.permutation(n)
            np.take(x, order, axis=0, out=xs[:, :-1], mode="clip")
            np.take(targets, order, axis=0, out=ts, mode="clip")
            np.take(weights, order, axis=0, out=ws, mode="clip")
            if drawn:  # one draw for the epoch; a minibatch takes its rows' units
                _draw(rng, n * units, hi, lo, keep)
            for x1, encoded, step_keep, buf in steps:
                masks = None
                if step_keep is not None:
                    np.multiply(step_keep, scale, out=buf.mask)
                    masks = buf.masks
                g = loss_and_grads(out, x1, None, None, masks, grad=grad, encoded=encoded,
                                   buf=buf)
                if velocity is not None:
                    velocity *= cfg.momentum
                    g = np.add(velocity, g, out=velocity)
                out.params -= np.multiply(cfg.learning_rate, g, out=update)
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
    variance across passes (0 for a single pass). A mean is
    :func:`_predict_passes`' sum over the passes divided by their number, or
    the mean of its stack where it keeps one; the two agree to the bit. The
    variance is m2 / (passes - 1), m2 the sum of squared deviations of
    Welford's update over the passes in order (:func:`_welford`).
    """
    x = _as_rows(net, x)
    passes = 1 if rng is None or net.config.dropout == 0.0 else net.config.mc_passes
    results = []
    for task, out in zip(net.tasks, _predict_passes(net, x, rng, passes)):
        # out: the (T, B) stack, or the moments over the T passes
        kept = _keeps_stack(task, len(x))
        mean = out.mean(axis=0) if kept else np.divide(out[0], passes, out=out[0])
        if task.kind == REGRESSION:
            if kept:
                moments = np.empty((2, len(x)))
                for t, y in enumerate(out):  # the stack's rows in pass order
                    _welford(t, y, *moments)
                m2 = moments[1]
            else:
                m2 = out[2]
            var = np.divide(m2, passes - 1, out=m2) if passes > 1 else m2
            results.append(TaskPredictionBatch(mean, -var))
        else:
            dist = np.stack([1.0 - mean, mean], axis=-1) if task.kind == "binary" else mean
            conf = -shannon_entropy(dist)
            results.append(TaskPredictionBatch(_decode_classification(task, mean), conf))
    return results

