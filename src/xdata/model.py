"""Multi-task shared-hidden-layer feedforward network.

A shared trunk feeds one head per task; a classification head ends in a
K-way softmax layer (K = 2 for a two-category task), a regression head in a
single linear unit.
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
weights are drawn from ``default_rng([seed, INIT_STREAM])`` per layer in the
order trunk, then each head's layers in task order, whatever the layout.

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
nothing. Prediction makes one draw per pass and row block, from the
generator its caller passes. Training makes one draw of the N*U units of an
epoch's N rows after its shuffle, both from ``default_rng([seed,
TRAIN_STREAM])``, and the minibatch of rows s..s+B of that order takes the
units s*U..(s+B)*U as its own draw of B rows.
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
layer's activation for backprop. Its passes run on one or two worker threads,
two where a second CPU is usable and BLAS is held at one thread (the CLI holds
it there; :func:`one_blas_thread`). Pass t draws from stream t % 2: the even
half from the caller's generator, the odd half from
``Generator(rng.bit_generator.jumped())``, made when the call starts (a call of
one pass reads the caller's alone). Worker w takes the row blocks
(:func:`_blocks`) in order. A block is at most 4096 rows, and at most as many
as fit ``_BLOCK_BYTES`` at the bytes a worker allocates per row
(:func:`_row_bytes`), so a worker's buffers are bounded in bytes, not rows,
however wide the net (one row where a single row exceeds the budget). Per
block it computes the first trunk layer's activation once (dropout never
touches the inputs), scaled once when the passes draw masks, as
(h * scale) * keep equals (h * keep) * scale for keep in {0, 1}, signed
zeros included; then for t = w, w + workers, ... it draws the block's masks
from stream t % 2 and runs pass t over the block, in buffers of its own sized
to the largest block. So each stream is read block by
block and in pass order within a block, however many workers run, and no worker
waits for the other. Pass t adds into the block's rows of half t % 2 of the
running moments: per half, a classification task has a (B, K) sum, its first
pass copied, and a regression task Welford's running mean and sum of squared
deviations m2. :func:`mc_predict` merges the two halves in place once the
workers have ended. So the outputs do not depend on the number of workers or on
their timing, and no array of a call spans all of its rows but the halves'
moments and the results. Training and prediction both write the (B, sum K)
logits column-major, so that a task's softmax reduces over contiguous columns
and both sum a row in the same order. Apart from that reordered mask, a pass's
float operations are those of the training forward over its block with each
layer computed as a @ W then + b, so its outputs are byte-identical to that
form's, which the tests stack and reduce as two halves (their reference).

All computation is float64 numpy, the output activations included (the
max-shifted softmax and log-softmax below); training is plain minibatch SGD
(optional momentum) and fully deterministic in (config, seed, data).
It encodes the labels once per :func:`train` call into a target and a weight
matrix in the logits' column order and gathers them with the inputs once per
epoch, the inputs into an array whose last column is 1.0; each step's output
gradient is then (activated logits - targets) * weights on its contiguous
rows. Each hidden layer writes its masked output into an array that also ends
in a ones column, so a training step computes every layer, forward and
backward, as one GEMM over the layer's [W; b]: z = [a, 1] @ [W; b], and
[a, 1].T @ d into the gradient's [gW; gb] view, whose ones row, the bias
gradient, sums d's rows in order as a row sum did; :func:`mt_loss` runs the
same forward. Prediction computes a @ W then + b (:func:`_dense`): a
prediction pass would have to write each masked layer into a strided
ones-column array, which costs more than the bias add. The two forms agree to
the bit on the layer shapes of the perfbench workloads at up to 64 rows, not
on every shape (an output width of 1 or 4 often differs in the last bit). A
:func:`train` call allocates each step's arrays (:class:`_Buffers`, for the
full batch and for a ragged last one) and binds each step's views (its rows of
the gather, its units of the draw, its buffers, every layer's [W; b], W.T and
[gW; gb]) once, so a step allocates nothing; its backward pass stops at the
first trunk layer's gradient. Without momentum the update is
params -= lr * grad, with no velocity, and the structural zeros' gradient is
zeroed only in a layout that has them.
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


# A seed's streams are default_rng([seed, key]), one key per use; no key is 0,
# as default_rng([seed, 0]) reads the words of default_rng(seed)
MC_STREAM, INIT_STREAM, TRAIN_STREAM = 1, 2, 3

Layer = tuple[np.ndarray, np.ndarray]  # (weights in_dim x out_dim, bias out_dim)


def head_output_size(task: TaskSchema) -> int:
    return task.num_classes or 1  # a regression task has no classes


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
    """Fan-in scaled uniform weights, zero biases; from config.seed's INIT_STREAM."""
    config.validate()
    if not tasks:
        raise ValueError("at least one task required")
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    net = MtShlNetwork(np.zeros(_param_count(*_layout(config, feature_dim, tasks))),
                       list(tasks), config, feature_dim)
    rng = np.random.default_rng([config.seed, INIT_STREAM])
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
    """out = a @ W + b for the `layer` (W, b), in place: a @ W then + b."""
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
    """The masks of one dropout draw for a batch in the training form
    keep * scale, scale = 1/(1-p), one (batch, W) float array per hidden layer
    (trunk layers, then each group's), or None if p = 0."""
    p = net.config.dropout
    if p == 0.0:
        return None
    keep = _draw(rng, batch * net.units, *_threshold(p))
    return _layer_masks(keep * (1.0 / (1.0 - p)), batch, net.spans)


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
    trunk, then each group): its layers' [W; b] views, their W.T and their
    [gW; gb] views of `grad`; `groups`, per group, its logits' and their
    gradient's views and the index of its first hidden layer."""

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
        self.stacks = [([next(wbs) for _ in layers], [w.T for w, _ in layers],
                        [next(grads) for _ in layers])
                       for layers in (net.trunk, *(layers for layers, _ in net.groups))]
        firsts = accumulate((len(layers) - 1 for layers, _ in net.groups), initial=len(net.trunk))
        self.groups = [(self.z[:, cs], self.dz[:, cs], j) for (_, cs), j in zip(net.groups, firsts)]


def _hidden_forward(wbs, a1: np.ndarray, j: int, masks, buf: _Buffers, akind: str):
    """Pass `a1` (ending in a ones column) through hidden layers j, j+1, ...
    (their [W; b] `wbs`) into `buf`, each masked by its mask if `masks` is not
    None; returns the last output with its ones column, ``buf.a1``."""
    for wb in wbs:
        h = _act(np.matmul(a1, wb, out=buf.a[j] if masks is None else buf.h[j]), akind)
        if masks is not None:
            np.multiply(h, masks[j], out=buf.a[j])
        a1 = buf.a1[j]
        j += 1
    return a1


def _forward(net: MtShlNetwork, x1: np.ndarray, masks: Optional[list],
             buf: _Buffers) -> np.ndarray:
    """The training forward of the batch `x1` (ending in a ones column) into
    `buf` under the training-form `masks` (keep * scale, or None): each layer
    one GEMM [a, 1] @ [W; b]. Returns the (B, sum K) logits, ``buf.z``."""
    akind = net.config.activation
    top = _hidden_forward(buf.stacks[0][0], x1, 0, masks, buf, akind)
    for (wbs, _, _), (z, _, j) in zip(buf.stacks[1:], buf.groups):
        np.matmul(_hidden_forward(wbs[:-1], top, j, masks, buf, akind), wbs[-1], out=z)
    return buf.z


def _step_batch(net: MtShlNetwork, x, grad: Optional[MtShlNetwork] = None):
    """(x1, buf): the batch `x` copied into an array with a ones column, and
    fresh :class:`_Buffers` for its rows writing the gradient into `grad`."""
    x = np.asarray(x, dtype=float)
    x1 = _with_ones(*x.shape)
    x1[:, :-1] = x
    return x1, _Buffers(net, len(x), grad)


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


def _activate_output(task: TaskSchema, z: np.ndarray) -> np.ndarray:
    """Logits -> probabilities (classification) or identity (regression), in
    place in the (B, K) logits `z`: a classification task's (B, K) softmax
    distribution, a regression task's (B,) column."""
    if task.kind == REGRESSION:
        return z[:, 0]
    return _softmax(z)


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
# most bytes of an MC worker's buffers for one row block (:func:`_row_bytes`
# a row): 2048 rows of a 64-unit trunk with three 16-unit heads (1568 B a row),
# which run no slower than 4096 (fewer rows do), while a 32-unit trunk with
# linear heads (592 B a row) keeps _BLOCK's 4096
_BLOCK_BYTES = 3_211_264


def _row_bytes(net: MtShlNetwork) -> int:
    """Bytes an MC worker allocates per row of a block: the first trunk
    activation, every hidden layer's buffer and the logits, all float64, and
    the bool keep word of each hidden unit."""
    first = net.trunk[0][0].shape[1] if net.trunk else 0
    return 8 * (first + net.units + net.groups[-1][1].stop) + net.units


def _block_rows(net: MtShlNetwork) -> int:
    """Most rows of an MC row block of `net`: as many as _BLOCK_BYTES holds,
    at least one and at most _BLOCK."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // _row_bytes(net)))


def _blocks(rows: int, size: int) -> list[tuple[int, int]]:
    """`rows` split into ceil(rows / size) contiguous (start, stop) blocks of
    near-equal size, so that no block is a single row unless `rows` is."""
    n = -(-rows // size)
    return [(rows * i // n, rows * (i + 1) // n) for i in range(n)]


def _welford(k: int, y: np.ndarray, mean: np.ndarray, m2: np.ndarray) -> None:
    """Welford's update of the running `mean` and sum of squared deviations
    `m2` by the k-th outputs `y` they take, in place; k = 0 sets them to
    (y, 0). Each update adds d * (y - mean) with d = y - (the old mean), two
    factors of one sign, so `m2` never goes below 0."""
    if k == 0:
        np.copyto(mean, y)
        m2.fill(0.0)
        return
    d = y - mean
    mean += d / (k + 1)
    m2 += d * (y - mean)


def _predict_passes(net: MtShlNetwork, x: np.ndarray, rng: Optional[np.random.Generator],
                    passes: int) -> list:
    """Activated outputs of `passes` forward passes of the batch `x`, reduced
    as two halves: pass t goes into half t % 2 (one half when `passes` is 1).
    Per half, per task, its running moments over its passes in pass order:
    (sum,) for a classification task, the (B, K) sum column-major, pass 0 of
    the half copied; (mean, m2) for a regression task, each (B,), by
    :func:`_welford`. :func:`mc_predict` merges the halves.

    Dropout-free when `rng` is None or p = 0, else per row block of
    :func:`_blocks` (at most :func:`_block_rows` rows, so that a worker's
    buffers hold at most ``_BLOCK_BYTES`` unless a block is one row) and per
    pass t, in that order, pass t makes the draw of
    :func:`sample_dropout_masks` for the block's rows from stream t % 2
    (module docstring). Computes, to the bit, the training forward over a
    block with each layer as a @ W then + b. Worker w of the
    :func:`_mc_workers` workers (the caller's thread, and for two one more)
    runs passes w, w + workers, ... of each block. They run under the
    caller's numpy error state, which a new thread does not inherit; the
    first exception one raises stops the others at their next pass and is
    raised here once all have ended. Workers call only private helpers, none
    that perfbench/traced.py wraps: its span stack is not thread-safe.
    """
    p = net.config.dropout
    akind, rows, scale = net.config.activation, x.shape[0], 1.0 / (1.0 - p)
    drawn = rng is not None and p > 0.0
    masked = bool(net.trunk) and drawn
    hi, lo = _threshold(p)
    blocks = _blocks(rows, _block_rows(net))
    size = max((b - a for a, b in blocks), default=0)
    widths, logits = [b - a for a, b in net.spans], net.groups[-1][1].stop
    # a classification sum column-major, in the layout of the logits, so that
    # the entropy of the mean sums over K in order
    halves = [[(np.empty(rows), np.empty(rows)) if t.kind == REGRESSION
               else (np.empty((head_output_size(t), rows)).T,)
               for t in net.tasks] for _ in range(min(passes, 2))]

    def hidden(a, layers, j, masks, bufs):
        for layer in layers:
            a = _drop(_act(_dense(a, layer, bufs[j]), akind), masks[j], scale, bufs[j])
            j += 1
        return a

    def one_pass(t, r0, r1, first, masks, bufs, z) -> None:
        """Pass t over the rows r0:r1, whose first trunk activation is
        `first`, into its half's moments, as the half's (t // 2)-th pass."""
        top = np.multiply(first, masks[0], out=bufs[0]) if masked else first
        top = hidden(top, net.trunk[1:], 1, masks, bufs)
        j = len(net.trunk)
        for layers, cs in net.groups:
            _dense(hidden(top, layers[:-1], j, masks, bufs), layers[-1], z[:, cs])
            j += len(layers) - 1
        k, half = divmod(t, 2)
        # acc: a classification task's sum, a regression task's mean
        for task, cs, (acc, *m2) in zip(net.tasks, net.cols, halves[half]):
            y = _activate_output(task, z[:, cs])
            if m2:
                _welford(k, y, acc[r0:r1], m2[0][r0:r1])
            elif k:
                acc[r0:r1] += y
            else:
                acc[r0:r1] = y

    # pass t draws from streams[t % 2]: the even half from `rng`, the odd half
    # from a jump of it made before any draw, so that the halves share no state
    streams = [rng, np.random.Generator(rng.bit_generator.jumped())] if drawn else None
    errors, err = [], np.geterr()

    def work(w):
        """Worker w: per row block, its first trunk activation, then passes
        w, w + workers, ... over it, in buffers sized to the largest block."""
        try:
            with np.errstate(**err):  # a new thread starts at numpy's defaults
                keep = np.empty(size * net.units, dtype=bool) if drawn else None
                head = np.empty((size, widths[0])) if net.trunk else None
                flats, zflat = [np.empty((size, n)) for n in widths], np.empty(size * logits)
                for r0, r1 in blocks:
                    b = r1 - r0
                    bufs = [f[:b] for f in flats]  # C-order: a block's rows are contiguous
                    z = zflat[:b * logits].reshape((b, logits), order="F")
                    # views of `keep`, which each of the block's draws refills
                    masks = _layer_masks(keep, b, net.spans) if drawn else [None] * len(widths)
                    first = x[r0:r1]
                    if net.trunk:
                        first = _act(_dense(first, net.trunk[0], head[:b]), akind)
                        if masked:
                            first *= scale
                    for t in range(w, passes, workers):
                        if errors:  # the other worker failed
                            return
                        if drawn:
                            _draw(streams[t % 2], b * net.units, hi, lo, keep)
                        one_pass(t, r0, r1, first, masks, bufs, z)
        except BaseException as exc:  # noqa: BLE001 - raised by the caller
            errors.append(exc)

    workers = min(_mc_workers(), passes)
    threads = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return halves


def forward(net: MtShlNetwork, x: np.ndarray,
            rng: Optional[np.random.Generator] = None) -> list[np.ndarray]:
    """Activated per-task outputs for a batch.

    With `rng` given, hidden units are dropped stochastically (sampled-dropout
    mode), the one pass making one draw as :func:`mc_predict`'s passes do;
    without, the pass is deterministic. A classification task yields its
    (B, K) class distribution, a regression task its raw (B,) output.
    """
    x = _as_rows(net, x)
    # over one pass, a sum or mean is a copy of its outputs
    return [moments[0] for moments in _predict_passes(net, x, rng, 1)[0]]


def _cell_losses(task: TaskSchema, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row task loss given logits z and (safe) labels y."""
    if task.kind == REGRESSION:
        d = z[:, 0] - y
        return d * d
    logp = _log_softmax(z)
    return -logp[np.arange(len(y)), y.astype(int)]


def _encode_targets(net: MtShlNetwork, y: np.ndarray,
                    defined: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, weights) for the rows of `y`, each (B, sum K) in the logits'
    column order (net.cols): targets one-hot for classification and the label
    for regression, 0 in undefined cells; weights the defined mask, doubled
    for regression. (activated logits - targets) * weights is then
    d(masked loss)/d(logits)."""
    width = net.groups[-1][1].stop
    targets, weights = np.zeros((len(defined), width)), np.empty((len(defined), width))
    for m, (task, cs) in enumerate(zip(net.tasks, net.cols)):
        sel = defined[:, m]
        if task.kind == REGRESSION:
            targets[sel, cs.start] = y[sel, m]
        else:
            targets[sel, cs.start + y[sel, m].astype(int)] = 1.0
        weights[:, cs] = (sel * (2.0 if task.kind == REGRESSION else 1.0))[:, None]
    return targets, weights


def mt_loss(net: MtShlNetwork, x: np.ndarray, y: np.ndarray, defined: np.ndarray,
            masks: Optional[list] = None) -> float:
    """Masked multi-task loss: sum over defined cells of the per-task loss,
    through the training forward under the training-form `masks`."""
    x1, buf = _step_batch(net, x)
    z = _forward(net, x1, masks, buf)
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
    `masks` are in the training form keep * scale
    (:func:`sample_dropout_masks`). `encoded`, the :func:`_encode_targets` of
    these rows, stands in for `y` and `defined` (which are then not read).
    `buf`, :class:`_Buffers` of len(x) rows built for `net` and the gradient,
    holds the step's arrays and views, and `x` then carries a trailing ones
    column, and `grad` is not read; :func:`train` encodes its labels, builds
    its buffers and gathers its inputs that way once per call. The loss
    itself is :func:`mt_loss`; the name stays because the benchmark times the
    ``model.grad`` stage and ``micro.grad_us`` under it.
    """
    akind = net.config.activation
    targets, weights = _encode_targets(net, y, defined) if encoded is None else encoded
    x1, buf = _step_batch(net, x, grad) if buf is None else (x, buf)
    z = _forward(net, x1, masks, buf)
    # the logits are activated in place (a regression output is its logit)
    for task, z_task in buf.z_tasks:
        _activate_output(task, z_task)
    np.subtract(z, targets, out=buf.dz)
    buf.dz *= weights
    n_trunk = len(net.trunk)
    top = buf.a1[n_trunk - 1] if n_trunk else x1
    for k, ((_, wt, grads), (_, d, j)) in enumerate(zip(buf.stacks[1:], buf.groups)):
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
        _, wt, grads = buf.stacks[0]
        _hidden_backward(wt, grads, n_trunk, x1, 0, masks, buf, akind)
    if net.zeros.size:
        buf.grad.params[net.zeros] = 0.0
    return buf.grad.params


# ---------------------------------------------------------------------------
# training


def train(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
          defined: np.ndarray) -> MtShlNetwork:
    """Minibatch SGD on the masked loss with sampled-dropout forward passes.

    Runs exactly config.epochs epochs of shuffles and dropout draws from
    default_rng([config.seed, TRAIN_STREAM]); returns a new network, the
    input is unchanged. Tasks without a single defined cell are effectively
    frozen (their gradients vanish) and a warning is logged.
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
    rng = np.random.default_rng([cfg.seed, TRAIN_STREAM])
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
                g = loss_and_grads(out, x1, None, None, masks, encoded=encoded, buf=buf)
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


def mc_predict(net: MtShlNetwork, x: np.ndarray,
               rng: Optional[np.random.Generator] = None) -> list[TaskPredictionBatch]:
    """Monte-Carlo dropout prediction with per-row confidences.

    Runs config.mc_passes stochastic forward passes over each row block
    (:func:`_predict_passes`), so `rng` ends n_blocks * ceil(T/2) draws on,
    n_blocks = ceil(rows / :func:`_block_rows`) (which depends on the net's
    widths): the even passes draw from it, the odd ones from a jump of it made
    on entry.
    With `rng` None or dropout 0 it runs one dropout-free pass instead, and the
    confidences come from that point distribution. Classification: mean output
    distribution, decoded as its argmax (an exact tie to the lower class),
    confidence is the negated Shannon entropy of that mean. Regression: mean
    output, confidence is the negated unbiased sample variance across passes
    (0 for a single pass). The halves' moments, n0 = ceil(T/2) even passes
    and n1 = floor(T/2) odd ones, merge in place: a classification mean is
    (S0 + S1) / T of their sums; a regression task takes Chan's pairwise
    update of their Welford moments: with d = mean1 - mean0, the mean is
    mean0 + d * (n1 / T) and the variance m2 / (T - 1), where
    m2 = m2_0 + m2_1 + d * d * (n0 * n1 / T), a sum of terms >= 0.
    """
    x = _as_rows(net, x)
    passes = 1 if rng is None or net.config.dropout == 0.0 else net.config.mc_passes
    halves = _predict_passes(net, x, rng, passes)
    n0, n1 = passes - passes // 2, passes // 2
    results = []
    for m, task in enumerate(net.tasks):
        # the even half's moments of the task, and the odd half's if T > 1
        (mean, *m2), *odd = (half[m] for half in halves)
        if task.kind == REGRESSION:
            var = m2[0]  # the even half's m2, all 0 for a single pass
            if odd:  # Chan's merge
                mean1, m2_1 = odd[0]
                d = np.subtract(mean1, mean, out=mean1)
                mean += d * (n1 / passes)
                var += m2_1
                var += np.multiply(d, d, out=d) * (n0 * n1 / passes)
                var /= passes - 1
            results.append(TaskPredictionBatch(mean, np.negative(var, out=var)))
        else:
            if odd:
                mean += odd[0][0]
            mean /= passes
            # by row block, as both copy or derive (B, K) temporaries
            decoded, confidence = np.empty(len(mean), dtype=np.intp), np.empty(len(mean))
            for r0, r1 in _blocks(len(mean), _BLOCK):
                np.argmax(mean[r0:r1], axis=1, out=decoded[r0:r1])
                confidence[r0:r1] = -shannon_entropy(mean[r0:r1])
            results.append(TaskPredictionBatch(decoded, confidence))
    return results
