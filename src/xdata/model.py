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

All computation is float64 numpy, the output activations included (the
max-shifted softmax and log-softmax and the sigmoid below); training is plain
minibatch SGD (optional momentum) and fully deterministic in (config, seed, data).

Parameter layout: all weights and biases live in one flat float64 array,
``MtShlNetwork.params``: the trunk layers, then each head's layers in task
order (output layer last), each layer its row-major (in_dim x out_dim) weights
then its bias. ``trunk`` and ``heads`` are tuples of views into it (write
through them, ``w[...] = ...``); gradients share the layout, so an SGD step
is one vector operation.
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
    """(trunk, heads) of (W, b) views into `flat`, laid out as in the module docstring."""
    out, offset = [], 0
    for group in groups:
        layers = []
        for n_in, n_out in group:
            end = offset + n_in * n_out
            layers.append((flat[offset:end].reshape(n_in, n_out), flat[end:end + n_out]))
            offset = end + n_out
        out.append(tuple(layers))
    if offset != flat.size:
        raise ValueError(f"expected {offset} parameters, got {flat.size}")
    return out[0], tuple(out[1:])


@dataclass
class MtShlNetwork:
    params: np.ndarray  # every weight and bias, laid out as in the module docstring
    tasks: list[TaskSchema]
    config: NetworkConfig
    feature_dim: int
    trunk: tuple[Layer, ...] = field(init=False, repr=False)  # views into params
    heads: tuple[tuple[Layer, ...], ...] = field(init=False, repr=False)  # last: output

    def __post_init__(self):
        self.trunk, self.heads = _layer_views(
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
    rng = np.random.default_rng(config.seed)
    chunks = []
    for group in _layer_shapes(config, feature_dim, tasks):
        for n_in, n_out in group:
            scale = np.sqrt(6.0 / (n_in + n_out))
            chunks += [rng.uniform(-scale, scale, size=n_in * n_out), np.zeros(n_out)]
    return MtShlNetwork(np.concatenate(chunks), list(tasks), config, feature_dim)


# ---------------------------------------------------------------------------
# forward / backward


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


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

    Returns (trunk_cache, head_caches, logits): the caches of
    :func:`_hidden_forward`, where a head's cache ends with (input, logits) of
    its output layer, and logits[m], head m's output before its activation.
    """
    akind = net.config.activation
    top, trunk_cache = _hidden_forward(net.trunk, x, masks and masks["trunk"], akind)
    head_caches, logits = [], []
    for m, head in enumerate(net.heads):
        ha, cache = _hidden_forward(head[:-1], top, masks and masks["heads"][m], akind)
        w, b = head[-1]
        logits.append(ha @ w + b)
        cache.append((ha, logits[-1]))
        head_caches.append(cache)
    return trunk_cache, head_caches, logits


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


def forward(net: MtShlNetwork, x: np.ndarray,
            rng: Optional[np.random.Generator] = None) -> list[np.ndarray]:
    """Activated per-task outputs for a batch.

    With `rng` given, hidden units are dropped stochastically (sampled-dropout
    mode); without, the pass is deterministic. Binary tasks yield the
    probability of class 1, multiclass a (B, K) distribution, regression the
    raw output.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.feature_dim:
        raise ValueError(f"expected {net.feature_dim} features, got {x.shape[1]}")
    masks = sample_dropout_masks(net, x.shape[0], rng) if rng is not None else None
    _, _, logits = _forward(net, x, masks)
    return [_activate_output(t, z) for t, z in zip(net.tasks, logits)]


def _cell_losses(task: TaskSchema, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row task loss given logits z and (safe) labels y."""
    if task.kind == "binary":
        return np.logaddexp(0.0, z[:, 0]) - y * z[:, 0]
    if task.kind == "multiclass":
        logp = _log_softmax(z)
        return -logp[np.arange(len(y)), y.astype(int)]
    d = z[:, 0] - y
    return d * d


def _output_grad(task: TaskSchema, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(cell loss)/d(logits), per row: the activated output minus the target
    (one-hot for multiclass), doubled for the squared error of regression."""
    a = _activate_output(task, z)
    if task.kind == "multiclass":
        a[np.arange(len(y)), y.astype(int)] -= 1.0
        return a
    return (2.0 * (a - y) if task.kind == REGRESSION else a - y)[:, None]


def mt_loss(net: MtShlNetwork, x: np.ndarray, y: np.ndarray, defined: np.ndarray,
            masks: Optional[dict] = None) -> float:
    """Masked multi-task loss: sum over defined cells of the per-task loss."""
    _, _, logits = _forward(net, np.asarray(x, dtype=float), masks)
    total = 0.0
    for m, task in enumerate(net.tasks):
        sel = defined[:, m]
        if sel.any():
            losses = _cell_losses(task, logits[m], np.where(sel, y[:, m], 0.0))
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
                   defined: np.ndarray, masks: Optional[dict] = None) -> np.ndarray:
    """Gradients of the masked loss, one flat array laid out like ``net.params``.

    The loss itself is :func:`mt_loss`; the name stays because the benchmark
    times the ``model.grad`` stage and ``micro.grad_us`` under it.
    """
    akind = net.config.activation
    trunk_cache, head_caches, logits = _forward(net, np.asarray(x, dtype=float), masks)
    grad = MtShlNetwork(np.zeros_like(net.params), net.tasks, net.config, net.feature_dim)
    d_top = 0.0
    for m, (task, head, cache) in enumerate(zip(net.tasks, net.heads, head_caches)):
        sel = defined[:, m]
        dz = _output_grad(task, logits[m], np.where(sel, y[:, m], 0.0)) * sel[:, None]
        gw, gb = grad.heads[m][-1]
        np.matmul(cache[-1][0].T, dz, out=gw)
        dz.sum(axis=0, out=gb)
        d_top = d_top + _hidden_backward(head[:-1], cache, masks and masks["heads"][m],
                                         dz @ head[-1][0].T, grad.heads[m], akind)
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
    velocity = np.zeros_like(out.params)
    rng = np.random.default_rng(cfg.seed)
    # overflow is expected while diverging; the per-epoch check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                masks = sample_dropout_masks(out, len(idx), rng)
                velocity *= cfg.momentum
                velocity += loss_and_grads(out, x[idx], y[idx], defined[idx], masks)
                out.params -= cfg.learning_rate * velocity
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
    cfg = net.config
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if rng is None or cfg.dropout == 0.0:
        passes = [forward(net, x)]
    else:
        passes = [forward(net, x, rng) for _ in range(cfg.mc_passes)]

    results = []
    for m, task in enumerate(net.tasks):
        stack = np.stack([p[m] for p in passes])  # (T, B) or (T, B, K)
        mean = stack.mean(axis=0)
        if task.kind == REGRESSION:
            var = stack.var(axis=0, ddof=1) if len(passes) > 1 else np.zeros(x.shape[0])
            results.append(TaskPredictionBatch(mean, -var))
        else:
            dist = np.stack([1.0 - mean, mean], axis=-1) if task.kind == "binary" else mean
            conf = -shannon_entropy(dist)
            results.append(TaskPredictionBatch(_decode_classification(task, mean), conf))
    return results

