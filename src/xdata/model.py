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

All computation is float64 numpy; training is plain minibatch SGD (optional
momentum) and fully deterministic in (config, seed, data).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
from scipy.special import expit, log_softmax, logsumexp, softmax

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
        if not all(s > 0 for s in self.shared_layers):
            raise ValueError("shared layer sizes must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.epochs <= 0 or self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, learning_rate and batch_size must be positive")
        if self.mc_passes < 1:
            raise ValueError("mc_passes must be >= 1")
        if self.dropout > 0 and self.mc_passes < 2:
            raise ValueError("mc_passes must be >= 2 when dropout is active")


Layer = tuple[np.ndarray, np.ndarray]  # (weights in_dim x out_dim, bias out_dim)


@dataclass
class MtShlNetwork:
    trunk: list[Layer]
    heads: list[list[Layer]]  # one list per task, last layer is the output
    tasks: list[TaskSchema]
    config: NetworkConfig
    feature_dim: int

    def copy(self) -> "MtShlNetwork":
        return MtShlNetwork(
            [(w.copy(), b.copy()) for w, b in self.trunk],
            [[(w.copy(), b.copy()) for w, b in head] for head in self.heads],
            list(self.tasks), self.config, self.feature_dim,
        )


def head_output_size(task: TaskSchema) -> int:
    if task.kind == "multiclass":
        return task.num_classes
    return 1  # binary sigmoid unit or regression scalar


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> Layer:
    scale = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-scale, scale, size=(n_in, n_out)), np.zeros(n_out)


def init_network(config: NetworkConfig, feature_dim: int,
                 tasks: list[TaskSchema]) -> MtShlNetwork:
    """Fan-in scaled uniform weights, zero biases; deterministic in config.seed."""
    config.validate()
    if not tasks:
        raise ValueError("at least one task required")
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    rng = np.random.default_rng(config.seed)
    trunk: list[Layer] = []
    size = feature_dim
    for s in config.shared_layers:
        trunk.append(_glorot(rng, size, s))
        size = s
    heads: list[list[Layer]] = []
    for task in tasks:
        head: list[Layer] = []
        h_size = size
        for s in config.head_layers.get(task.name, ()):
            head.append(_glorot(rng, h_size, s))
            h_size = s
        head.append(_glorot(rng, h_size, head_output_size(task)))
        heads.append(head)
    return MtShlNetwork(trunk, heads, list(tasks), config, feature_dim)


# ---------------------------------------------------------------------------
# forward / backward


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _dact(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return 1.0 - a * a if kind == "tanh" else (z > 0).astype(float)


def sample_dropout_masks(net: MtShlNetwork, batch: int,
                         rng: np.random.Generator) -> Optional[dict]:
    """Inverted-dropout masks for all hidden units of a batch, or None if p=0."""
    p = net.config.dropout
    if p == 0.0:
        return None
    keep = 1.0 - p
    scale = 1.0 / keep

    def mask(size):
        return (rng.random((batch, size)) >= p) * scale

    return {
        "trunk": [mask(w.shape[1]) for w, _ in net.trunk],
        "heads": [[mask(w.shape[1]) for w, _ in head[:-1]] for head in net.heads],
    }


def _forward(net: MtShlNetwork, x: np.ndarray, masks: Optional[dict]):
    """Full forward pass with caches for backprop.

    Returns (trunk_cache, head_caches, logits) where each cache entry is
    (input, z, a) per layer and logits[m] is the pre-activation head output.
    """
    akind = net.config.activation
    trunk_cache = []
    a = x
    for li, (w, b) in enumerate(net.trunk):
        z = a @ w + b
        h = _act(z, akind)
        if masks is not None:
            h = h * masks["trunk"][li]
        trunk_cache.append((a, z, h))
        a = h
    head_caches = []
    logits = []
    for m, head in enumerate(net.heads):
        ha = a
        cache = []
        for li, (w, b) in enumerate(head[:-1]):
            z = ha @ w + b
            h = _act(z, akind)
            if masks is not None:
                h = h * masks["heads"][m][li]
            cache.append((ha, z, h))
            ha = h
        w, b = head[-1]
        z_out = ha @ w + b
        cache.append((ha, z_out, z_out))
        head_caches.append(cache)
        logits.append(z_out)
    return trunk_cache, head_caches, logits


def _activate_output(task: TaskSchema, z: np.ndarray) -> np.ndarray:
    """Logits -> probabilities (classification) or identity (regression)."""
    if task.kind == "multiclass":
        return softmax(z, axis=1)
    if task.kind == "binary":
        return expit(z[:, 0])
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
        logp = log_softmax(z, axis=1)
        return -logp[np.arange(len(y)), y.astype(int)]
    d = z[:, 0] - y
    return d * d


def _output_grad(task: TaskSchema, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(cell loss)/d(logits), per row."""
    if task.kind == "binary":
        return (expit(z[:, 0]) - y)[:, None]
    if task.kind == "multiclass":
        g = softmax(z, axis=1)
        g[np.arange(len(y)), y.astype(int)] -= 1.0
        return g
    return (2.0 * (z[:, 0] - y))[:, None]


def mt_loss(net: MtShlNetwork, x: np.ndarray, y: np.ndarray, defined: np.ndarray,
            masks: Optional[dict] = None) -> float:
    """Masked multi-task loss: sum over defined cells of the per-task loss."""
    _, _, logits = _forward(net, np.asarray(x, dtype=float), masks)
    total = 0.0
    for m, task in enumerate(net.tasks):
        sel = defined[:, m]
        if not sel.any():
            continue
        y_safe = np.where(sel, y[:, m], 0.0)
        losses = _cell_losses(task, logits[m], y_safe)
        total += float(losses[sel].sum())
    return total


def loss_and_grads(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
                   defined: np.ndarray, masks: Optional[dict] = None):
    """Masked loss plus gradients for every parameter (same structure as net)."""
    x = np.asarray(x, dtype=float)
    akind = net.config.activation
    trunk_cache, head_caches, logits = _forward(net, x, masks)
    top = trunk_cache[-1][2] if net.trunk else x

    total = 0.0
    d_top = np.zeros_like(top)
    head_grads = []
    for m, task in enumerate(net.tasks):
        head = net.heads[m]
        cache = head_caches[m]
        sel = defined[:, m]
        y_safe = np.where(sel, y[:, m], 0.0)
        if sel.any():
            losses = _cell_losses(task, logits[m], y_safe)
            total += float(losses[sel].sum())
        dz = _output_grad(task, logits[m], y_safe) * sel[:, None]
        grads = [None] * len(head)
        for li in range(len(head) - 1, -1, -1):
            w, b = head[li]
            a_in = cache[li][0]
            grads[li] = (a_in.T @ dz, dz.sum(axis=0))
            da = dz @ w.T
            if li > 0:
                z_prev, a_prev = cache[li - 1][1], cache[li - 1][2]
                # mask was applied after activation; fold it into the derivative
                a_pre = _act(z_prev, akind)
                dz = da * _dact(z_prev, a_pre, akind)
                if masks is not None:
                    dz = dz * masks["heads"][m][li - 1]
            else:
                d_top = d_top + da
        head_grads.append(grads)

    trunk_grads: list[Optional[Layer]] = [None] * len(net.trunk)
    da = d_top
    for li in range(len(net.trunk) - 1, -1, -1):
        w, b = net.trunk[li]
        a_in, z, h = trunk_cache[li]
        a_pre = _act(z, akind)
        dz = da * _dact(z, a_pre, akind)
        if masks is not None:
            dz = dz * masks["trunk"][li]
        trunk_grads[li] = (a_in.T @ dz, dz.sum(axis=0))
        da = dz @ w.T

    return total, {"trunk": trunk_grads, "heads": head_grads}


def iter_params(net: MtShlNetwork) -> Iterator[np.ndarray]:
    """All parameter arrays, in a stable order (for gradient checks)."""
    for w, b in net.trunk:
        yield w
        yield b
    for head in net.heads:
        for w, b in head:
            yield w
            yield b


def iter_grads(grads: dict) -> Iterator[np.ndarray]:
    for w, b in grads["trunk"]:
        yield w
        yield b
    for head in grads["heads"]:
        for w, b in head:
            yield w
            yield b


# ---------------------------------------------------------------------------
# training


def train(net: MtShlNetwork, x: np.ndarray, y: np.ndarray,
          defined: np.ndarray) -> MtShlNetwork:
    """Minibatch SGD on the masked loss with sampled-dropout forward passes.

    Runs exactly config.epochs epochs of seeded shuffles; returns a new
    network, the input is unchanged. Tasks without a single defined cell are
    effectively frozen (their gradients vanish) and a warning is logged.
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
    velocity = [np.zeros_like(p) for p in iter_params(out)]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            masks = sample_dropout_masks(out, len(idx), rng)
            _, grads = loss_and_grads(out, x[idx], y[idx], defined[idx], masks)
            for p, g, v in zip(iter_params(out), iter_grads(grads), velocity):
                v *= cfg.momentum
                v += g
                p -= cfg.learning_rate * v
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

    task_index: int
    decoded: np.ndarray  # class indices (int) or regression values (float)
    raw: np.ndarray  # mean probabilities (B,) / (B, K), or mean output (B,)
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
            results.append(TaskPredictionBatch(m, mean, mean, -var))
        else:
            dist = np.stack([1.0 - mean, mean], axis=-1) if task.kind == "binary" else mean
            conf = -shannon_entropy(dist)
            results.append(TaskPredictionBatch(m, _decode_classification(task, mean), mean, conf))
    return results

