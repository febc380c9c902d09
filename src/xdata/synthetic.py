"""Synthetic multi-target fixture: a 2-D latent variable embedded into a
10-D noisy feature space, with a 4-class quadrant task plus the two latent
coordinates (with observation noise) as regression targets. Used by the test
suite and the bundled experiment script."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arff import NOMINAL, NUMERIC, ArffRelation, AttributeDecl

QUADRANT_CLASSES = ("q_pp", "q_pn", "q_np", "q_nn")


@dataclass
class SyntheticData:
    features: np.ndarray  # (N, 10)
    quadrant: np.ndarray  # (N,) class index into QUADRANT_CLASSES
    coord_a: np.ndarray  # (N,) noisy first latent coordinate
    coord_v: np.ndarray  # (N,) noisy second latent coordinate


def generate(n: int, seed: int, feature_dim: int = 10, noise: float = 0.1) -> SyntheticData:
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(n, 2))
    embed = rng.normal(size=(2, feature_dim))
    x = z @ embed + noise * rng.normal(size=(n, feature_dim))
    quadrant = 2 * (z[:, 0] < 0) + (z[:, 1] < 0)
    return SyntheticData(
        features=x,
        quadrant=quadrant.astype(np.int64),
        coord_a=z[:, 0] + noise * rng.normal(size=n),
        coord_v=z[:, 1] + noise * rng.normal(size=n),
    )


def _relation(name: str, data: SyntheticData, idx: np.ndarray,
              targets: tuple[str, ...]) -> ArffRelation:
    feature_dim = data.features.shape[1]
    attrs = [AttributeDecl(f"f{j + 1}", NUMERIC) for j in range(feature_dim)]
    for t in targets:
        if t == "quadrant":
            attrs.append(AttributeDecl("quadrant", NOMINAL, QUADRANT_CLASSES))
        else:
            attrs.append(AttributeDecl(t, NUMERIC))
    columns = list(data.features[idx].T) + [getattr(data, t)[idx] for t in targets]
    return ArffRelation(name, attrs, columns)


def make_corpus(n_train: int = 2500, n_test: int = 500, seed: int = 0,
                noise: float = 0.1) -> dict[str, tuple[ArffRelation, int]]:
    """Four cross-labeling files plus a fully labeled test file.

    File 1 carries all three targets, file 2 only the quadrant classes,
    file 3 only the two regression targets, file 4 is unlabeled. Returns
    name -> (relation, num_targets).
    """
    data = generate(n_train + n_test, seed, noise=noise)
    quarter = n_train // 4
    parts = [np.arange(i * quarter, (i + 1) * quarter) for i in range(3)]
    parts.append(np.arange(3 * quarter, n_train))
    test_idx = np.arange(n_train, n_train + n_test)
    return {
        "file1": (_relation("file1", data, parts[0],
                            ("quadrant", "coord_a", "coord_v")), 3),
        "file2": (_relation("file2", data, parts[1], ("quadrant",)), 1),
        "file3": (_relation("file3", data, parts[2], ("coord_a", "coord_v")), 2),
        "file4": (_relation("file4", data, parts[3], ()), 0),
        "test": (_relation("test", data, test_idx,
                           ("quadrant", "coord_a", "coord_v")), 3),
    }
