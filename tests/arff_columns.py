"""Test helpers for the columnar ARFF relation: build columns from row lists
(``None`` for a missing cell) and compare or count cells column by column."""

import numpy as np

from xdata.arff import NOMINAL, NUMERIC, ArffRelation


def from_rows(attributes, rows):
    columns = []
    for j, attr in enumerate(attributes):
        cells = [row[j] for row in rows]
        if attr.kind == NUMERIC:
            columns.append(np.array([np.nan if v is None else v for v in cells], dtype=np.float64))
        elif attr.kind == NOMINAL:
            columns.append(np.array([-1 if v is None else v for v in cells], dtype=np.int64))
        else:
            columns.append(cells)
    return columns


def relation(name, attributes, rows):
    return ArffRelation(name, attributes, from_rows(attributes, rows))


def columns_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


def count_missing(rel):
    total = 0
    for attr, col in zip(rel.attributes, rel.columns):
        if attr.kind == NUMERIC:
            total += int(np.isnan(col).sum())
        elif attr.kind == NOMINAL:
            total += int((col < 0).sum())
        else:
            total += sum(v is None for v in col)
    return total
