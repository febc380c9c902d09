"""File-permutation equivariance of the plumbing.

`train` and `mc_predict` are replaced by a row-wise deterministic stub, so a
run's outputs depend on the input rows alone, not on their order: permuting
the input files must permute the rows of completed.arff and the `instance`
column of assignments.csv, map `dataset_origin` through the same file
permutation, and change nothing else. That covers `assemble`, `split`,
selection, `apply_assignments` and the writers. (The real network's
minibatches and dropout masks follow the row order, so a real run is not
equivariant.)

Equal confidences are the documented exception: a tie goes to the lower
instance index, and that index moves when the files move.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xdata.trainer
from xdata.cli import main
from xdata.model import TaskPredictionBatch

# every file declares these targets in this order: a task's place and its
# category order come from the first file that declares it
TASKS = (("c", ("x", "y", "z")), ("b", ("n", "p")), ("r", None))


def stub_train(net, x, y, defined):
    return net


def stub_predictions(net, x, rng=None, confidence=None):
    """Per row and task, a decoded value and a confidence computed from the
    row's standardized `id` feature (column 0) alone. The ids are a
    permutation of 0..N-1, so that column's mean and deviation, and so each
    row's standardized id, are exact whatever the row order. A regression
    prediction of 0.0 is the column's mean in original units, exact in any
    row order for integer targets."""
    z = x[:, 0]
    preds = []
    for m, task in enumerate(net.tasks):
        conf = -np.exp(z * (m + 1) * 0.37) if confidence is None else np.full(len(z), confidence)
        if task.classes is None:
            decoded = np.zeros(len(z))
        else:
            decoded = ((np.floor(np.abs(z) * 7.0) + m) % task.num_classes).astype(np.intp)
        preds.append(TaskPredictionBatch(decoded, conf))
    return preds


def write_run(root: Path, files, order, k: int, name_column: bool) -> Path:
    """Write the input files in `order` (positions into `files`) and a config
    over them; return the config path."""
    header = ["@relation f"]
    if name_column:
        header.append("@attribute name string")
    header += ["@attribute id numeric", "@attribute f numeric"]
    header += [f"@attribute {t} " + ("numeric" if cats is None else "{" + ",".join(cats) + "}")
               for t, cats in TASKS]
    lines = []
    for j, d in enumerate(order, start=1):
        path = root / f"file{d}.arff"
        path.write_text("\n".join(header + ["@data"] + files[d]) + "\n", encoding="utf-8")
        lines += [f"dataset.{j}.file = {path}", f"dataset.{j}.num_targets = {len(TASKS)}"]
    lines += [f"output.dir = {root / 'out'}", f"cdlc.select_per_task = {k}",
              f"data.ignore_first_attribute = {str(name_column).lower()}",
              "net.shared_layers = 2", "net.epochs = 1", "net.mc_passes = 2"]
    cfg = root / "run.conf"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg


def run_outputs(files, order, k, name_column, predictions=stub_predictions):
    """The CLI's output files for the input files in `order`, with train and
    mc_predict stubbed."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(xdata.trainer, "train", stub_train)
        mp.setattr(xdata.trainer, "mc_predict", predictions)
        root = Path(tmp)
        assert main(["--config", str(write_run(root, files, order, k, name_column)),
                     "--quiet"]) == 0
        return {p.name: p.read_text(encoding="utf-8") for p in (root / "out").iterdir()}


@st.composite
def corpora(draw):
    """(files, order, k, name_column): 2-4 files of data rows over the `id`
    and `f` features and the TASKS targets, some cells missing, at least one
    defined; a file order; the per-task selection count."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    ids = iter(draw(st.permutations(range(sum(sizes)))))
    name_column = draw(st.booleans())
    cells = {"c": st.sampled_from(["x", "y", "z", "?"]), "b": st.sampled_from(["n", "p", "?"]),
             "r": st.one_of(st.integers(-5, 5).map(str), st.just("?"))}
    files = []
    for d, size in enumerate(sizes):
        rows = []
        for i in range(size):
            f = draw(st.floats(-1e6, 1e6, allow_nan=False))
            row = [str(next(ids)), repr(f)] + [draw(cells[t]) for t, _ in TASKS]
            rows.append(",".join(([f"'row {d}.{i}'"] if name_column else []) + row))
        files.append(rows)
    targets = [row.split(",")[-len(TASKS):] for rows in files for row in rows]
    if all(v == "?" for row in targets for v in row):
        files[0][0] = files[0][0].rsplit(",", 1)[0] + ",0"  # one defined cell
    order = draw(st.permutations(range(len(sizes))))
    return files, order, draw(st.integers(1, 4)), name_column


def data_rows(arff_text: str) -> list[str]:
    return arff_text.split("@data\n", 1)[1].splitlines()


@settings(max_examples=25, deadline=None)
@given(corpora())
def test_permuting_the_files_permutes_the_rows_and_nothing_else(corpus):
    files, order, k, name_column = corpus
    base = run_outputs(files, list(range(len(files))), k, name_column)
    moved = run_outputs(files, order, k, name_column)
    # row i of file d in the input order at hand -> its instance index
    starts = np.cumsum([0] + [len(files[d]) for d in order])
    new_index = {(d, i): starts[j] + i for j, d in enumerate(order) for i in range(len(files[d]))}
    old_index = [(d, i) for d in range(len(files)) for i in range(len(files[d]))]
    to_new = [int(new_index[key]) for key in old_index]
    new_origin = {d + 1: j + 1 for j, d in enumerate(order)}

    assert set(moved) == set(base)
    head, rows = base["completed.arff"].split("@data\n", 1)
    assert moved["completed.arff"].startswith(head + "@data\n")
    expected = [None] * len(to_new)
    for i, row in enumerate(rows.splitlines()):
        expected[to_new[i]] = row
    assert data_rows(moved["completed.arff"]) == expected

    a = list(csv.reader(base["assignments.csv"].splitlines()))
    b = list(csv.reader(moved["assignments.csv"].splitlines()))
    assert len(a) == len(b) and a[0] == b[0]
    for ra, rb in zip(a[1:], b[1:]):
        it, inst, origin, *rest = ra
        assert rb == [it, str(to_new[int(inst)]), str(new_origin[int(origin)]), *rest]

    assert moved["iterations.csv"] == base["iterations.csv"]
    # the configuration echo lists the files in their order; the rest is equal
    assert (moved["report.txt"].split("\nstatus:", 1)[1]
            == base["report.txt"].split("\nstatus:", 1)[1])


def test_equal_confidences_go_to_the_lower_instance():
    # the documented exception: with every confidence equal, each round
    # fills the k open cells of the lowest instance indices, so which rows
    # a round fills follows the file order
    files = [[f"{i},0.5,?,n,1" for i in range(3)], [f"{i},0.5,?,p,2" for i in range(3, 6)]]
    def tied(net, x, rng=None):
        return stub_predictions(net, x, rng, confidence=-0.5)

    runs = [run_outputs(files, order, 2, False, tied) for order in ([0, 1], [1, 0])]
    for out in runs:
        rows = list(csv.DictReader(out["assignments.csv"].splitlines()))
        assert [(r["iteration"], r["task"], r["instance"]) for r in rows] == [
            ("0", "c", "0"), ("0", "c", "1"), ("1", "c", "2"), ("1", "c", "3"),
            ("2", "c", "4"), ("2", "c", "5")]
    # round 0 fills the rows of ids 0 and 1 in one file order, 3 and 4 in the other
    filled = []
    for out in runs:
        ids = [row.split(",")[0] for row in data_rows(out["completed.arff"])]
        rows = csv.DictReader(out["assignments.csv"].splitlines())
        filled.append([ids[int(r["instance"])] for r in rows if r["iteration"] == "0"])
    assert filled == [["0.0", "1.0"], ["3.0", "4.0"]]
