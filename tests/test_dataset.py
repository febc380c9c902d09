import numpy as np
import pytest
from arff_columns import count_missing, relation
from hypothesis import given, settings
from hypothesis import strategies as st

from xdata.arff import NOMINAL, NUMERIC, STRING, ArffRelation, AttributeDecl
from xdata.dataset import (MULTICLASS, REGRESSION, DatasetError,
                           MultiTargetDataset, TaskSchema, assemble, assemble_eval,
                           drop_labels, split, standardize, to_relation)
from xdata.arff import parse_arff, write_arff


def _rel(name, features, targets, rows):
    attrs = [AttributeDecl(f, NUMERIC) for f in features]
    for tname, cats in targets:
        if cats is None:
            attrs.append(AttributeDecl(tname, NUMERIC))
        else:
            attrs.append(AttributeDecl(tname, NOMINAL, cats))
    return relation(name, attrs, rows), len(targets)


EMOTIONS = ("ang", "hap", "sad", "neu")


def four_file_corpus():
    a = _rel("A", ["f1", "f2"], [("emotion", EMOTIONS), ("arousal", None)],
             [[0.1, 0.2, 0, 1.5], [0.3, 0.4, 2, None]])
    b = _rel("B", ["f1", "f2"], [("emotion", EMOTIONS)], [[1.0, 1.1, 3]])
    c = _rel("C", ["f1", "f2"], [("arousal", None), ("valence", None)],
             [[2.0, 2.1, 0.5, -0.5]])
    d = _rel("D", ["f1", "f2"], [], [[3.0, 3.1], [3.2, 3.3]])
    return [a, b, c, d]


class TestAssemble:
    def test_task_union_over_files(self):
        ds = assemble(four_file_corpus())
        assert [t.name for t in ds.tasks] == ["emotion", "arousal", "valence"]
        assert ds.tasks[0].kind == MULTICLASS
        assert ds.tasks[1].kind == REGRESSION
        assert ds.n_instances == 6
        # unlabeled file contributes all-undefined rows
        assert not ds.defined[ds.origin == 4].any()

    def test_zero_tasks_is_error(self):
        rel, _ = _rel("only", ["f1"], [], [[1.0]])
        with pytest.raises(DatasetError, match="at least one task"):
            assemble([(rel, 0)])

    @pytest.mark.parametrize("ignore_first", [False, True])
    def test_no_feature_attribute_is_error_naming_file_1(self, ignore_first):
        # every attribute a target, or a target and the ignored first one;
        # file 2's features would not match file 1's either way
        attrs = [AttributeDecl("y", NOMINAL, ("p", "q"))]
        if ignore_first:
            attrs.insert(0, AttributeDecl("name", STRING))
        rel = relation("A", attrs, [])
        other, _ = _rel("B", ["f1"], [("y", ("p", "q"))], [])
        for files in ([(rel, 1)], [(rel, 1), (other, 1)]):
            with pytest.raises(DatasetError, match="^file 1: no feature attribute: the "
                                                   "network needs at least one input$"):
                assemble(files, ignore_first_attribute=ignore_first)

    def test_category_set_conflict(self):
        a = _rel("A", ["f1"], [("emotion", ("x", "y", "z"))], [])
        b = _rel("B", ["f1"], [("emotion", ("x", "y", "q"))], [])
        with pytest.raises(DatasetError, match="category sets"):
            assemble([a, b])

    def test_kind_conflict(self):
        a = _rel("A", ["f1"], [("t", None)], [])
        b = _rel("B", ["f1"], [("t", ("x", "y"))], [])
        for files, kinds in (([a, b], "numeric vs nominal"), ([b, a], "nominal vs numeric")):
            with pytest.raises(DatasetError, match=rf"^task 't': kind conflict \({kinds}\)$"):
                assemble(files)

    @pytest.mark.parametrize("first", [0, 1])
    def test_category_counts_that_differ_are_a_category_set_conflict(self, first):
        # two categories in one file and three in the other: one nominal
        # kind to the network, so the sets, not the kinds, conflict
        files = [_rel("A", ["f1"], [("e", ("x", "y"))], []),
                 _rel("B", ["f1"], [("e", ("x", "y", "z"))], [])]
        with pytest.raises(DatasetError, match=r"^task 'e': nominal category sets differ$"):
            assemble([files[first], files[1 - first]])

    def test_feature_mismatch(self):
        a = _rel("A", ["f1", "f2"], [("t", None)], [])
        b = _rel("B", ["f1", "g2"], [("t", None)], [])
        with pytest.raises(DatasetError, match="do not match"):
            assemble([a, b])

    def test_string_feature_rejected(self):
        rel = relation("A", [AttributeDecl("id", STRING),
                             AttributeDecl("t", NUMERIC)], [])
        with pytest.raises(DatasetError, match="string"):
            assemble([(rel, 1)])

    def test_ignore_first_attribute(self):
        rel = relation("A", [AttributeDecl("id", STRING),
                             AttributeDecl("f1", NUMERIC),
                             AttributeDecl("t", NUMERIC)],
                       [["row1", 1.0, 2.0]])
        ds = assemble([(rel, 1)], ignore_first_attribute=True)
        assert ds.feature_names == ["f1"]
        assert ds.labels[0, 0] == 2.0

    def test_category_order_from_first_file(self):
        a = _rel("A", ["f1"], [("e", ("x", "y", "z"))], [[0.0, 1]])
        b = _rel("B", ["f1"], [("e", ("z", "x", "y"))], [[0.0, 0]])
        ds = assemble([a, b])
        assert ds.tasks[0].classes == ("x", "y", "z")
        # file B's index 0 is "z" which is index 2 in the merged order
        assert ds.labels[1, 0] == 2

    def test_two_category_nominal_is_multiclass(self):
        # one classification kind, whatever the category count
        a = _rel("A", ["f1"], [("flag", ("no", "yes")), ("e", EMOTIONS)], [[0.0, 1, 3]])
        ds = assemble([a])
        assert [(t.kind, t.num_classes) for t in ds.tasks] == [(MULTICLASS, 2), (MULTICLASS, 4)]

    @pytest.mark.parametrize("kind", ["Regression", "binary"])
    def test_unknown_task_kind_is_rejected_naming_task_and_kind(self, kind):
        # the network treats every kind but regression as classification
        with pytest.raises(DatasetError, match=rf"^task 'v': unknown kind '{kind}' "
                                               r"\(expected multiclass or regression\)$"):
            TaskSchema("v", kind, ("x", "y"))

    @pytest.mark.parametrize("classes", [None, (), ("x",)])
    def test_nominal_task_needs_two_categories(self, classes):
        with pytest.raises(DatasetError,
                           match=rf"^task 'v' needs at least two categories, got {len(classes or ())}$"):
            TaskSchema("v", MULTICLASS, classes)

    def test_regression_task_cannot_have_classes(self):
        with pytest.raises(DatasetError, match=r"^regression task 'v' cannot have classes$"):
            TaskSchema("v", REGRESSION, ("x", "y"))

    def test_row_permutation_stability(self):
        files = four_file_corpus()
        ds1 = assemble(files)
        rel, nt = files[0]
        rel_perm = ArffRelation(rel.relation_name, rel.attributes,
                                [c[::-1] for c in rel.columns])
        ds2 = assemble([(rel_perm, nt)] + files[1:])
        assert [t.name for t in ds2.tasks] == [t.name for t in ds1.tasks]
        n0 = rel.n_rows
        assert np.array_equal(ds2.features[:n0], ds1.features[:n0][::-1])
        assert np.array_equal(ds2.defined[:n0], ds1.defined[:n0][::-1])
        assert np.array_equal(ds2.features[n0:], ds1.features[n0:])


class TestSplit:
    def test_fully_labeled(self):
        ds = assemble(four_file_corpus())
        ds.defined[:] = True
        v = split(ds)
        assert len(v.incomplete_indices) == 0
        assert len(v.labeled_indices) == ds.n_instances

    def test_fully_unlabeled(self):
        ds = assemble(four_file_corpus())
        ds.defined[:] = False
        v = split(ds)
        assert len(v.labeled_indices) == 0
        assert len(v.incomplete_indices) == ds.n_instances

    def test_partial_row_in_both_sets(self):
        ds = assemble(four_file_corpus())
        v = split(ds)
        # row 1 of file A has emotion but not arousal/valence
        assert 1 in v.labeled_indices and 1 in v.incomplete_indices

    def test_cardinality_identity(self):
        ds = assemble(four_file_corpus())
        v = split(ds)
        all_undef = (~ds.defined).all(axis=1).sum()
        assert len(v.labeled_indices) + all_undef == ds.n_instances


class TestDropLabels:
    def _ds(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        rows = [[float(x) for x in rng.normal(size=2)] + [float(rng.normal())]
                for _ in range(n)]
        rel, nt = _rel("A", ["f1", "f2"], [("t", None)], rows)
        return assemble([(rel, nt)])

    def test_fraction_zero_is_identity(self):
        ds = self._ds()
        out = drop_labels(ds, 0.0, seed=3)
        assert np.array_equal(out.defined, ds.defined)
        assert np.array_equal(out.labels, ds.labels)

    def test_fraction_one_clears_everything(self):
        ds = self._ds()
        out = drop_labels(ds, 1.0, seed=3)
        assert not out.defined.any()

    def test_exact_count_and_seed_determinism(self):
        ds = self._ds(n=100)
        out1 = drop_labels(ds, 0.75, seed=5)
        out2 = drop_labels(ds, 0.75, seed=5)
        assert out1.defined[:, 0].sum() == 25
        assert np.array_equal(out1.defined, out2.defined)
        # input untouched, features untouched
        assert ds.defined.all()
        assert np.array_equal(out1.features, ds.features)

    def test_different_seed_differs(self):
        ds = self._ds(n=100)
        a = drop_labels(ds, 0.5, seed=1)
        b = drop_labels(ds, 0.5, seed=2)
        assert not np.array_equal(a.defined, b.defined)


class TestStandardize:
    def test_constant_column_zeroed(self):
        rel, nt = _rel("A", ["f1"], [("t", None)], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        ds = assemble([(rel, nt)])
        _, sz = standardize(ds)
        assert np.allclose(sz.transform_features(ds.features)[:, 0], 0.0)
        assert sz.feature_std[0] == 1.0

    def test_two_point_column(self):
        rel, nt = _rel("A", ["f1"], [("t", None)], [[0.0, 0.0], [2.0, 1.0]])
        ds = assemble([(rel, nt)])
        _, sz = standardize(ds)
        assert np.allclose(sz.transform_features(ds.features)[:, 0], [-1.0, 1.0])

    def test_regression_target_standardized_over_defined_cells(self):
        rel, nt = _rel("A", ["f1"], [("t", None)],
                       [[0.0, 2.0], [1.0, 4.0], [2.0, None]])
        ds = assemble([(rel, nt)])
        out, sz = standardize(ds)
        assert np.allclose(out.labels[:2, 0], [-1.0, 1.0])
        assert abs(sz.inverse_target(0, out.labels[0, 0]) - 2.0) < 1e-12
        assert abs(sz.inverse_target(0, out.labels[1, 0]) - 4.0) < 1e-12

    def test_every_other_column_keeps_the_identity_map(self):
        # a nominal column, and a regression column without a defined cell,
        # map through mean 0.0 and divisor 1.0; undefined cells stay 0.0
        rel, nt = _rel("A", ["f1"], [("e", EMOTIONS), ("r", None), ("s", None)],
                       [[0.0, 3, None, 5.0], [1.0, None, None, 7.0], [2.0, 0, None, None]])
        ds = assemble([(rel, nt)])
        out, sz = standardize(ds)
        assert sz.target_mean.tolist() == [0.0, 0.0, 6.0]
        assert sz.target_std.tolist() == [1.0, 1.0, 1.0]
        assert out.labels.tolist() == [[3.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        assert np.array_equal(out.defined, ds.defined)
        assert sz.inverse_target(0, out.labels[:, 0]).tolist() == [3.0, 0.0, 0.0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    def test_inverse_recovers_features(self, col):
        rows = [[v, 0.0] for v in col]
        rel, nt = _rel("A", ["f1"], [("t", None)], rows)
        ds = assemble([(rel, nt)])
        _, sz = standardize(ds)
        back = sz.transform_features(ds.features) * sz.feature_std + sz.feature_mean
        assert np.allclose(back[:, 0], ds.features[:, 0], atol=1e-9)


# columns of one feature matrix: any finite values, constant columns (the
# divisor 1.0), signed zeros and magnitudes far apart
_feature_column = st.one_of(
    st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=1, max_size=12),
    st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -7.5, 1e150]), st.integers(1, 12))
    .map(lambda t: [t[0]] * t[1]),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_feature_column, min_size=1, max_size=5), st.data())
def test_standardizing_gathered_rows_in_place_is_gathering_standardized_rows(columns, data):
    n = min(map(len, columns))
    x = np.array([c[:n] for c in columns]).T
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    ds = MultiTargetDataset(x, np.zeros((n, 1)), np.ones((n, 1), dtype=bool),
                            [TaskSchema("t", REGRESSION)], np.ones(n, dtype=int),
                            [f"f{j}" for j in range(x.shape[1])])
    _, sz = standardize(ds)
    whole = sz.transform_features(ds.features)
    gathered = ds.features[rows]
    out = sz.transform_features(gathered, out=gathered)
    assert out is gathered
    assert out.tobytes() == whole[rows].tobytes()


def test_merged_arff_roundtrip():
    ds = assemble(four_file_corpus())
    rel = to_relation(ds)
    again = parse_arff(write_arff(rel))
    assert again.n_rows == ds.n_instances
    # undefined label cells serialize as missing
    assert count_missing(again) == int((~ds.defined).sum())


def test_assemble_eval_matches_schema():
    files = four_file_corpus()
    ds = assemble(files)
    test_rel, _ = _rel("T", ["f1", "f2"],
                       [("emotion", EMOTIONS), ("arousal", None), ("valence", None)],
                       [[0.0, 0.0, 1, 0.3, 0.4]])
    ev = assemble_eval(test_rel, ds)
    assert [t.name for t in ev.tasks] == [t.name for t in ds.tasks]
    assert ev.defined[0].all()
    assert ev.labels[0, 0] == 1


@pytest.mark.parametrize("train_cats,test_cats", [(("x", "y"), ("x", "y", "z")),
                                                   (("x", "y", "z"), ("x", "y"))])
def test_assemble_eval_category_counts_that_differ_are_a_category_set_conflict(
        train_cats, test_cats):
    ds = assemble([_rel("A", ["f1"], [("e", train_cats)], [[0.0, 1]])])
    test_rel, _ = _rel("T", ["f1"], [("e", test_cats)], [[0.0, 1]])
    with pytest.raises(DatasetError,
                       match=r"^evaluation task 'e': nominal category sets differ$"):
        assemble_eval(test_rel, ds)


@pytest.mark.parametrize("train_cats,test_cats,kinds", [(None, ("x", "y"), "numeric vs nominal"),
                                                        (("x", "y"), None, "nominal vs numeric")])
def test_assemble_eval_kind_conflict_names_both_kinds(train_cats, test_cats, kinds):
    ds = assemble([_rel("A", ["f1"], [("e", train_cats)], [[0.0, 1]])])
    test_rel, _ = _rel("T", ["f1"], [("e", test_cats)], [[0.0, 1]])
    with pytest.raises(DatasetError, match=rf"^evaluation task 'e': kind conflict \({kinds}\)$"):
        assemble_eval(test_rel, ds)


def test_missing_feature_error_names_file_row_and_attribute():
    files = four_file_corpus()
    bad, nt = _rel("B", ["f1", "f2"], [("emotion", EMOTIONS)],
                   [[1.0, 1.1, 3], [1.2, None, 0]])
    with pytest.raises(DatasetError, match=r"file 2, row 2: missing value in feature 'f2'"):
        assemble([files[0], (bad, nt)])
    ds = assemble(files)
    test_rel, _ = _rel("T", ["f1", "f2"], [("emotion", EMOTIONS)], [[None, 0.0, 1]])
    with pytest.raises(DatasetError,
                       match=r"evaluation file, row 1: missing value in feature 'f1'"):
        assemble_eval(test_rel, ds)


@pytest.mark.parametrize("attr", [AttributeDecl("f1", NOMINAL, ("lo", "hi")),
                                  AttributeDecl("f1", STRING)])
def test_assemble_eval_rejects_non_numeric_feature(attr):
    ds = assemble(four_file_corpus())
    test_rel = relation("T", [attr, AttributeDecl("f2", NUMERIC),
                              AttributeDecl("emotion", NOMINAL, EMOTIONS)],
                        [[1 if attr.kind == NOMINAL else "hi", 0.0, 1]])
    with pytest.raises(DatasetError, match=rf"evaluation file: {attr.kind} attribute 'f1' "
                                           "cannot be a feature"):
        assemble_eval(test_rel, ds)


def test_to_relation_rejects_non_finite_defined_label():
    ds = assemble(four_file_corpus())
    assert ds.defined[0, 1]  # arousal of the first instance
    ds.labels[0, 1] = np.nan
    with pytest.raises(DatasetError, match=r"task 'arousal', row 1: non-finite value"):
        to_relation(ds)


class TestSharedFeatures:
    """One feature matrix per feature space: derivations that change only the
    label grid share `features` and `origin`, which are read-only."""

    def test_assembled_features_and_origin_are_read_only(self):
        ds = assemble(four_file_corpus())
        ev = assemble_eval(_rel("T", ["f1", "f2"], [("emotion", EMOTIONS)],
                                [[0.0, 0.0, 1]])[0], ds)
        std, _ = standardize(ds)
        for d in (ds, ev, std):
            with pytest.raises(ValueError, match="read-only"):
                d.features[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                d.origin[0] = 1

    def test_construction_leaves_the_callers_array_writable(self):
        x = np.arange(6.0).reshape(3, 2)
        ds = MultiTargetDataset(x, np.zeros((3, 1)), np.ones((3, 1), dtype=bool),
                                [TaskSchema("t", REGRESSION)], np.ones(3, dtype=int),
                                ["f1", "f2"])
        assert not ds.features.flags.writeable and np.shares_memory(ds.features, x)
        x[0, 0] = -1.0  # the caller still owns its array
        assert ds.features[0, 0] == -1.0

    def test_copy_and_drop_labels_share_only_features_and_origin(self):
        ds = assemble(four_file_corpus())
        for out in (ds.copy(), drop_labels(ds, 0.5, seed=1)):
            assert np.shares_memory(out.features, ds.features)
            assert np.shares_memory(out.origin, ds.origin)
            assert not np.shares_memory(out.labels, ds.labels)
            assert not np.shares_memory(out.defined, ds.defined)

    def test_standardize_shares_the_features_and_copies_the_labels(self):
        ds = assemble(four_file_corpus())
        before = ds.labels.copy(), ds.defined.copy()
        std, _ = standardize(ds)
        assert std.features is ds.features and std.origin is ds.origin
        assert not np.shares_memory(std.labels, ds.labels)
        assert not np.shares_memory(std.defined, ds.defined)
        assert np.array_equal(ds.labels, before[0]) and np.array_equal(ds.defined, before[1])

    def test_to_relation_views_the_features_and_writes_the_same_text(self):
        ds = assemble(four_file_corpus())
        rel = to_relation(ds)
        views = rel.columns[:ds.n_features]
        assert all(np.shares_memory(c, ds.features) and not c.flags.contiguous
                   for c in views)
        rel.validate()  # strided 1-D float64 views are valid columns
        # the text of the same relation over contiguous copies of the columns
        copied = ArffRelation(rel.relation_name, rel.attributes,
                              [c.copy() for c in rel.columns])
        assert write_arff(rel) == write_arff(copied)
