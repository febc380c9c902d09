from pathlib import Path

import numpy as np
import pytest
from arff_columns import columns_equal, count_missing, from_rows, relation
from hypothesis import given, settings
from hypothesis import strategies as st

from xdata.arff import (NOMINAL, NUMERIC, STRING, ArffError, AttributeDecl,
                        parse_arff, write_arff)

DATA = Path(__file__).parent / "data" / "arff"


def test_parse_basic_example():
    rel = parse_arff("@relation t\n@attribute a numeric\n@attribute c {x,y}\n@data\n1.5,x\n?,y\n")
    assert rel.relation_name == "t"
    assert [a.kind for a in rel.attributes] == [NUMERIC, NOMINAL]
    assert columns_equal(rel.columns, from_rows(rel.attributes, [[1.5, 0], [None, 1]]))


def test_parse_empty_data():
    rel = parse_arff("@relation t\n@attribute a numeric\n@data\n")
    assert len(rel.attributes) == 1
    assert rel.n_rows == 0
    assert columns_equal(rel.columns, [np.zeros(0)])


def test_arity_error_carries_line_number():
    with pytest.raises(ArffError) as exc:
        parse_arff("@relation t\n@attribute a numeric\n@data\n1,2\n")
    assert exc.value.line == 4


def test_numeric_aliases_map_to_float():
    rel = parse_arff("@relation t\n@attribute a real\n@attribute b INTEGER\n@data\n1,2\n")
    assert all(a.kind == NUMERIC for a in rel.attributes)
    assert columns_equal(rel.columns, [np.array([1.0]), np.array([2.0])])


def test_nominal_matching_is_case_sensitive():
    with pytest.raises(ArffError):
        parse_arff("@relation t\n@attribute c {x,y}\n@data\nX\n")


def test_quoted_value_preserves_commas_and_spaces():
    rel = parse_arff("@relation t\n@attribute c {'a, b','c d'}\n@data\n'a, b'\n")
    assert rel.attributes[0].categories == ("a, b", "c d")
    assert columns_equal(rel.columns, [np.array([0])])


def test_write_quotes_whitespace_category():
    rel = relation("t", [AttributeDecl("c", NOMINAL, ("very happy", "ok"))], [[0]])
    text = write_arff(rel)
    assert "'very happy'" in text


def test_write_quotes_edge_whitespace():
    rel = relation("t", [AttributeDecl("s", STRING)], [["\xa0x"], [" y\t"]])
    assert parse_arff(write_arff(rel)).columns == [["\xa0x", " y\t"]]


def test_line_break_characters_other_than_newline_roundtrip():
    values = [["a\x0cb"], ["c\u2028d"], ["\x85"]]
    rel = relation("t", [AttributeDecl("s", STRING)], values)
    again = parse_arff(write_arff(rel))
    assert again.n_rows == 3
    assert again.columns == [["a\x0cb", "c\u2028d", "\x85"]]


@pytest.mark.parametrize("text", ["a\nb", "a\rb", "a\r\n"])
def test_write_rejects_newline_in_value(text):
    rel = relation("t", [AttributeDecl("s", STRING)], [["ok"], [text]])
    with pytest.raises(ArffError, match="attribute 's', row 1: .* contains a line break"):
        write_arff(rel)


def test_write_rejects_newline_in_names_and_categories():
    for name, attr in [("t\n", AttributeDecl("a", NUMERIC)),
                       ("t", AttributeDecl("a\rb", NUMERIC)),
                       ("t", AttributeDecl("c", NOMINAL, ("x", "y\nz")))]:
        with pytest.raises(ArffError, match="contains a line break"):
            write_arff(relation(name, [attr], []))


def test_write_roundtrips_float_bits():
    rel = relation("t", [AttributeDecl("a", NUMERIC)], [[0.1]])
    back = parse_arff(write_arff(rel))
    assert back.columns[0][0] == 0.1


def test_unquoted_question_mark_is_missing_quoted_is_not():
    rel = parse_arff("@relation t\n@attribute c {'?',ok}\n@data\n?\n'?'\n")
    assert columns_equal(rel.columns, [np.array([-1, 0])])


def test_whitespace_outside_quotes_is_dropped():
    rel = parse_arff("@relation t\n@attribute c {x, 'y z' }\n@attribute s string\n"
                     "@attribute n numeric\n@data\n'x' , ' cd ' , 1\n 'y z',  'cd'  ,2\n")
    assert rel.attributes[0].categories == ("x", "y z")
    assert rel.columns[0].tolist() == [0, 1]
    assert rel.columns[1] == [" cd ", "cd"]
    assert rel.columns[2].tolist() == [1.0, 2.0]


def test_escape_fixture_values():
    rel = parse_arff((DATA / "valid" / "escapes.arff").read_text(encoding="utf-8"))
    assert rel.relation_name == "esc'apes"
    assert rel.attributes[2].categories == ("x y", "plain")
    assert rel.columns[0] == ["it's", "back\\slash", "lone \\ inside", "lone\\outside\\\\too",
                              "abc", "x y", "a b c d", "\\'"]
    assert columns_equal(rel.columns[1:], [
        np.array([1.0, 2.0, 3.0, 4.0, 5.0, 2.5, np.nan, np.nan]),
        np.array([1, 0, 1, 1, 1, 0, 1, -1]),
    ])


def test_long_unterminated_quote_reports_its_line():
    cell = "'" + "x \\ " * 5000  # 20 001 characters, no closing quote
    text = "@relation t\n@attribute s string\n@data\nok\n" + cell + "\n"
    with pytest.raises(ArffError, match="unterminated quote") as exc:
        parse_arff(text)
    assert exc.value.line == 5


@pytest.mark.parametrize("snippet,err", [
    ("@relation t\n@attribute when date\n@data\n", "unsupported"),
    ("@relation t\n@attribute a numeric\n@data\n{0 1}\n", "unsupported"),
])
def test_unsupported_dialects_rejected(snippet, err):
    with pytest.raises(ArffError, match=err):
        parse_arff(snippet)


@pytest.mark.parametrize("path", sorted((DATA / "valid").glob("*.arff")))
def test_fixture_roundtrip(path):
    rel = parse_arff(path.read_text(encoding="utf-8"))
    text = write_arff(rel)
    again = parse_arff(text)
    assert again.relation_name == rel.relation_name
    assert again.attributes == rel.attributes
    assert columns_equal(again.columns, rel.columns)
    assert count_missing(again) == count_missing(rel)


@pytest.mark.parametrize("path", sorted((DATA / "malformed").glob("*.arff")))
def test_malformed_fixtures_error_with_line(path):
    with pytest.raises(ArffError) as exc:
        parse_arff(path.read_text(encoding="utf-8"))
    assert exc.value.line is not None


# ---------------------------------------------------------------------------
# property tests

_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"),
                           # with the line-break characters other than \n and \r
                           whitelist_characters=" ,'\\{}-_.?%\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    min_size=1, max_size=12,
).filter(lambda s: s.strip() != "")


@st.composite
def relations(draw):
    n_attrs = draw(st.integers(1, 4))
    names = draw(st.lists(_text, min_size=n_attrs, max_size=n_attrs, unique=True))
    attrs = []
    for name in names:
        kind = draw(st.sampled_from([NUMERIC, NOMINAL, STRING]))
        if kind == NOMINAL:
            cats = draw(st.lists(_text, min_size=1, max_size=4, unique=True))
            attrs.append(AttributeDecl(name, NOMINAL, tuple(cats)))
        else:
            attrs.append(AttributeDecl(name, kind))
    n_rows = draw(st.integers(0, 5))
    rows = []
    for _ in range(n_rows):
        row = []
        for a in attrs:
            if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
                row.append(None)
            elif a.kind == NUMERIC:
                row.append(draw(st.floats(allow_nan=False, allow_infinity=False, width=64)))
            elif a.kind == NOMINAL:
                row.append(draw(st.integers(0, len(a.categories) - 1)))
            else:
                row.append(draw(_text))
        rows.append(row)
    return relation(draw(_text), attrs, rows)


@settings(max_examples=200, deadline=None)
@given(relations())
def test_roundtrip_property(rel):
    again = parse_arff(write_arff(rel))
    assert again.relation_name == rel.relation_name
    assert again.attributes == rel.attributes
    assert again.n_rows == rel.n_rows
    assert columns_equal(again.columns, rel.columns)
