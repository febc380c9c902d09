from pathlib import Path

import numpy as np
import pytest
from arff_columns import columns_equal, count_missing, from_rows, relation
from hypothesis import given, settings
from hypothesis import strategies as st

from xdata.arff import (_CELLS, NOMINAL, NUMERIC, STRING, ArffError, AttributeDecl,
                        _column, _decoded_column, _split, format_header, format_rows,
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


@pytest.mark.parametrize("text,line", [
    ("@relation t\n@attribute s string\n@data\na\rb\n", 4),
    ("@relation t\r@attribute s string\n@data\na\n", 1),
    ("@relation t\r\n@attribute s string\r\n@data\r\nx\r\na\r\r\n", 5),
])
def test_lone_carriage_return_is_an_error_naming_the_line(text, line):
    with pytest.raises(ArffError, match=rf"^line {line}: \\r not followed by"):
        parse_arff(text)


def test_crlf_line_endings_read():
    rel = parse_arff("@relation t\r\n@attribute s string\r\n@data\r\na b\r\n")
    assert rel.columns == [["a b"]]


def test_write_rejects_newline_in_names_and_categories():
    for name, attr in [("t\n", AttributeDecl("a", NUMERIC)),
                       ("t", AttributeDecl("a\rb", NUMERIC)),
                       ("t", AttributeDecl("c", NOMINAL, ("x", "y\nz")))]:
        with pytest.raises(ArffError, match="contains a line break"):
            write_arff(relation(name, [attr], []))


_MIXED_ROWS = [
    ["it's", 0, 1.5], [None, 1, None], ["a, b", None, -0.0], ["?", 2, 1e300],
    ["plain", 0, 0.1], ["{x}", 1, float("nan")], ["", None, 2.0],
]


@pytest.mark.parametrize("n", [0, 1, 2, len(_MIXED_ROWS)])
def test_header_and_row_ranges_are_write_arff(n):
    attrs = [AttributeDecl("name s", STRING), AttributeDecl("c", NOMINAL, ("x", "y z", "?")),
             AttributeDecl("v", NUMERIC)]
    rel = relation("t t", attrs, _MIXED_ROWS[:n])
    text = write_arff(rel)
    for cut in range(n + 1):
        assert format_header(rel) + format_rows(rel, 0, cut) + format_rows(rel, cut, n) == text
    assert parse_arff(text).n_rows == n


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


# every malformed fixture's error, message and line, exactly
MALFORMED = {
    "arity.arff": ("line 4: row has 2 values but 1 attributes are declared", 4),
    "bad_nominal.arff": ("line 4: attribute 'c': value 'z' not in declared categories", 4),
    "bad_numeric.arff": ("line 4: attribute 'a': invalid numeric value 'abc'", 4),
    "data_first.arff": ("line 1: @data before @relation", 1),
    "date_attr.arff": ("line 2: attribute 'when': date attributes are unsupported", 2),
    "sparse_row.arff": ("line 5: sparse ARFF data rows are unsupported", 5),
    "unknown_decl.arff": ("line 3: unrecognized declaration: '@bogus thing'", 3),
    "unterminated_quote.arff": ("line 4: unterminated quote", 4),
}


@pytest.mark.parametrize("path", sorted((DATA / "malformed").glob("*.arff")))
def test_malformed_fixtures_error_with_line(path):
    with pytest.raises(ArffError) as exc:
        parse_arff(path.read_text(encoding="utf-8"))
    assert (str(exc.value), exc.value.line) == MALFORMED[path.name]


_HEADER = ("@relation t\n@attribute s string\n@attribute a numeric\n@attribute c {x,y}\n"
           "@data\n'n',1,x\n")


# each bad cell in a row without quotes and in a row with one
@pytest.mark.parametrize("row,message", [
    ("p,abc,x", "attribute 'a': invalid numeric value 'abc'"),
    ("'q',abc,x", "attribute 'a': invalid numeric value 'abc'"),
    ("p,,x", "attribute 'a': invalid numeric value ''"),
    ("p,'?',x", "attribute 'a': invalid numeric value '?'"),
    ("p,inf,x", "attribute 'a': non-finite value 'inf'"),
    ("p,1e400,x", "attribute 'a': non-finite value '1e400'"),
    ("'q', nan ,x", "attribute 'a': non-finite value 'nan'"),
    ("'q',' inf',x", "attribute 'a': non-finite value ' inf'"),
    ("p,1,z", "attribute 'c': value 'z' not in declared categories"),
    ("'q',1,'z'", "attribute 'c': value 'z' not in declared categories"),
])
def test_bad_cell_errors_are_pinned(row, message):
    with pytest.raises(ArffError) as exc:
        parse_arff(_HEADER + "p,2,y\n" + row + "\n")
    assert (str(exc.value), exc.value.line) == (f"line 8: {message}", 8)


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


# ---------------------------------------------------------------------------
# differential properties: each fast path against the general one it skips

# the characters other than ' ' that str.strip() removes and that may sit in a line
_STRIPPED = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u2028\u2029\u3000"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=" ,?%{0123456789" + _STRIPPED, max_size=30))
def test_quote_free_split_is_the_tokenizer(line):
    assert _split(line, 1) == _CELLS.findall(line)


# edge cases of float() and of the dialect's missing and quoted cells
_FIXED_CELLS = [" 1.5 ", "?", " ? ", "'1.5'", "'?'", "", "1_0", "nan", "inf", "1e400",
                "\x0c1.5"]
_numeric_cells = st.one_of(
    st.sampled_from(_FIXED_CELLS),
    st.floats(width=64).map(repr),
    st.builds(lambda pad, v, end: pad + repr(v) + end,
              st.text(alphabet=" " + _STRIPPED, max_size=2), st.floats(allow_nan=False),
              st.text(alphabet=" " + _STRIPPED, max_size=2)),
    st.text(alphabet="0123456789.eE+-_?' naif" + _STRIPPED, max_size=8),
)


def _outcome(convert, raw):
    """The column `convert` makes of `raw` (on lines 3, 4, ...), or its error."""
    try:
        return convert(AttributeDecl("a", NUMERIC), raw, list(range(3, 3 + len(raw))))
    except ArffError as exc:
        return str(exc), exc.line


def _same_outcome(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and \
            np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.mark.parametrize("cell", _FIXED_CELLS)
def test_numeric_fast_path_matches_decoding_on_fixed_cells(cell):
    for raw in ([cell], ["2.5", cell], [cell, "?"], ["?", "2.5", cell]):
        fast, decoded = _outcome(_column, raw), _outcome(_decoded_column, raw)
        assert _same_outcome(fast, decoded), (raw, fast, decoded)


@settings(max_examples=500, deadline=None)
@given(st.lists(_numeric_cells, max_size=6))
def test_numeric_fast_path_matches_decoding(raw):
    fast, decoded = _outcome(_column, raw), _outcome(_decoded_column, raw)
    assert _same_outcome(fast, decoded), (raw, fast, decoded)

