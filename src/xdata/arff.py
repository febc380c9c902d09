"""Reading and writing datasets in the Attribute Relation File Format (ARFF).

Supported dialect: ``%`` comment lines, ``@relation``, ``@attribute`` with
``numeric``/``real``/``integer`` (all stored as 64-bit float), ``string``, or a
``{v1,v2,...}`` nominal specification, then ``@data`` with comma-separated
rows. An unquoted ``?`` denotes a missing value. Keywords are case-insensitive,
and a declaration's keyword ends at whitespace, a quote or the end of the line
(``@relationx`` is no ``@relation``). Names and values may be single-quoted
(embedded commas and spaces preserved, ``\\'`` and ``\\\\`` are escapes inside
quotes, any other backslash is literal). Whitespace outside quotes at the edges
of a value is dropped. Lines split at ``\n`` only (a ``\r`` before it is
dropped, any other ``\r`` is an error); the writer rejects text holding ``\n``
or ``\r``, which the dialect cannot escape. Date, relational and sparse-ARFF
syntax are rejected as unsupported.

Tokenizing: a data row is split at every comma with ``str.split`` when that
is provably what the dialect's one regular expression finds: the row holds no
quote, or it holds no backslash, an even number of quotes and no comma
between a pair of them. Any other row is matched by that expression, which
keeps quoted commas in their cell and finds an unterminated quote. A cell that
is exactly one quoted segment without a backslash is read as its inside; any
other quoted cell is unescaped segment by segment. A numeric value is read by
Python's ``float()``, so its grammar is ``float``'s (``1e3``, ``1_0``, Unicode
digits); ``nan``, ``inf`` and values that overflow to infinity are rejected as
non-finite. A numeric column whose cells are each a bare ``?`` or convert to a
finite float as they stand is one ``map(float)``, ``?`` read as NaN; any other
column (a quoted cell, a ``?`` with whitespace beside it, a bad value) is
decoded cell by cell, and that path alone raises errors.

A relation holds one column per attribute, all of the same length:

- numeric: a float64 array, NaN for missing;
- nominal: an int64 array of indices into the attribute's categories, -1 for
  missing;
- string: a list of ``str``, ``None`` for missing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

NUMERIC = "numeric"
NOMINAL = "nominal"
STRING = "string"

Column = Union[np.ndarray, list]

# A single-quoted segment; the escape rules of the dialect live here only.
_QUOTED = r"'(?:[^'\\]|\\['\\]|\\(?!['\\]))*'"
# The tokenizer: each match is one comma-separated cell (unquoted text and
# quoted segments in any order, quotes kept). A quote it cannot close leaves
# characters outside every match, which `_split` detects by length.
_CELLS = re.compile(rf"(?:^|,)((?:[^',]+|{_QUOTED})*)")
_SEGMENT = re.compile(_QUOTED)
_ESCAPE = re.compile(r"\\(['\\])")
# A missing numeric cell as float() reads it (cells with edge whitespace are decoded).
_MISSING_AS_NAN = {"?": "nan"}
# The writer quotes a value holding whitespace (an unquoted name ends at it),
# the separator, the quote, or a comment or sparse-row marker.
_UNSAFE = re.compile(r"[\s,'%{}]")
# A \r that does not end its line (the one ending a line is half of \r\n).
_LONE_CR = re.compile(r"\r(?!\n?\Z)")
# A declaration's keyword, which ends at whitespace, a quote or the end of the line.
_KEYWORD = re.compile(r"@(relation|attribute|data)(?=[\s']|\Z)", re.IGNORECASE)


class ArffError(ValueError):
    """Raised for any syntactic or semantic problem in an ARFF document."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    kind: str  # NUMERIC, NOMINAL or STRING
    categories: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not self.name:
            raise ArffError("attribute name must be non-empty")
        if self.kind not in (NUMERIC, NOMINAL, STRING):
            raise ArffError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NOMINAL:
            if not self.categories:
                raise ArffError(f"nominal attribute {self.name!r} has no categories")
            if len(set(self.categories)) != len(self.categories):
                raise ArffError(f"nominal attribute {self.name!r} has duplicate categories")
        elif self.categories is not None:
            raise ArffError(f"attribute {self.name!r}: categories only allowed for nominal kind")


@dataclass
class ArffRelation:
    relation_name: str
    attributes: list[AttributeDecl]
    columns: list[Column]  # one per attribute, encoded as in the module docstring

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def validate(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ArffError("duplicate attribute names")
        _reject_line_break(self.relation_name, "relation name")
        for attr in self.attributes:
            for text in (attr.name, *(attr.categories or ())):
                _reject_line_break(text, f"attribute {attr.name!r}")
        if len(self.columns) != len(self.attributes):
            raise ArffError(f"{len(self.columns)} columns for {len(self.attributes)} attributes")
        n = self.n_rows
        for attr, col in zip(self.attributes, self.columns):
            if len(col) != n:
                raise ArffError(f"attribute {attr.name!r}: {len(col)} values, expected {n}")
            if attr.kind == STRING:
                if not all(v is None or isinstance(v, str) for v in col):
                    raise ArffError(f"attribute {attr.name!r}: expected str or None values")
                for row, v in enumerate(col):
                    if v is not None:
                        _reject_line_break(v, f"attribute {attr.name!r}, row {row}")
                continue
            dtype = np.float64 if attr.kind == NUMERIC else np.int64
            if not isinstance(col, np.ndarray) or col.dtype != dtype or col.ndim != 1:
                raise ArffError(f"attribute {attr.name!r}: expected a 1-D {np.dtype(dtype)} array")
            bad = col[np.isinf(col) if attr.kind == NUMERIC
                      else (col < -1) | (col >= len(attr.categories))]
            if len(bad):
                raise ArffError(f"attribute {attr.name!r}: value {bad[0]} out of range")


def _reject_line_break(text: str, where: str) -> None:
    if "\n" in text or "\r" in text:  # lines split at \n; no escape exists for either
        raise ArffError(f"{where}: {text!r} contains a line break")


# ---------------------------------------------------------------------------
# parsing


def _unquote(match: re.Match) -> str:
    return _ESCAPE.sub(r"\1", match[0][1:-1])


def _split(text: str, lineno: int) -> list[str]:
    """The raw comma-separated cells of `text`, quotes and whitespace kept."""
    # without a backslash, an even number of quotes pairs up into segments
    # that all close; if none of them (the odd pieces between quotes) holds a
    # comma, every comma separates cells, which is what _CELLS finds
    if "'" not in text or ("\\" not in text and not text.count("'") % 2
                           and not any("," in s for s in text.split("'")[1::2])):
        return text.split(",")
    cells = _CELLS.findall(text)
    if sum(map(len, cells)) + len(cells) - 1 != len(text):
        raise ArffError("unterminated quote", lineno)
    return cells


def _decode(raw: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """Cell values with edge whitespace outside quotes dropped and quoted
    segments unescaped, and the mask of missing (unquoted ``?``) cells."""
    stripped = list(map(str.strip, raw))
    missing = np.array([t == "?" for t in stripped], dtype=bool)
    # a cell that is one quoted segment without an escape is its inside
    return [t if "'" not in t
            else t[1:-1] if t[0] == t[-1] == "'" and t.count("'") == 2 and "\\" not in t
            else _SEGMENT.sub(_unquote, t) for t in stripped], missing


def _parse_name_and_rest(text: str, lineno: int) -> tuple[str, str]:
    """Parse a possibly-quoted leading token, return (token, remainder)."""
    text = text.lstrip()
    if text.startswith("'"):
        match = _SEGMENT.match(text)
        if match is None:
            raise ArffError("unterminated quote", lineno)
        return _unquote(match), text[match.end():]
    parts = text.split(None, 1)
    if not parts:
        raise ArffError("expected a name", lineno)
    return parts[0], parts[1] if len(parts) > 1 else ""


def _parse_attribute(rest: str, lineno: int) -> AttributeDecl:
    name, type_text = _parse_name_and_rest(rest, lineno)
    if not name:
        raise ArffError("empty attribute name", lineno)
    type_text = type_text.strip()
    if not type_text:
        raise ArffError(f"attribute {name!r} has no type", lineno)
    if type_text.startswith("{"):
        if not type_text.endswith("}"):
            raise ArffError(f"attribute {name!r}: unterminated nominal specification", lineno)
        cats, _ = _decode(_split(type_text[1:-1], lineno))
        if any(c == "" for c in cats):
            raise ArffError(f"attribute {name!r}: empty nominal category", lineno)
        if len(set(cats)) != len(cats):
            raise ArffError(f"attribute {name!r}: duplicate nominal categories", lineno)
        return AttributeDecl(name, NOMINAL, tuple(cats))
    keyword = type_text.split()[0].lower()
    if keyword in ("numeric", "real", "integer"):
        return AttributeDecl(name, NUMERIC)
    if keyword == "string":
        return AttributeDecl(name, STRING)
    if keyword == "date":
        raise ArffError(f"attribute {name!r}: date attributes are unsupported", lineno)
    if keyword == "relational":
        raise ArffError(f"attribute {name!r}: relational attributes are unsupported", lineno)
    raise ArffError(f"attribute {name!r}: unknown type {type_text!r}", lineno)


def _column(attr: AttributeDecl, raw: list[str], linenos: list[int]) -> Column:
    """Convert one attribute's raw cells (line `linenos[i]` holds cell i)."""
    if attr.kind == NUMERIC:
        # float() strips what str.strip() strips and rejects quotes and empty
        # cells, so with each bare '?' read as 'nan' a column whose only
        # non-finite values are those cells needs no decoding; any other
        # column is decoded, and only that path raises the errors
        try:
            column = np.array(list(map(float, map(_MISSING_AS_NAN.get, raw, raw))),
                              dtype=np.float64)
        except ValueError:
            pass
        else:
            if np.count_nonzero(~np.isfinite(column)) == raw.count("?"):
                return column
    return _decoded_column(attr, raw, linenos)


def _decoded_column(attr: AttributeDecl, raw: list[str], linenos: list[int]) -> Column:
    """`_column` cell by cell: decode every cell, then convert it."""
    values, missing = _decode(raw)
    if attr.kind == STRING:
        return [None if m else v for v, m in zip(values, missing.tolist())]
    if attr.kind == NOMINAL:
        index = {c: i for i, c in enumerate(attr.categories)}
        codes = np.array([index.get(v, -1) for v in values], dtype=np.int64)
        codes[missing] = -1
        bad = np.flatnonzero((codes < 0) & ~missing)
        if len(bad):
            raise ArffError(f"attribute {attr.name!r}: value {values[bad[0]]!r} not in "
                            "declared categories", linenos[bad[0]])
        return codes
    try:
        column = np.array([np.nan if m else float(v) for v, m in zip(values, missing.tolist())],
                          dtype=np.float64)
    except ValueError:
        i = next(i for i, v in enumerate(values) if not (missing[i] or _is_float(v)))
        raise ArffError(f"attribute {attr.name!r}: invalid numeric value {values[i]!r}",
                        linenos[i]) from None
    bad = np.flatnonzero(~np.isfinite(column) & ~missing)
    if len(bad):
        raise ArffError(f"attribute {attr.name!r}: non-finite value {values[bad[0]]!r}",
                        linenos[bad[0]])
    return column


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_data(lines: list[str], first_lineno: int,
                attributes: list[AttributeDecl]) -> list[Column]:
    n = len(attributes)
    cells: list[str] = []  # row-major, n per row
    linenos: list[int] = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line[0] == "%":
            continue
        if line[0] == "{":
            raise ArffError("sparse ARFF data rows are unsupported", lineno)
        row = _split(line, lineno)
        if len(row) != n:
            raise ArffError(f"row has {len(row)} values but {n} attributes are declared",
                            lineno)
        cells += row
        linenos.append(lineno)
    return [_column(a, cells[j::n], linenos) for j, a in enumerate(attributes)]


def parse_arff(text: str) -> ArffRelation:
    """Parse the ARFF document `text` into an :class:`ArffRelation`.

    Pass a file's decoded bytes with their line ends as they are: a text-mode
    read turns a lone ``\\r`` into a line break, which hides its error.
    Raises :class:`ArffError` with a line number on any malformed input.
    """
    # every line is stripped before use, which drops the \r of a \r\n ending
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if "\r" in line and _LONE_CR.search(line):
            raise ArffError("\\r not followed by \\n (only \\n and \\r\\n end a line)", lineno)

    relation_name: Optional[str] = None
    attributes: list[AttributeDecl] = []
    names: set[str] = set()  # of `attributes`

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        keyword = _KEYWORD.match(line)
        declared, rest = (keyword[1].lower(), line[keyword.end():]) if keyword else (None, "")
        if declared == "relation":
            if relation_name is not None:
                raise ArffError("duplicate @relation declaration", lineno)
            name, rest = _parse_name_and_rest(rest, lineno)
            if rest.strip():
                raise ArffError(f"unexpected text after relation name: {rest.strip()!r}", lineno)
            relation_name = name
        elif declared == "attribute":
            if relation_name is None:
                raise ArffError("@attribute before @relation", lineno)
            attr = _parse_attribute(rest, lineno)
            if attr.name in names:
                raise ArffError(f"duplicate attribute name {attr.name!r}", lineno)
            attributes.append(attr)
            names.add(attr.name)
        elif declared == "data":
            if relation_name is None:
                raise ArffError("@data before @relation", lineno)
            if not attributes:
                raise ArffError("@data with no attributes declared", lineno)
            if rest.strip():
                raise ArffError("unexpected text after @data", lineno)
            columns = _parse_data(lines[lineno:], lineno + 1, attributes)
            return ArffRelation(relation_name, attributes, columns)
        else:
            raise ArffError(f"unrecognized declaration: {line!r}", lineno)

    if relation_name is None:
        raise ArffError("missing @relation declaration")
    raise ArffError("missing @data section")


# ---------------------------------------------------------------------------
# writing


def _quote(text: str) -> str:
    if text not in ("", "?") and not _UNSAFE.search(text):
        return text
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _format(attr: AttributeDecl, column: Column) -> list[str]:
    if attr.kind == STRING:
        return ["?" if v is None else _quote(v) for v in column]
    if attr.kind == NOMINAL:
        labels = np.array([_quote(c) for c in attr.categories] + ["?"], dtype=object)
        return labels[column].tolist()
    return ["?" if v != v else repr(v) for v in column.tolist()]  # v != v: NaN


def format_header(relation: ArffRelation) -> str:
    """The ARFF text of a valid relation up to and including its ``@data`` line."""
    out = [f"@relation {_quote(relation.relation_name)}"]
    for attr in relation.attributes:
        if attr.kind == NOMINAL:
            spec = "{" + ",".join(_quote(c) for c in attr.categories) + "}"
        else:
            spec = attr.kind
        out.append(f"@attribute {_quote(attr.name)} {spec}")
    out.append("@data")
    return "\n".join(out) + "\n"


def format_rows(relation: ArffRelation, start: int, stop: int) -> str:
    """The ARFF text of data rows `start` to `stop` (exclusive) of a valid
    relation, each ending in a line break. Validation is the caller's, so that
    the rows of one relation can be formatted in pieces."""
    cells = [_format(a, c[start:stop]) for a, c in zip(relation.attributes, relation.columns)]
    rows = "\n".join(map(",".join, zip(*cells)))
    return rows + "\n" if rows else rows


def write_arff(relation: ArffRelation) -> str:
    """Serialize a relation so that :func:`parse_arff` round-trips it exactly."""
    relation.validate()
    return format_header(relation) + format_rows(relation, 0, relation.n_rows)
