"""Columnar tabular data: CSV ingestion and the preprocessing recipe.

A :class:`Frame` is an immutable ordered collection of equal-length columns.
Each column has a kind (``numeric``, ``binary``, ``categorical``) and a
missing-mask derived from its values.  Every operation returns a new frame;
inputs are never mutated (the backing arrays are marked read-only).

CSV convention: RFC-4180-style, UTF-8 (a leading byte-order mark is
skipped), mandatory header row, empty field means missing, ``.`` is the
decimal separator.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyFrameError,
    IoError,
    KindError,
    MissingDataError,
    ParseError,
    RaggedRowError,
    TypeConflictError,
    UnknownColumnError,
)
from .rng import make_rng

KINDS = ("numeric", "binary", "categorical")

MISSING_LEVEL = "__missing__"

# Rows per block in CSV reads and writes.
_BLOCK = 4096


@dataclass(frozen=True)
class Column:
    """One named column: kind, values, and a missing-mask derived from them.

    Numeric and binary values are float64, NaN exactly where missing (a
    non-finite value is missing); categorical values are strings, "" exactly
    where missing.  Binary columns hold only 0 and 1 where not missing.  Two
    columns are equal when name, kind and values are, NaN equal to NaN.
    """

    name: str
    kind: str
    values: np.ndarray
    missing: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise KindError(f"unknown column kind {self.kind!r}")
        if self.kind == "categorical":
            values = np.array([str(v) for v in self.values], dtype=object)
            missing = values == ""
        else:
            values = np.array(self.values, dtype=float, copy=True)
            missing = ~np.isfinite(values)
            values[missing] = np.nan
            if self.kind == "binary":
                ok = values[~missing]
                if not np.all((ok == 0.0) | (ok == 1.0)):
                    raise TypeConflictError(
                        f"binary column {self.name!r} contains values outside {{0, 1}}"
                    )
        if values.ndim != 1:
            raise RaggedRowError(f"column {self.name!r}: values are not one-dimensional")
        values.setflags(write=False)
        missing.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (self.name, self.kind) == (other.name, other.kind) and np.array_equal(
            self.values, other.values, equal_nan=self.kind != "categorical")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LabelRule:
    """Derivation of a binary column from a numeric one.

    The only supported comparator labels 1 where the value is strictly above
    the column mean (ties go to 0).
    """

    source: str
    target: str
    comparator: str = "above_mean"

    def __post_init__(self):
        if self.comparator != "above_mean":
            raise ValueError(f"unsupported comparator {self.comparator!r}")


class Frame:
    """Immutable ordered collection of equal-length columns."""

    __slots__ = ("_columns", "_by_name")

    def __init__(self, columns: Sequence[Column]):
        cols = tuple(columns)
        _check_unique([c.name for c in cols])
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise RaggedRowError(f"columns have differing lengths: {sorted(lengths)}")
        self._columns = cols
        self._by_name = {c.name: c for c in cols}

    # -- introspection ----------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    @property
    def n_rows(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(f"unknown column {name!r}") from None

    def kind(self, name: str) -> str:
        return self.column(name).kind

    def values(self, name: str) -> np.ndarray:
        return self.column(name).values

    def missing(self, name: str) -> np.ndarray:
        return self.column(name).missing

    # -- derivation (all return new frames) --------------------------------

    def with_column(self, col: Column, position: int | None = None) -> "Frame":
        """New frame with ``col`` appended, inserted, or replacing its namesake."""
        cols = list(self._columns)
        existing = [i for i, c in enumerate(cols) if c.name == col.name]
        if existing:
            cols[existing[0]] = col
        elif position is None:
            cols.append(col)
        else:
            cols.insert(position, col)
        return Frame(cols)

    def drop(self, name: str) -> "Frame":
        self.column(name)
        return Frame([c for c in self._columns if c.name != name])

    def subset_rows(self, indices: np.ndarray) -> "Frame":
        idx = np.asarray(indices)
        return Frame([Column(c.name, c.kind, c.values[idx]) for c in self._columns])

    def numeric_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Float matrix of the given columns; rejects categorical or missing data."""
        arrays = []
        for name in names:
            c = self.column(name)
            if c.kind == "categorical":
                raise KindError(f"column {name!r} is categorical; encode it first")
            if c.missing.any():
                raise MissingDataError(f"column {name!r} has missing values; impute first")
            arrays.append(c.values)
        if not arrays:
            return np.empty((self.n_rows, 0))
        return np.column_stack(arrays)

    def binary_vector(self, name: str) -> np.ndarray:
        c = self.column(name)
        if c.kind != "binary":
            raise KindError(f"column {name!r} is {c.kind}, expected binary")
        if c.missing.any():
            raise MissingDataError(f"column {name!r} has missing values")
        return c.values

    @classmethod
    def from_dict(
        cls, data: Mapping[str, np.ndarray], kinds: Mapping[str, str] | None = None
    ) -> "Frame":
        """Build a frame from name -> array, inferring kinds unless given."""
        cols = []
        for name, vals in data.items():
            arr = np.asarray(vals)
            kind = (kinds or {}).get(name)
            if kind is None:
                kind = "categorical" if arr.dtype.kind in "OU" else _kind_of(arr.astype(float))
            cols.append(Column(name, kind, arr))
        return cls(cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:
        return f"Frame({self.n_rows} rows x {len(self._columns)} columns)"


# -- CSV ---------------------------------------------------------------------


def _check_unique(names: Sequence[str]) -> None:
    """Raise :class:`TypeConflictError` naming each name given twice."""
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise TypeConflictError(f"duplicate column names: {dupes}")


def _kind_of(values: np.ndarray) -> str:
    """Kind of a parsed float column: binary when it has finite values and
    all of them are 0 or 1, numeric otherwise (also when none is finite)."""
    finite = np.isfinite(values)
    if finite.any() and not (finite & (values != 0.0) & (values != 1.0)).any():
        return "binary"
    return "numeric"


def _blocks(reader) -> Iterator[list[list[str]]]:
    """The rows ``reader`` has left, ``_BLOCK`` at a time."""
    while block := list(itertools.islice(reader, _BLOCK)):
        yield block


# The bytes of a block that numpy's C reader may parse: digits, signs,
# point, exponent, comma, space, tab, line ends and the letters of nan, inf
# and infinity.  On these it agrees with csv.reader plus float(); elsewhere
# it strips more whitespace (0x1c-0x1f), rejects non-ASCII digits, skips
# blank lines and has no field size limit.
_NUMERIC_BYTES = b"0123456789+-.eE, \t\r\n" + b"nanifty"


def _parse_block(
    lines: list[str], width: int, usecols: list[int], limit: int
) -> np.ndarray | None:
    """The cells of columns ``usecols`` of ``lines``, parsed by numpy's C
    reader into a (len(lines), len(usecols)) array, or None unless every
    line has ``width`` fields and the parse gives what csv.reader plus
    float() would."""
    text = "".join(lines)
    if (
        not text.isascii()
        or text.encode("ascii").translate(None, _NUMERIC_BYTES)
        or text.isspace()  # only blank lines: loadtxt would warn of no data
        or max(map(len, lines)) > limit
    ):
        return None
    # Freed before the reader allocates: holding the joined copy through the
    # parse raised estimate_wide's peak RSS by about a tenth.
    del text
    # No quotes here, so every comma separates two fields.  loadtxt skips a
    # blank line (the row count below catches it) and ignores the fields of
    # a line beyond the last of ``usecols``.
    if any(line.count(",") != width - 1 for line in lines):
        return None
    try:
        parsed = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2,
                            usecols=usecols)
    except ValueError:  # a cell that does not parse, an empty one included
        return None
    return parsed if parsed.shape == (len(lines), len(usecols)) else None


def load_csv(path: str | Path, columns: Iterable[str] | None = None) -> Frame:
    """Load a CSV file into a frame, of the header's columns named in
    ``columns`` (all of them when None), in header order.  A name in
    ``columns`` that is not in the header is skipped.

    A column's kind comes from its cells: categorical when a cell does not
    parse as a number, otherwise binary when it has finite values and all
    of them are 0 or 1, numeric otherwise.  Empty cells are missing, and so
    are non-finite numbers.

    Rows are read ``_BLOCK`` lines at a time.  A block of ``_NUMERIC_BYTES``
    only, with lines that fit csv's field size limit and hold one comma
    fewer than the header has names, is parsed in one call to numpy's C
    reader, which converts the kept columns' cells alone; it is kept when
    every one of those parsed, into one row per line, so its values are
    those csv would give.  The first block that is not kept goes, with the
    rest of the file, through ``csv.reader``: each block is checked for
    ragged rows and transposed, and each kept column that may still be
    numeric has its cells parsed with one ``float()`` each, an empty one as
    ``"nan"``; a column whose parse fails is not parsed again.  So a blank
    cell, a quote or a text cell costs at most one block parsed twice.
    Cell text is kept only for the kept columns where a cell did not parse,
    taken in a second pass over the file, so an all-numeric file is read
    once.  Each block's parsed values are copied out per column, so no
    block outlives its parse, and each column is joined from its pieces
    only as its :class:`Column` is made: memory holds the parsed columns
    plus one block and, at the end, one column twice.

    Errors cover every column, kept or not: a file that cannot be read, or
    has no header row, raises :class:`IoError`.  Otherwise the file is read
    in row order and the first fault raises: a row whose field count is not
    the header's raises :class:`RaggedRowError` naming its row number, and
    bytes that are not UTF-8, or a field over csv's size limit, raise
    :class:`ParseError` naming the path.  Rows are checked a block at a
    time, once the block is read, so a ParseError in the block of the first
    ragged row (or in the text that the UTF-8 decoder reads ahead) raises in
    its place.  Once the file is read, a name the header holds twice raises
    :class:`TypeConflictError`.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise IoError(f"{path}: empty file, header row required")
            wanted = set(header if columns is None else columns)
            keep = [j for j, name in enumerate(header) if name in wanted]
            # Parsed pieces per kept column; None once a cell does not parse.
            chunks = [[np.empty(0)] for _ in keep]
            row_no = 2
            while lines := list(itertools.islice(fh, _BLOCK)):
                parsed = _parse_block(lines, len(header), keep, limit)
                if parsed is None:
                    break
                for c, piece in zip(chunks, parsed.T):
                    c.append(piece.copy())
                del parsed
                row_no += len(lines)
            for block in _blocks(csv.reader(itertools.chain(lines, fh))):
                for i, r in enumerate(block, start=row_no):
                    if len(r) != len(header):
                        raise RaggedRowError(
                            f"{path}: row {i} has {len(r)} fields, header has {len(header)}"
                        )
                row_no += len(block)
                cells_of = list(zip(*block))
                for c, j in enumerate(keep):
                    if chunks[c] is None:
                        continue
                    cells = cells_of[j]
                    if "" in cells:
                        cells = [x or "nan" for x in cells]
                    try:
                        chunks[c].append(np.fromiter(map(float, cells), float, count=len(cells)))
                    except ValueError:
                        chunks[c] = None
            # Cell text of each kept column whose parse failed.
            texts = {c: [] for c, pieces in enumerate(chunks) if pieces is None}
            if texts:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                for block in _blocks(reader):
                    for c, cells in texts.items():
                        cells.extend(r[keep[c]] for r in block)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: cannot parse as a UTF-8 CSV file: {exc}") from exc
    _check_unique(header)
    kept = []
    for c, j in enumerate(keep):
        if chunks[c] is None:
            kept.append(Column(header[j], "categorical", np.array(texts.pop(c), dtype=object)))
            continue
        values = np.concatenate(chunks[c])
        chunks[c] = None
        kept.append(Column(header[j], _kind_of(values), values))
        del values
    return Frame(kept)


def _field(v) -> str:
    """One value as a CSV field, by the rule that :func:`write_csv` states."""
    if v is None:
        return ""
    if isinstance(v, float):
        return float.__repr__(v)
    v = str(v)
    if "," in v or '"' in v or "\r" in v or "\n" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def _lines(columns: Sequence) -> str:
    """The CSV lines of the rows (one or more) that ``columns`` hold."""
    fields = [map(repr, c.tolist()) if isinstance(c, np.ndarray) and c.dtype.kind in "fiu"
              else map(_field, c) for c in columns]
    if len(fields) == 1:  # a lone empty field would read as a blank line
        fields = [(v or '""' for v in fields[0])]
    return "\n".join(map(",".join, zip(*fields))) + "\n"


def write_rows(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write ``header`` and then the rows of each block, given as equal-length
    columns, ``_BLOCK`` rows at a time, to a CSV file.  OSError passes through."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([[name] for name in header]))
        for columns in blocks:
            for start in range(0, len(columns[0]), _BLOCK):
                fh.write(_lines([c[start:start + _BLOCK] for c in columns]))


def _values(col: Column, rows: slice) -> np.ndarray:
    """``col``'s values over ``rows``, binary ones as integers, None where missing."""
    values, missing = col.values[rows], col.missing[rows]
    if col.kind == "binary":
        values = np.where(missing, 0.0, values).astype(np.int64)
    return np.where(missing, None, values) if missing.any() else values


def write_csv(f: Frame, path: str | Path) -> None:
    """Write a frame to CSV, each value one field: a number its ``repr`` (the
    shortest round-trip form), a binary value its integer, a missing value
    empty, text as is but quoted, its quotes doubled, when it holds a comma, a
    quote, CR or LF; a row of one empty field is ``""``.  So ``load_csv``
    reads back the values and missing-masks exactly.  Rows go out ``_BLOCK``
    at a time: memory holds one block beside the frame."""
    blocks = ([_values(c, slice(start, start + _BLOCK)) for c in f.columns]
              for start in range(0, f.n_rows, _BLOCK))
    try:
        write_rows(path, f.names, blocks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# -- preprocessing ops ---------------------------------------------------------


def one_hot(f: Frame, col: str) -> Frame:
    """Replace a categorical column by one binary column per level.

    Levels are sorted lexicographically and named ``col=<level>``.  Missing
    source values get their own trailing level ``col=__missing__`` so every
    row has exactly one 1 among the generated columns.  A generated name that
    is already taken, by another column or by a level named ``__missing__``
    beside missing cells, raises :class:`TypeConflictError`.
    """
    c = f.column(col)
    if c.kind != "categorical":
        raise KindError(f"column {col!r} is {c.kind}, expected categorical")
    position = f.names.index(col)
    levels = sorted(set(c.values) - {""})
    if c.missing.any():
        levels.append("")
    out = f.drop(col)
    for offset, level in enumerate(levels):
        name = f"{col}={level or MISSING_LEVEL}"
        if name in out.names:
            raise TypeConflictError(f"generated column {name!r} already exists")
        out = out.with_column(Column(name, "binary", c.values == level),
                              position=position + offset)
    return out


def impute_mean(f: Frame, col: str) -> Frame:
    """Replace missing entries by the mean of the non-missing ones.

    An all-missing column becomes all zeros and emits a warning.  A binary
    column whose imputed mean is fractional is re-kinded numeric, since it
    no longer contains only 0 and 1.
    """
    c = f.column(col)
    if c.kind == "categorical":
        raise KindError(f"column {col!r} is categorical; one_hot it instead")
    if not c.missing.any():
        return f
    present = c.values[~c.missing]
    if present.size == 0:
        warnings.warn(f"column {col!r} is entirely missing; imputing 0", stacklevel=2)
        fill = 0.0
    else:
        fill = float(present.mean())
    values = np.where(c.missing, fill, c.values)
    kind = c.kind
    if kind == "binary" and fill not in (0.0, 1.0):
        kind = "numeric"
    return f.with_column(Column(col, kind, values))


def derive_binary_label(f: Frame, rule: LabelRule) -> Frame:
    """Add (or replace) a binary column: 1 where source > its mean, else 0."""
    c = f.column(rule.source)
    if c.kind == "categorical":
        raise KindError(f"column {rule.source!r} is categorical")
    if c.missing.any():
        raise MissingDataError(
            f"column {rule.source!r} has missing values; impute before labeling"
        )
    mean = float(c.values.mean()) if len(c) else 0.0
    labels = (c.values > mean).astype(float)
    return f.with_column(Column(rule.target, "binary", labels))


def split(f: Frame, train_fraction: float, seed: int) -> tuple[Frame, Frame]:
    """Partition rows into (train, rest) by a seeded uniform shuffle.

    The train part has exactly ceil(n * train_fraction) rows.  Membership is
    decided by the shuffle; relative row order is preserved in both parts.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    n = f.n_rows
    if n == 0:
        raise EmptyFrameError("cannot split an empty frame")
    k = math.ceil(n * train_fraction - 1e-9)
    perm = make_rng(seed).permutation(n)
    train_idx = np.sort(perm[:k])
    rest_idx = np.sort(perm[k:])
    return f.subset_rows(train_idx), f.subset_rows(rest_idx)
