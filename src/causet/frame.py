"""Columnar tabular data: CSV ingestion and the preprocessing recipe.

A :class:`Frame` is an immutable ordered collection of equal-length columns.
Each column has a kind (``numeric``, ``binary``, ``categorical``) and a
missing-mask.  Every operation returns a new frame; inputs are never
mutated (the backing arrays are marked read-only).

CSV convention: RFC-4180-style, UTF-8 (a leading byte-order mark is
skipped), mandatory header row, empty field means missing, ``.`` is the
decimal separator.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
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
    """One named column: kind, values, and a missing-mask.

    Numeric and binary values are float64 (NaN at missing positions);
    categorical values are strings.  Binary columns may contain only 0 and 1
    among their non-missing entries.
    """

    name: str
    kind: str
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise KindError(f"unknown column kind {self.kind!r}")
        missing = np.array(self.missing, dtype=bool, copy=True)
        if self.kind == "categorical":
            values = np.array([str(v) for v in self.values], dtype=object)
            values[missing] = ""
        else:
            values = np.array(self.values, dtype=float, copy=True)
            missing = missing | ~np.isfinite(values)
            values[missing] = np.nan
            if self.kind == "binary":
                ok = values[~missing]
                if not np.all((ok == 0.0) | (ok == 1.0)):
                    raise TypeConflictError(
                        f"binary column {self.name!r} contains values outside {{0, 1}}"
                    )
        if values.shape != missing.shape or values.ndim != 1:
            raise RaggedRowError(f"column {self.name!r}: values/mask length mismatch")
        values.setflags(write=False)
        missing.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)

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
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TypeConflictError(f"duplicate column names: {dupes}")
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
        return Frame(
            [Column(c.name, c.kind, c.values[idx], c.missing[idx]) for c in self._columns]
        )

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
            if kind == "categorical":
                missing = np.array([str(v) == "" for v in arr])
            else:
                missing = ~np.isfinite(arr.astype(float))
            cols.append(Column(name, kind, arr, missing))
        return cls(cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self.names != other.names:
            return False
        for a, b in zip(self._columns, other._columns):
            if a.kind != b.kind or not np.array_equal(a.missing, b.missing):
                return False
            if a.kind == "categorical":
                if not np.array_equal(a.values, b.values):
                    return False
            else:
                ok = ~a.missing
                if not np.array_equal(a.values[ok], b.values[ok]):
                    return False
        return True

    def __repr__(self) -> str:
        return f"Frame({self.n_rows} rows x {len(self._columns)} columns)"


# -- CSV ---------------------------------------------------------------------


def _off_01(values: np.ndarray) -> np.ndarray:
    """Mask of the finite values that are neither 0 nor 1."""
    return np.isfinite(values) & (values != 0.0) & (values != 1.0)


def _kind_of(values: np.ndarray) -> str:
    """Kind of a parsed float column: binary when it has finite values and
    all of them are 0 or 1, numeric otherwise (also when none is finite)."""
    if np.isfinite(values).any() and not _off_01(values).any():
        return "binary"
    return "numeric"


def _raise_first_bad_cell(name: str, kind: str, cells: list[str]) -> None:
    """Raise for the first cell, in row order, that does not parse or, in a
    binary column, is finite and neither 0 nor 1.  A blank cell is missing
    and never offends."""
    for c in cells:
        try:
            v = float(c or "nan")
        except ValueError:
            raise TypeConflictError(
                f"column {name!r} declared {kind} but cell {c!r} is not numeric"
            ) from None
        if kind == "binary" and math.isfinite(v) and v not in (0.0, 1.0):
            raise TypeConflictError(
                f"column {name!r} declared binary but cell {c!r} is not 0/1"
            )


def _blocks(reader) -> Iterator[list[list[str]]]:
    """The rows ``reader`` has left, ``_BLOCK`` at a time."""
    while block := list(itertools.islice(reader, _BLOCK)):
        yield block


def load_csv(path: str | Path, schema: Mapping[str, str] | None = None) -> Frame:
    """Load a CSV file into a frame.

    Column kinds come from ``schema`` where given and are inferred otherwise:
    all-numeric columns become numeric, {0, 1} columns binary, anything else
    categorical.  Empty cells are missing, and so are non-finite numbers.

    Rows are read ``_BLOCK`` at a time.  Each block is checked for ragged
    rows and transposed, and each column that may still be numeric has its
    cells parsed with one ``float()`` each, an empty one as ``"nan"``; a
    column whose parse fails is not parsed again.  The kind is inferred from
    the whole parsed column.  Cell text is kept only for the columns that
    need it (declared categorical, inferred categorical because a cell did
    not parse, or declared numeric or binary and holding a bad cell), taken
    in a second pass over the file, so an all-numeric file is read once and
    memory holds one block of cells plus the parsed columns.

    Errors keep a fixed order: a ragged row anywhere raises first; otherwise
    the first offending column in header order raises, naming its first
    offending cell in row order.  Bytes that are not UTF-8, or a field over
    csv's size limit, raise a :class:`ParseError` naming the path.
    """
    if schema:
        for name, kind in schema.items():
            if kind not in KINDS:
                raise KindError(f"schema kind {kind!r} for column {name!r} is unknown")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IoError(f"{path}: empty file, header row required")
            kinds = [schema.get(name) if schema else None for name in header]
            # Parsed chunks per column; None once the column needs its text.
            chunks = [None if k == "categorical" else [np.empty(0)] for k in kinds]
            row_no = 2
            for block in _blocks(reader):
                for i, r in enumerate(block, start=row_no):
                    if len(r) != len(header):
                        raise RaggedRowError(
                            f"{path}: row {i} has {len(r)} fields, header has {len(header)}"
                        )
                row_no += len(block)
                for j, cells in enumerate(zip(*block)):
                    if chunks[j] is None:
                        continue
                    if "" in cells:
                        cells = [c or "nan" for c in cells]
                    try:
                        chunks[j].append(np.fromiter(map(float, cells), float, count=len(cells)))
                    except ValueError:
                        chunks[j] = None
            # Each column's parsed values, or None where its text is needed.
            values = []
            for j, kind in enumerate(kinds):
                v = None if chunks[j] is None else np.concatenate(chunks[j])
                chunks[j] = None
                if v is not None and kind == "binary" and _off_01(v).any():
                    v = None
                values.append(v)
            texts = {j: [] for j, v in enumerate(values) if v is None}
            if texts:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                for block in _blocks(reader):
                    for j, cells in texts.items():
                        cells.extend(r[j] for r in block)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: cannot parse as a UTF-8 CSV file: {exc}") from exc
    columns = []
    for j, (name, kind, v) in enumerate(zip(header, kinds, values)):
        if v is not None:
            kind = kind or _kind_of(v)
            columns.append(Column(name, kind, v, ~np.isfinite(v)))
            continue
        cells = texts.pop(j)
        if kind in ("numeric", "binary"):
            _raise_first_bad_cell(name, kind, cells)
        missing = np.array([c == "" for c in cells], dtype=bool)
        columns.append(Column(name, "categorical", np.array(cells, dtype=object), missing))
    return Frame(columns)


def _cells(col: Column, rows: slice) -> list[str]:
    """One column's CSV cells over ``rows``: a numeric value's ``repr``, a
    binary value as an integer, categorical text as is, "" where missing."""
    missing = col.missing[rows]
    values = col.values[rows]
    if col.kind == "numeric":
        cells = list(map(repr, values.tolist()))
    elif col.kind == "binary":
        cells = list(map(str, np.where(missing, 0.0, values).astype(np.int64).tolist()))
    else:
        cells = list(map(str, values.tolist()))
    for i in np.flatnonzero(missing).tolist():
        cells[i] = ""
    return cells


def write_csv(f: Frame, path: str | Path) -> None:
    """Write a frame to CSV; missing cells become empty fields.

    Floats are written with shortest round-trip formatting so that
    ``load_csv(write_csv(f))`` reproduces values and missing-masks exactly.
    Rows go out ``_BLOCK`` at a time, each block formatted column by column,
    so memory holds one block of cells beside the frame.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.names)
            for start in range(0, f.n_rows, _BLOCK):
                rows = slice(start, start + _BLOCK)
                writer.writerows(zip(*(_cells(c, rows) for c in f.columns)))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# -- preprocessing ops ---------------------------------------------------------


def one_hot(f: Frame, col: str) -> Frame:
    """Replace a categorical column by one binary column per level.

    Levels are sorted lexicographically and named ``col=<level>``.  Missing
    source values get their own trailing level ``col=__missing__`` so every
    row has exactly one 1 among the generated columns.
    """
    c = f.column(col)
    if c.kind != "categorical":
        raise KindError(f"column {col!r} is {c.kind}, expected categorical")
    position = f.names.index(col)
    levels = sorted({str(v) for v, m in zip(c.values, c.missing) if not m})
    if c.missing.any():
        levels.append(MISSING_LEVEL)
    out = f.drop(col)
    for offset, level in enumerate(levels):
        name = f"{col}={level}"
        if name in f.names:
            raise TypeConflictError(f"generated column {name!r} already exists")
        if level == MISSING_LEVEL:
            vals = c.missing.astype(float)
        else:
            vals = ((c.values == level) & ~c.missing).astype(float)
        out = out.with_column(
            Column(name, "binary", vals, np.zeros(len(c), dtype=bool)),
            position=position + offset,
        )
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
    return f.with_column(Column(col, kind, values, np.zeros(len(c), dtype=bool)))


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
    return f.with_column(
        Column(rule.target, "binary", labels, np.zeros(len(c), dtype=bool))
    )


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
