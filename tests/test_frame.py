import codecs
import csv
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causet.errors import (
    EmptyFrameError,
    IoError,
    KindError,
    MissingDataError,
    ParseError,
    RaggedRowError,
    TypeConflictError,
    UnknownColumnError,
)
from causet import frame
from causet.frame import (
    Column,
    Frame,
    LabelRule,
    derive_binary_label,
    impute_mean,
    load_csv,
    one_hot,
    split,
    write_csv,
)
from causet import pipeline
from causet.learners import LearnerSpec
from causet.metalearners import CateModel
from causet.rng import make_rng

from oracles import (
    load_csv_blocks,
    load_csv_two_pass,
    write_csv_rowwise,
    write_ite_csv_rowwise,
    write_table_dictwriter,
)


def frame_of(text, path):
    path.write_text(text, encoding="utf-8")
    return load_csv(path)


class TestLoadCsv:
    def test_binary_and_numeric_inference(self, tmp_path):
        f = frame_of("t,y\n1,3\n0,1\n", tmp_path / "d.csv")
        assert f.kind("t") == "binary" and f.kind("y") == "numeric"
        assert f.n_rows == 2
        assert f.values("y").tolist() == [3.0, 1.0]

    def test_empty_cell_sets_missing(self, tmp_path):
        f = frame_of("a,b\n1,\n2,x\n", tmp_path / "d.csv")
        assert f.missing("b").tolist() == [True, False]
        assert f.kind("b") == "categorical"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(RaggedRowError):
            frame_of("a,b\n1,2\n3\n", tmp_path / "d.csv")

    def test_byte_order_mark_skipped(self, tmp_path):
        # the categorical column is read again in a second pass after a seek
        text = "a,c\n1,x\n2,\n3,y\n"
        plain = frame_of(text, tmp_path / "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        f = load_csv(marked)
        assert f.names == ("a", "c") and f.kind("c") == "categorical"
        assert f.values("c").tolist() == ["x", "", "y"]
        assert f == plain
        assert_selections_match(marked, f, f.names)

    def test_header_only_file(self, tmp_path):
        f = frame_of("a,b\n", tmp_path / "d.csv")
        assert f.n_rows == 0

    def test_empty_file_has_no_header(self, tmp_path):
        with pytest.raises(IoError, match=r"empty file, header row required$"):
            frame_of("", tmp_path / "d.csv")

    def test_roundtrip_fixed(self, tmp_path):
        f = Frame.from_dict(
            {
                "x": np.array([1.5, np.nan, -2.25]),
                "flag": np.array([1.0, 0.0, np.nan]),
                "name": np.array(["a", "", "c,with comma"], dtype=object),
            }
        )
        write_csv(f, tmp_path / "out.csv")
        g = load_csv(tmp_path / "out.csv")
        assert g == f

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_random(self, tmp_path_factory, seed):
        rng = make_rng(seed)
        n = int(rng.integers(0, 12))
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        miss = rng.uniform(size=n) < 0.3
        cats = np.array(
            ["".join(rng.choice(list("abXY_z"), size=3)) for _ in range(n)], dtype=object
        )
        b = (rng.uniform(size=n) < 0.5).astype(float)
        b_miss = rng.uniform(size=n) < 0.2
        f = Frame(
            [
                Column("v", "numeric", np.where(miss, np.nan, vals)),
                Column("b", "binary", np.where(b_miss, np.nan, b)),
                Column("c", "categorical", np.where(rng.uniform(size=n) < 0.2, "", cats)),
            ]
        )
        path = tmp_path_factory.mktemp("rt") / "f.csv"
        write_csv(f, path)
        kinds = {"v": "numeric", "b": "binary", "c": "categorical"}
        assert load_csv_two_pass(path, schema=kinds) == f
        assert load_csv(path) == load_csv_two_pass(path)

    def test_roundtrip_all_missing_column_infers_numeric(self, tmp_path):
        # No finite value gives numeric on both sides of the round trip.
        f = Frame.from_dict({"x": np.array([np.nan, np.nan]), "y": np.array([1.0, 2.0])})
        assert f.kind("x") == "numeric"
        write_csv(f, tmp_path / "out.csv")
        assert load_csv(tmp_path / "out.csv") == f


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "-0.0", "0", "1", "1.0", " 1 ", "1_0", "0.5"]),
    st.text(alphabet="abc 01._-,\"", max_size=4),
)


def write_rows(path, rows, names=("c0", "c1", "c2")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(rows)


def assert_bitwise_equal(got: Frame, expected: Frame) -> None:
    """Same names in the same order, kinds, missing-masks and value bits."""
    assert got.names == expected.names
    assert got == expected
    for a, b in zip(got.columns, expected.columns):
        assert a.kind == b.kind
        assert a.missing.tobytes() == b.missing.tobytes()
        if a.kind == "categorical":
            assert a.values.tolist() == b.values.tolist()
        else:
            assert a.values.tobytes() == b.values.tobytes()


def outcome(load, *args):
    """The frame ``load(*args)`` returns, or the type and text of its error."""
    try:
        return load(*args)
    except (RaggedRowError, ParseError, TypeConflictError) as exc:
        return type(exc), str(exc)


def assert_selections_match(path, full, names=("c0", "c1", "c2")):
    """For every subset of ``names``, given in reverse order and with a name
    the header lacks, ``load_csv(path, subset)`` is ``full`` (the outcome of
    ``load_csv(path)``) restricted to the subset in header order, or the
    same error."""
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            got = outcome(load_csv, path, ["absent", *reversed(subset)])
            if isinstance(full, tuple):
                assert got == full
            else:
                assert_bitwise_equal(got, Frame([c for c in full.columns if c.name in subset]))


def assert_same_load(path, oracle=load_csv_two_pass):
    """``load_csv`` and ``oracle`` give the same frame, bit for bit, or the
    same error, and so does every selection of the frame's columns; returns
    the frame or the error."""
    got, expected = outcome(load_csv, path), outcome(oracle, path)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_bitwise_equal(got, expected)
    assert_selections_match(path, got)
    return got


# Raw file text: rows of numbers with a few cells swapped for near-numbers
# (characters that numpy's C reader and float() strip or parse differently,
# quotes, stray commas), and every line end, blank lines included.
VALID_CELLS = st.sampled_from(
    ["0", "1", "0.5", "-2.5e3", "+7E-2", "1e400", "nan", "-inf", "infinity", "-0.0", ""]
)
CHUNKS = st.sampled_from(
    list("0179.eE+-_,\"") + ["nan", "inf", " ", "\t", "\x0c", "\x1c", "\x85", "\u0661"]
)
PADS = st.sampled_from(["", " ", "\t", "\x0c", "\x1c", "\x85", "\"", "_", "\u0661"])
ODD_CELLS = st.one_of(
    st.builds(lambda a, b, c: a + b + c, PADS, VALID_CELLS, PADS),
    st.lists(CHUNKS, max_size=4).map("".join),
)
LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\r\n\r\n"])


@st.composite
def raw_csv_text(draw):
    n = draw(st.integers(0, 8))
    rows = [draw(st.lists(VALID_CELLS, min_size=3, max_size=3)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 2))] = draw(ODD_CELLS)
    lines = [",".join(cells) + draw(LINE_ENDS) for cells in [["c0", "c1", "c2"], *rows]]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


class TestLoaderOracle:
    """The loader against the former two-pass one, and against the former
    csv-only block loader on file text written directly (blank lines, stray
    quotes, every line end), with blocks small enough that the files cross
    them."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=8))
    def test_same_frame_or_same_error(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("oracle") / "d.csv"
        write_rows(path, rows)
        for block in (1, 2, 3, frame._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frame, "_BLOCK", block)
                assert_same_load(path)

    @settings(max_examples=400, deadline=None)
    @given(text=raw_csv_text())
    def test_raw_text_same_as_csv_block_loader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("raw") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        for block in (1, 2, 3, frame._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frame, "_BLOCK", block)
                assert_same_load(path, oracle=load_csv_blocks)


def no_csv_blocks(reader):
    """Stands in for ``frame._blocks`` where every row must take the C reader."""
    if next(reader, None) is not None:
        raise AssertionError("a row went through the csv block loop")
    return iter(())


class TestLoaderCReader:
    """The guards that keep numpy's C reader to blocks where it gives what
    csv.reader plus float() gives, and the proof that it is used at all."""

    def test_all_numeric_frame_takes_the_c_reader(self, tmp_path, monkeypatch):
        rng = make_rng(3)
        n = 3 * frame._BLOCK + 5
        f = Frame([
            Column("x", "numeric", rng.standard_normal(n) * 1e5),
            Column("t", "binary", (rng.uniform(size=n) < 0.5).astype(float)),
            Column("z", "numeric", rng.standard_normal(n) * 1e-9),
        ])
        write_csv(f, tmp_path / "d.csv")
        expected = load_csv_blocks(tmp_path / "d.csv")
        monkeypatch.setattr(frame, "_blocks", no_csv_blocks)
        g = load_csv(tmp_path / "d.csv")
        assert g == f
        for a, b in zip(g.columns, expected.columns):
            assert a.kind == b.kind and a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_load_equal_through_the_c_reader(self, tmp_path, monkeypatch, end):
        text = "a,b\n1.5,0\n-2e3,1\nnan,inf\n"
        lf = frame_of(text, tmp_path / "lf.csv")
        monkeypatch.setattr(frame, "_blocks", no_csv_blocks)
        other = tmp_path / "other.csv"
        other.write_bytes(text.replace("\n", end).encode("ascii"))
        assert load_csv(other) == lf

    def test_control_character_keeps_the_column_categorical(self, tmp_path):
        # numpy strips \x1c as whitespace; float() rejects it
        f = frame_of("a,b\n1\x1c,2\n3,4\n", tmp_path / "d.csv")
        assert f.kind("a") == "categorical" and f.kind("b") == "numeric"
        assert f.values("a").tolist() == ["1\x1c", "3"]

    def test_non_ascii_digit_parses_as_float_does(self, tmp_path):
        # float("\u0661") is 1.0; the C reader would reject it
        f = frame_of("a,b\n\u0661,2\n0,4\n", tmp_path / "d.csv")
        assert f.kind("a") == "binary" and f.values("a").tolist() == [1.0, 0.0]

    def test_blank_line_in_a_numeric_block_is_a_ragged_row(self, tmp_path):
        # numpy would skip it
        with pytest.raises(RaggedRowError, match=r"row 3 has 0 fields, header has 2"):
            frame_of("a,b\n1,2\n\n3,4\n", tmp_path / "d.csv")

    def test_block_of_blank_lines_is_a_ragged_row_without_a_warning(self, tmp_path, monkeypatch):
        monkeypatch.setattr(frame, "_BLOCK", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RaggedRowError, match=r"row 3 has 0 fields, header has 1"):
                frame_of("a\n1\n\n\n", tmp_path / "d.csv")

    def test_text_column_keeps_the_cells_the_c_reader_parsed_as_written(
        self, tmp_path, monkeypatch
    ):
        # rows 2-3 take the C reader; the text cell in row 4 makes the column
        # categorical, and its text is read again as written, not as floats
        monkeypatch.setattr(frame, "_BLOCK", 2)
        f = frame_of("a,b\n1,2\n3.0,4\n1e3,5\nx,6\n", tmp_path / "d.csv")
        assert f.kind("a") == "categorical" and f.kind("b") == "numeric"
        assert f.values("a").tolist() == ["1", "3.0", "1e3", "x"]


class TestLoaderBlocks:
    """Fixed cases at two rows per block: blocks 1, 2, 3 hold rows 2-3, 4-5, 6-7."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(frame, "_BLOCK", 2)

    def test_blank_only_in_last_block(self, tmp_path):
        write_rows(tmp_path / "d.csv", [["1", "0", "a"]] * 4 + [["", "1", "b"]])
        f = assert_same_load(tmp_path / "d.csv")
        assert f.kind("c0") == "binary"
        assert f.missing("c0").tolist() == [False] * 4 + [True]

    def test_blank_only_in_last_block_of_numbers(self, tmp_path):
        # blocks 1 and 2 take the C reader, block 3 goes back through csv
        write_rows(tmp_path / "d.csv", [["1", "0", "2.5"]] * 4 + [["", "1", "3"]])
        f = assert_same_load(tmp_path / "d.csv", oracle=load_csv_blocks)
        assert [f.kind(n) for n in f.names] == ["binary", "binary", "numeric"]
        assert f.missing("c0").tolist() == [False] * 4 + [True]
        assert f.values("c2").tolist() == [2.5] * 4 + [3.0]

    def test_unparsable_only_in_last_block(self, tmp_path):
        write_rows(tmp_path / "d.csv", [["1.5", "0", "2"]] * 4 + [["x", "1", "3"]])
        f = assert_same_load(tmp_path / "d.csv")
        assert [f.kind(n) for n in f.names] == ["categorical", "binary", "numeric"]
        assert f.values("c0").tolist() == ["1.5"] * 4 + ["x"]

    def test_header_only(self, tmp_path):
        write_rows(tmp_path / "d.csv", [])
        f = assert_same_load(tmp_path / "d.csv")
        assert f.n_rows == 0 and f.names == ("c0", "c1", "c2")

    def test_rows_an_exact_multiple_of_the_block(self, tmp_path):
        write_rows(tmp_path / "d.csv", [[str(i), str(i % 2), f"t{i}"] for i in range(4)])
        f = assert_same_load(tmp_path / "d.csv")
        assert f.n_rows == 4
        assert f.values("c0").tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_ragged_row_after_a_text_cell(self, tmp_path):
        # c0 is no longer parsed after row 2, but every row is still counted
        rows = [["abc", "0", "0"], ["1", "0", "0"], ["0", "0", "0"],
                ["1", "0", "0"], ["0", "0"]]
        write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(RaggedRowError, match=r"row 6 has 2 fields, header has 3"):
            load_csv(tmp_path / "d.csv")
        assert_same_load(tmp_path / "d.csv")

    # Far more than the UTF-8 decoder reads ahead of the rows it hands out.
    PADDING = b"1,0,0\n" * 50_000

    def test_ragged_row_outranks_a_later_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"c0,c1,c2\n1,0,0\n0,0\n" + self.PADDING + b"0,\xff,0\n")
        with pytest.raises(RaggedRowError, match=r"row 3 has 2 fields, header has 3"):
            load_csv(path)

    def test_parse_error_outranks_a_later_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"c0,c1,c2\n1,\xff,0\n" + self.PADDING + b"0,0\n")
        with pytest.raises(ParseError, match=r"cannot parse as a UTF-8 CSV file") as info:
            load_csv(path)
        assert str(path) in str(info.value)


class TestLoadColumns:
    """A fault that sits only in columns ``load_csv(path, columns)`` does
    not load raises exactly what ``load_csv(path)`` raises.  (The loaded
    columns' bits are checked by ``assert_selections_match``.)"""

    def assert_same_fault(self, path, error, match):
        with pytest.raises(error, match=match) as full:
            load_csv(path)
        with pytest.raises(error) as selected:
            load_csv(path, ["a"])
        assert str(selected.value) == str(full.value)

    @pytest.mark.parametrize("block", [2, frame._BLOCK])
    @pytest.mark.parametrize("row", ["4,5", "4,5,6,7", "", "4,5,6,"],
                             ids=["short", "long", "blank", "trailing_comma"])
    def test_ragged_row_in_unloaded_columns(self, tmp_path, monkeypatch, block, row):
        monkeypatch.setattr(frame, "_BLOCK", block)
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,c\n1,2,3\n{row}\n7,8,9\n", encoding="utf-8")
        self.assert_same_fault(path, RaggedRowError, r"row 3 has \d fields, header has 3")

    def test_ragged_row_after_text_in_an_unloaded_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,x,3\n4,5\n", encoding="utf-8")
        self.assert_same_fault(path, RaggedRowError, r"row 3 has 2 fields, header has 3")

    def test_non_utf8_byte_in_an_unloaded_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,c\n1,2,3\n4,5,\xff\n")
        self.assert_same_fault(path, ParseError, r"cannot parse as a UTF-8 CSV file")

    def test_field_over_the_size_limit_in_an_unloaded_column(self, tmp_path):
        # digits only, so the block would take the C reader but for its length
        path = tmp_path / "d.csv"
        big = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"a,b,c\n1,2,3\n4,5,{big}\n", encoding="utf-8")
        self.assert_same_fault(path, ParseError, r"field larger than field limit")

    def test_duplicate_name_among_unloaded_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,b\n1,2,3\n", encoding="utf-8")
        self.assert_same_fault(path, TypeConflictError, r"duplicate column names: \['b'\]")
        # the rows are read first, as in the full load
        path.write_text("a,b,b\n1,2,3\n4,5\n", encoding="utf-8")
        self.assert_same_fault(path, RaggedRowError, r"row 3 has 2 fields")

    def test_duplicate_name_among_loaded_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n1,2,3\n", encoding="utf-8")
        self.assert_same_fault(path, TypeConflictError, r"duplicate column names: \['a'\]")

    def test_no_column_requested(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        assert load_csv(path, []) == Frame([])
        assert load_csv(path, ["z"]).names == ()


NUMBERS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1 / 3]))
TEXT = st.one_of(
    st.text(alphabet='ab ,"\n\r', max_size=4),
    st.sampled_from(["", '""', "a,b", 'say "hi"', "two\nlines"]),
)


@st.composite
def frames(draw):
    n = draw(st.integers(0, 9))

    def cells(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    def masked(values, missing):
        return np.where(cells(st.booleans()), missing, values)

    return Frame([
        Column("num", "numeric", masked(np.array(cells(NUMBERS), dtype=float), np.nan)),
        Column("bin", "binary",
               masked(np.array(cells(st.sampled_from([0.0, 1.0, -0.0])), dtype=float), np.nan)),
        Column("te,xt", "categorical", masked(np.array(cells(TEXT), dtype=object), "")),
    ])


def holds_cr(f: Frame) -> bool:
    text = [*f.names, *(v for c in f.columns if c.kind == "categorical" for v in c.values)]
    return any("\r" in v for v in text)


class TestWriterBytes:
    """The block writer against the former row-at-a-time one, which left a
    bare CR unquoted, and so wrote a file that reads back ragged."""

    @settings(max_examples=200, deadline=None)
    @given(f=frames())
    def test_same_bytes_at_every_block_size(self, tmp_path_factory, f):
        d = tmp_path_factory.mktemp("writer")
        write_csv(f, d / "blocks.csv")
        expected = (d / "blocks.csv").read_bytes()
        if not holds_cr(f):
            write_csv_rowwise(f, d / "rowwise.csv")
            assert (d / "rowwise.csv").read_bytes() == expected
        for block in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frame, "_BLOCK", block)
                write_csv(f, d / "blocks.csv")
            assert (d / "blocks.csv").read_bytes() == expected

    def test_a_bare_cr_is_quoted(self, tmp_path):
        f = Frame([Column("c\rd", "categorical", np.array(["a\rb", "z"], dtype=object)),
                   Column("x", "numeric", np.array([1.0, 2.0]))])
        write_csv(f, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == b'"c\rd",x\n"a\rb",1.0\nz,2.0\n'
        assert load_csv_two_pass(tmp_path / "d.csv", schema={"c\rd": "categorical"}) == f
        assert load_csv(tmp_path / "d.csv") == load_csv_two_pass(tmp_path / "d.csv")
        assert_selections_match(tmp_path / "d.csv", f, f.names)

    def test_a_lone_empty_field_is_quoted(self, tmp_path):
        f = Frame([Column("", "categorical", np.array(["", "x"], dtype=object))])
        write_csv(f, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == b'""\n""\nx\n'
        assert load_csv_two_pass(tmp_path / "d.csv", schema={"": "categorical"}) == f
        assert load_csv(tmp_path / "d.csv") == load_csv_two_pass(tmp_path / "d.csv")

    @settings(max_examples=400, deadline=None)
    @given(f=frames(), name=TEXT)
    def test_load_reads_back_what_write_wrote(self, tmp_path_factory, f, name):
        text = f.column("te,xt")
        f = f.drop("te,xt").with_column(Column(name, "categorical", text.values))
        path = tmp_path_factory.mktemp("roundtrip") / "f.csv"
        write_csv(f, path)
        kinds = {"num": "numeric", "bin": "binary", name: "categorical"}
        assert load_csv_two_pass(path, schema=kinds) == f
        assert load_csv(path) == load_csv_two_pass(path)
        assert_selections_match(path, load_csv(path), f.names)


# Text without a CR, which the former writers left unquoted.
PLAIN = st.text(alphabet='ab ,"\n', max_size=4)
VALUES = st.one_of(st.none(), st.floats(), st.floats().map(np.float64),
                   st.integers(-10**20, 10**20), st.booleans(), PLAIN)


class TestOneWriter:
    """``write_rows`` against the former ITE and sidecar-table writers."""

    @settings(max_examples=100, deadline=None)
    @given(ite=st.lists(st.floats(), max_size=9))
    def test_ite_file(self, tmp_path_factory, ite):
        d = tmp_path_factory.mktemp("ite")
        write_ite_csv_rowwise(ite, d / "rowwise.csv")
        cate = CateModel("S", LearnerSpec("linear"), np.array(ite, dtype=float), 0.0, (), "w")
        for block in (1, 3, frame._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frame, "_BLOCK", block)
                cate.write_ite_csv(d / "ite.csv")
            assert (d / "ite.csv").read_bytes() == (d / "rowwise.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_table_of_row_dicts(self, tmp_path_factory, data):
        fields = data.draw(st.lists(PLAIN, min_size=1, max_size=4, unique=True))
        keys = st.sampled_from([*fields, "extra"])
        rows = data.draw(st.lists(st.dictionaries(keys, VALUES), max_size=5))
        d = tmp_path_factory.mktemp("table")
        write_table_dictwriter(d / "dictwriter.csv", fields, rows)
        pipeline._write_table(d / "table.csv", fields, rows)
        assert (d / "table.csv").read_bytes() == (d / "dictwriter.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(columns=st.integers(0, 9).flatmap(lambda n: st.lists(
        st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=3)))
    def test_table_of_float_columns(self, tmp_path_factory, columns):
        # the validation plot tables, once turned into row dicts for DictWriter
        fields = [f"c{j}" for j in range(len(columns))]
        d = tmp_path_factory.mktemp("plot")
        write_table_dictwriter(d / "dictwriter.csv", fields,
                               (dict(zip(fields, r)) for r in zip(*columns)))
        frame.write_rows(d / "table.csv", fields, [[np.array(c, dtype=float) for c in columns]])
        assert (d / "table.csv").read_bytes() == (d / "dictwriter.csv").read_bytes()


class TestLoaderMemory:
    def test_peak_is_a_small_multiple_of_the_frame(self, tmp_path):
        # Holding every row's cell strings at once peaked near 11x the frame,
        # and keeping each parsed block alive until its columns were joined,
        # then copying them into the frame, near 2.8x.  Each column made once
        # from pieces that are freed as it is made peaks near 1.65x: the
        # frame, one block of lines and, at the end, one column twice.
        n, k = 50_000, 10
        rng = make_rng(5)
        f = Frame([Column(f"x{j}", "numeric", rng.standard_normal(n)) for j in range(k)])
        write_csv(f, tmp_path / "d.csv")
        size = sum(c.values.nbytes + c.missing.nbytes for c in f.columns)
        tracemalloc.start()
        try:
            g = load_csv(tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == f
        assert peak < 2 * size, f"peak {peak / size:.2f}x the frame"


class TestOneHot:
    def test_two_levels(self):
        f = Frame.from_dict({"c": np.array(["a", "b", "a"], dtype=object)})
        g = one_hot(f, "c")
        assert g.names == ("c=a", "c=b")
        assert g.values("c=a").tolist() == [1.0, 0.0, 1.0]
        assert g.values("c=b").tolist() == [0.0, 1.0, 0.0]

    def test_single_level_degenerate(self):
        f = Frame.from_dict({"c": np.array(["only", "only"], dtype=object)})
        g = one_hot(f, "c")
        assert g.names == ("c=only",)
        assert g.values("c=only").tolist() == [1.0, 1.0]

    def test_missing_becomes_own_level(self):
        f = Frame(
            [Column("c", "categorical", np.array(["a", "", "b"], dtype=object))]
        )
        g = one_hot(f, "c")
        assert g.names == ("c=a", "c=b", "c=__missing__")
        assert g.values("c=__missing__").tolist() == [0.0, 1.0, 0.0]

    def test_level_named_like_missing_cells_raises_beside_them(self):
        f = Frame.from_dict({"c": np.array(["__missing__", "a", ""], dtype=object)})
        with pytest.raises(TypeConflictError, match="c=__missing__"):
            one_hot(f, "c")

    def test_level_named_like_missing_cells_is_a_level_alone(self):
        f = Frame.from_dict({"c": np.array(["__missing__", "a"], dtype=object)})
        g = one_hot(f, "c")
        assert g.names == ("c=__missing__", "c=a")
        assert g.values("c=__missing__").tolist() == [1.0, 0.0]

    def test_position_preserved(self):
        f = Frame.from_dict(
            {"pre": np.array([1.0, 2.0]), "c": np.array(["a", "b"], dtype=object),
             "post": np.array([3.0, 4.0])}
        )
        g = one_hot(f, "c")
        assert g.names == ("pre", "c=a", "c=b", "post")

    def test_kind_checked(self):
        f = Frame.from_dict({"x": np.array([1.0, 2.0])})
        with pytest.raises(KindError):
            one_hot(f, "x")
        with pytest.raises(UnknownColumnError):
            one_hot(f, "nope")

    def test_rows_sum_to_one(self):
        rng = make_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            cats = np.array([rng.choice(["u", "v", "w"]) for _ in range(n)], dtype=object)
            miss = rng.uniform(size=n) < 0.25
            f = Frame([Column("c", "categorical", np.where(miss, "", cats))])
            g = one_hot(f, "c")
            total = np.zeros(n)
            for name in g.names:
                total += g.values(name)
            assert np.array_equal(total, np.ones(n))


class TestImputeMean:
    def test_simple(self):
        f = Frame([Column("x", "numeric", np.array([1.0, np.nan, 3.0]))])
        g = impute_mean(f, "x")
        assert g.values("x").tolist() == [1.0, 2.0, 3.0]
        assert not g.missing("x").any()

    def test_identity_without_missing(self):
        f = Frame.from_dict({"x": np.array([1.0, 2.0])})
        assert impute_mean(f, "x") == f

    def test_all_missing_warns_and_zeros(self):
        f = Frame([Column("x", "numeric", np.array([np.nan, np.nan]))])
        with pytest.warns(UserWarning):
            g = impute_mean(f, "x")
        assert g.values("x").tolist() == [0.0, 0.0]

    def test_binary_with_fractional_mean_becomes_numeric(self):
        f = Frame([Column("b", "binary", np.array([1.0, 0.0, np.nan]))])
        g = impute_mean(f, "b")
        assert g.kind("b") == "numeric"
        assert g.values("b")[2] == 0.5

    def test_categorical_rejected(self):
        f = Frame.from_dict({"c": np.array(["a"], dtype=object)})
        with pytest.raises(KindError):
            impute_mean(f, "c")

    def test_mean_preserved(self):
        rng = make_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            vals = rng.standard_normal(n)
            miss = rng.uniform(size=n) < 0.4
            if miss.all():
                miss[0] = False
            f = Frame([Column("x", "numeric", np.where(miss, np.nan, vals))])
            g = impute_mean(f, "x")
            assert np.isclose(g.values("x").mean(), vals[~miss].mean())


class TestDeriveBinaryLabel:
    def test_above_mean(self):
        f = Frame.from_dict({"x": np.array([1.0, 2.0, 3.0, 10.0])})
        g = derive_binary_label(f, LabelRule(source="x", target="high_x"))
        assert g.values("high_x").tolist() == [0.0, 0.0, 0.0, 1.0]
        assert g.kind("high_x") == "binary"

    def test_constant_column_all_zero(self):
        f = Frame.from_dict({"x": np.array([4.0, 4.0, 4.0])})
        g = derive_binary_label(f, LabelRule(source="x", target="hi"))
        assert g.values("hi").tolist() == [0.0, 0.0, 0.0]

    def test_window_benchmark(self):
        # homes flagged window-rich only when the count exceeds the average of 5
        counts = np.array([2.0, 4.0, 5.0, 6.0, 8.0])
        assert counts.mean() == 5.0
        f = Frame.from_dict({"openable_windows": counts})
        g = derive_binary_label(f, LabelRule("openable_windows", "window_rich"))
        assert g.values("window_rich").tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]

    def test_missing_rejected(self):
        f = Frame([Column("x", "numeric", np.array([1.0, np.nan]))])
        with pytest.raises(MissingDataError):
            derive_binary_label(f, LabelRule("x", "t"))

    def test_bad_comparator(self):
        with pytest.raises(ValueError):
            LabelRule("a", "b", comparator="below_median")


class TestSplit:
    def test_sizes(self):
        f = Frame.from_dict({"x": np.arange(10.0)})
        a, b = split(f, 0.8, seed=1)
        assert (a.n_rows, b.n_rows) == (8, 2)

    def test_ceil_sizes(self):
        f = Frame.from_dict({"x": np.arange(7.0)})
        a, b = split(f, 0.5, seed=1)
        assert (a.n_rows, b.n_rows) == (4, 3)

    def test_deterministic(self):
        f = Frame.from_dict({"x": np.arange(50.0)})
        a1, b1 = split(f, 0.8, seed=42)
        a2, b2 = split(f, 0.8, seed=42)
        assert a1 == a2 and b1 == b2
        a3, _ = split(f, 0.8, seed=43)
        assert a3 != a1

    def test_partition_is_exact(self):
        rng = make_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            f = Frame.from_dict({"x": rng.standard_normal(n) + np.arange(n) * 100})
            frac = float(rng.uniform(0.1, 0.9))
            a, b = split(f, frac, seed=int(rng.integers(0, 1000)))
            assert a.n_rows == int(np.ceil(n * frac - 1e-9))
            merged = sorted(a.values("x").tolist() + b.values("x").tolist())
            assert merged == sorted(f.values("x").tolist())

    def test_empty_frame(self):
        f = Frame.from_dict({"x": np.array([])})
        with pytest.raises(EmptyFrameError):
            split(f, 0.5, seed=0)

    def test_bad_fraction(self):
        f = Frame.from_dict({"x": np.arange(4.0)})
        with pytest.raises(ValueError):
            split(f, 1.0, seed=0)


class TestFrameInvariants:
    def test_columns_are_immutable(self):
        f = Frame.from_dict({"x": np.array([1.0, 2.0])})
        with pytest.raises(ValueError):
            f.values("x")[0] = 99.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(TypeConflictError):
            Frame([Column("x", "numeric", np.array([1.0])),
                   Column("x", "numeric", np.array([2.0]))])

    def test_empty_text_is_missing(self):
        # CSV writes both as an empty field, so only one can read back
        c = Column("c", "categorical", np.array(["", "a"], dtype=object))
        assert c.missing.tolist() == [True, False]
        assert Frame([c]) == Frame.from_dict({"c": np.array(["", "a"], dtype=object)})

    def test_missing_mask_is_derived_from_values(self):
        assert Column("x", "numeric", np.array([1.0, np.inf, np.nan])).missing.tolist() == [
            False, True, True]
        c = Column("b", "binary", np.array([0.0, -np.inf]))
        assert c.missing.tolist() == [False, True] and np.isnan(c.values[1])

    def test_column_equality_compares_values(self):
        x = Column("x", "numeric", np.array([0.0, np.nan]))
        assert x == Column("x", "numeric", np.array([-0.0, np.inf]))
        assert x in [Column("y", "numeric", x.values), x]
        assert x != Column("y", "numeric", x.values)
        assert x != Column("x", "binary", x.values)
        assert x != Column("x", "numeric", np.array([1.0, np.nan]))
        c = Column("c", "categorical", np.array(["a", ""], dtype=object))
        assert c == Column("c", "categorical", np.array(["a", ""], dtype=object))
        assert c != Column("c", "categorical", np.array(["a", "b"], dtype=object))

    def test_binary_values_checked(self):
        with pytest.raises(TypeConflictError):
            Column("b", "binary", np.array([0.0, 2.0]))

    def test_numeric_matrix_guards(self):
        f = Frame([Column("x", "numeric", np.array([1.0, np.nan])),
                   Column("c", "categorical", np.array(["a", "b"], dtype=object))])
        with pytest.raises(MissingDataError):
            f.numeric_matrix(["x"])
        with pytest.raises(KindError):
            f.numeric_matrix(["c"])
