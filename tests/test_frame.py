import codecs
import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causet.errors import (
    EmptyFrameError,
    IoError,
    KindError,
    MissingDataError,
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
from causet.rng import make_rng

from oracles import load_csv_two_pass, write_csv_rowwise


def frame_of(text, path, schema=None):
    path.write_text(text, encoding="utf-8")
    return load_csv(path, schema=schema)


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

    def test_schema_conflict(self, tmp_path):
        with pytest.raises(TypeConflictError):
            frame_of("a\nx\n", tmp_path / "d.csv", schema={"a": "numeric"})
        with pytest.raises(TypeConflictError):
            frame_of("a\n2\n", tmp_path / "d.csv", schema={"a": "binary"})

    def test_schema_overrides_inference(self, tmp_path):
        f = frame_of("a\n0\n1\n", tmp_path / "d.csv", schema={"a": "numeric"})
        assert f.kind("a") == "numeric"

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

    def test_header_only_file(self, tmp_path):
        f = frame_of("a,b\n", tmp_path / "d.csv")
        assert f.n_rows == 0

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
        f = Frame(
            [
                Column("v", "numeric", vals, miss),
                Column("b", "binary", (rng.uniform(size=n) < 0.5).astype(float),
                       rng.uniform(size=n) < 0.2),
                Column("c", "categorical", cats, rng.uniform(size=n) < 0.2),
            ]
        )
        path = tmp_path_factory.mktemp("rt") / "f.csv"
        write_csv(f, path)
        kinds = {"v": "numeric", "b": "binary", "c": "categorical"}
        assert load_csv(path, schema=kinds) == f

    def test_roundtrip_all_missing_column_infers_numeric(self, tmp_path):
        # No finite value gives numeric on both sides of the round trip.
        f = Frame.from_dict({"x": np.array([np.nan, np.nan]), "y": np.array([1.0, 2.0])})
        assert f.kind("x") == "numeric"
        write_csv(f, tmp_path / "out.csv")
        assert load_csv(tmp_path / "out.csv") == f

    def test_first_offending_cell_names_the_error(self, tmp_path):
        with pytest.raises(TypeConflictError, match=r"cell '2' is not 0/1"):
            frame_of("a\n2\nabc\n", tmp_path / "d.csv", schema={"a": "binary"})
        with pytest.raises(TypeConflictError, match=r"cell 'abc' is not numeric"):
            frame_of("a\nabc\n2\n", tmp_path / "d.csv", schema={"a": "binary"})


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


def assert_same_load(path, schema=None):
    """``load_csv`` and the two-pass oracle give the same frame, bit for
    bit, or the same error; returns the frame or the error."""
    outcomes = []
    for load in (load_csv, load_csv_two_pass):
        try:
            outcomes.append(load(path, schema=schema))
        except (TypeConflictError, RaggedRowError) as exc:
            outcomes.append((type(exc), str(exc)))
    got, expected = outcomes
    if isinstance(expected, tuple):
        assert got == expected
        return got
    assert got == expected
    for a, b in zip(got.columns, expected.columns):
        assert a.kind == b.kind
        assert a.missing.tobytes() == b.missing.tobytes()
        if a.kind == "categorical":
            assert a.values.tolist() == b.values.tolist()
        else:
            assert a.values.tobytes() == b.values.tobytes()
    return got


class TestLoaderOracle:
    """The block loader against the former two-pass one, with blocks small
    enough that the files cross them."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=8),
        schema_kind=st.sampled_from([None, "numeric", "binary", "categorical"]),
    )
    def test_same_frame_or_same_error(self, tmp_path_factory, rows, schema_kind):
        path = tmp_path_factory.mktemp("oracle") / "d.csv"
        write_rows(path, rows)
        schema = None if schema_kind is None else {"c1": schema_kind}
        for block in (1, 2, 3, frame._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frame, "_BLOCK", block)
                assert_same_load(path, schema)


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

    def test_unparsable_only_in_last_block(self, tmp_path):
        write_rows(tmp_path / "d.csv", [["1.5", "0", "2"]] * 4 + [["x", "1", "3"]])
        f = assert_same_load(tmp_path / "d.csv")
        assert [f.kind(n) for n in f.names] == ["categorical", "binary", "numeric"]
        assert f.values("c0").tolist() == ["1.5"] * 4 + ["x"]

    def test_declared_binary_names_first_bad_cell(self, tmp_path):
        rows = [["2", "0", "0"], ["1", "0", "0"], ["0", "0", "0"],
                ["1", "0", "0"], ["abc", "0", "0"]]
        write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(TypeConflictError, match=r"cell '2' is not 0/1"):
            load_csv(tmp_path / "d.csv", schema={"c0": "binary"})
        assert_same_load(tmp_path / "d.csv", {"c0": "binary"})

    def test_ragged_row_outranks_an_earlier_bad_cell(self, tmp_path):
        rows = [["abc", "0", "0"], ["1", "0", "0"], ["0", "0", "0"],
                ["1", "0", "0"], ["0", "0"]]
        write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(RaggedRowError, match=r"row 6 has 2 fields"):
            load_csv(tmp_path / "d.csv", schema={"c0": "numeric"})
        assert_same_load(tmp_path / "d.csv", {"c0": "numeric"})

    @pytest.mark.parametrize("schema_kind", [None, "numeric", "binary", "categorical"])
    def test_header_only(self, tmp_path, schema_kind):
        write_rows(tmp_path / "d.csv", [])
        f = assert_same_load(tmp_path / "d.csv", {"c0": schema_kind} if schema_kind else None)
        assert f.n_rows == 0 and f.names == ("c0", "c1", "c2")

    def test_rows_an_exact_multiple_of_the_block(self, tmp_path):
        write_rows(tmp_path / "d.csv", [[str(i), str(i % 2), f"t{i}"] for i in range(4)])
        f = assert_same_load(tmp_path / "d.csv")
        assert f.n_rows == 4
        assert f.values("c0").tolist() == [0.0, 1.0, 2.0, 3.0]


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

    return Frame([
        Column("num", "numeric", np.array(cells(NUMBERS), dtype=float), cells(st.booleans())),
        Column("bin", "binary", np.array(cells(st.sampled_from([0.0, 1.0, -0.0])), dtype=float),
               cells(st.booleans())),
        Column("te,xt", "categorical", np.array(cells(TEXT), dtype=object), cells(st.booleans())),
    ])


class TestWriterBytes:
    """The block writer against the former row-at-a-time one."""

    @settings(max_examples=200, deadline=None)
    @given(f=frames())
    def test_same_bytes_at_every_block_size(self, tmp_path_factory, f):
        d = tmp_path_factory.mktemp("writer")
        write_csv_rowwise(f, d / "rowwise.csv")
        expected = (d / "rowwise.csv").read_bytes()
        for block in (1, 3, frame._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frame, "_BLOCK", block)
                write_csv(f, d / "blocks.csv")
            assert (d / "blocks.csv").read_bytes() == expected


class TestLoaderMemory:
    def test_peak_is_a_small_multiple_of_the_frame(self, tmp_path):
        # Holding every row's cell strings at once peaked near 11x the frame;
        # one block of cells plus the parsed columns stays near 2.4x.
        n, k = 50_000, 10
        rng = make_rng(5)
        f = Frame([Column(f"x{j}", "numeric", rng.standard_normal(n), np.zeros(n, dtype=bool))
                   for j in range(k)])
        write_csv(f, tmp_path / "d.csv")
        size = sum(c.values.nbytes + c.missing.nbytes for c in f.columns)
        tracemalloc.start()
        try:
            g = load_csv(tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == f
        assert peak < 5 * size, f"peak {peak / size:.1f}x the frame"


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
            [Column("c", "categorical", np.array(["a", "", "b"], dtype=object),
                    np.array([False, True, False]))]
        )
        g = one_hot(f, "c")
        assert g.names == ("c=a", "c=b", "c=__missing__")
        assert g.values("c=__missing__").tolist() == [0.0, 1.0, 0.0]

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
            f = Frame([Column("c", "categorical", cats, miss)])
            g = one_hot(f, "c")
            total = np.zeros(n)
            for name in g.names:
                total += g.values(name)
            assert np.array_equal(total, np.ones(n))


class TestImputeMean:
    def test_simple(self):
        f = Frame([Column("x", "numeric", np.array([1.0, np.nan, 3.0]),
                          np.array([False, True, False]))])
        g = impute_mean(f, "x")
        assert g.values("x").tolist() == [1.0, 2.0, 3.0]
        assert not g.missing("x").any()

    def test_identity_without_missing(self):
        f = Frame.from_dict({"x": np.array([1.0, 2.0])})
        assert impute_mean(f, "x") == f

    def test_all_missing_warns_and_zeros(self):
        f = Frame([Column("x", "numeric", np.array([np.nan, np.nan]),
                          np.array([True, True]))])
        with pytest.warns(UserWarning):
            g = impute_mean(f, "x")
        assert g.values("x").tolist() == [0.0, 0.0]

    def test_binary_with_fractional_mean_becomes_numeric(self):
        f = Frame([Column("b", "binary", np.array([1.0, 0.0, np.nan]),
                          np.array([False, False, True]))])
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
            f = Frame([Column("x", "numeric", np.where(miss, np.nan, vals), miss)])
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
        f = Frame([Column("x", "numeric", np.array([1.0, np.nan]),
                          np.array([False, True]))])
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
            Frame([Column("x", "numeric", np.array([1.0]), np.array([False])),
                   Column("x", "numeric", np.array([2.0]), np.array([False]))])

    def test_binary_values_checked(self):
        with pytest.raises(TypeConflictError):
            Column("b", "binary", np.array([0.0, 2.0]), np.array([False, False]))

    def test_numeric_matrix_guards(self):
        f = Frame([Column("x", "numeric", np.array([1.0, np.nan]),
                          np.array([False, True])),
                   Column("c", "categorical", np.array(["a", "b"], dtype=object),
                          np.array([False, False]))])
        with pytest.raises(MissingDataError):
            f.numeric_matrix(["x"])
        with pytest.raises(KindError):
            f.numeric_matrix(["c"])
