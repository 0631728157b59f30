import tracemalloc

import numpy as np
import pytest

from _oracles import csv_writer_matrix_bytes
from popgate.exceptions import MissingInputError, PopgateError
from popgate.tabular import (
    align_rows,
    read_columns,
    read_csv,
    read_matrix_csv,
    write_csv,
    write_matrix_csv,
)


class TestCsvRoundTrip:
    def test_floats_round_trip_exactly(self, tmp_path):
        p = tmp_path / "m.csv"
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 5)) * 10.0 ** rng.integers(-8, 8, size=(20, 5))
        ids = [f"t{i}" for i in range(20)]
        write_matrix_csv(p, ids, [f"f{j}" for j in range(5)], X)
        ids2, names, Y = read_matrix_csv(p)
        assert ids2 == ids
        assert names == [f"f{j}" for j in range(5)]
        assert np.array_equal(X, Y)  # bitwise, thanks to repr()

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        X = np.random.default_rng(0).normal(size=(7, 3))
        for p in (a, b):
            write_matrix_csv(p, [f"t{i}" for i in range(7)], ["x", "y", "z"], X)
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_bytes_are_pinned(self, tmp_path):
        p = tmp_path / "pinned.csv"
        ids = ["t0", "a,b", 'say "hi"']
        X = np.array([[1.0, -0.0, 0.1], [np.nan, np.inf, -np.inf], [1e300, 5e-324, -2.5]])
        write_matrix_csv(p, ids, ["x", "y", "z"], X)
        write_matrix_csv(tmp_path / "ints.csv", ["t0"], ["n", "m"], np.array([[3, -7]]))
        assert p.read_bytes() == (
            b"track_id,x,y,z\n"
            b"t0,1.0,-0.0,0.1\n"
            b'"a,b",nan,inf,-inf\n'
            b'"say ""hi""",1e+300,5e-324,-2.5\n'
        )
        assert (tmp_path / "ints.csv").read_bytes() == b"track_id,n,m\nt0,3,-7\n"

    @pytest.mark.parametrize(
        "ids, X",
        [
            (["a,b", 'say "hi"', "two\nlines", "", "cr\rlf", " pad "],
             np.array([[-0.0], [5e-324], [1e16], [1e-05], [-1.5e-300], [0.1]])),
            (["t0", "", "t,2"], np.array([[3, -7, 0], [2**62, -(2**63), 1], [9, 9, 9]])),
            (["t0", "t1"], np.array([[True, False], [False, True]])),
            ([], np.zeros((0, 3))),
            (["", "t1"], np.zeros((2, 0))),
            (["t0"], np.array([[np.nan, np.inf, -np.inf, 1e300, 123456789.0, 1e22]])),
        ],
    )
    def test_matrix_bytes_match_csv_writer(self, tmp_path, ids, X):
        p = tmp_path / "m.csv"
        names = [f"f{j}" for j in range(X.shape[1])]
        write_matrix_csv(p, ids, names, X)
        assert p.read_bytes() == csv_writer_matrix_bytes(ids, names, X)

    def test_quoted_ids_round_trip(self, tmp_path):
        p = tmp_path / "q.csv"
        ids = ["a,b", 'say "hi"', "two\nlines", "", "last"]
        X = np.arange(10.0).reshape(5, 2)
        write_matrix_csv(p, ids, ["x", "y"], X)
        got_ids, _, Y = read_matrix_csv(p)
        assert got_ids == ids
        assert np.array_equal(Y, X)

    def test_numpy_scalars_serialize_plainly(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, ["track_id", "a", "b"], [["t0", np.float64(0.5), np.int64(3)]])
        text = p.read_text()
        assert "np.float64" not in text and "np.int64" not in text
        assert text.splitlines()[1] == "t0,0.5,3"

    def test_mixed_text_cells_survive_quoting(self, tmp_path):
        p = tmp_path / "q.csv"
        write_csv(p, ["track_id", "lyrics"], [["t0", 'la, "la"\nla']])
        header, rows = read_csv(p)
        assert rows == [["t0", 'la, "la"\nla']]


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            read_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(PopgateError, match="empty"):
            read_csv(p)

    def test_read_columns_reports_missing_names(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, ["track_id", "a"], [["t0", "1"]])
        with pytest.raises(PopgateError, match="lacks columns"):
            read_columns(p, ["track_id", "b"])

    def test_matrix_requires_track_id_first(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, ["id", "a"], [["t0", "1"]])
        with pytest.raises(PopgateError, match="track_id"):
            read_matrix_csv(p)

    def test_matrix_bad_number_names_row_and_column(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], [["t0", "1.0", "2.0"], ["t1", "1.0", "oops"]])
        with pytest.raises(PopgateError, match=r"row 3, column 'b'"):
            read_matrix_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_matrix_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], [["t0", "1.0", "2.0"], ["t1", cell, "inf"]])
        msg = rf"m\.csv row 3, column 'a': not a finite number: '{cell}'"
        with pytest.raises(PopgateError, match=msg):
            read_matrix_csv(p)

    def test_matrix_parse_error_precedes_earlier_non_finite_cell(self, tmp_path):
        # parse errors come first, in file order; the non-finite scan runs
        # only once every cell has parsed, even when the nan is in an earlier row
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"],
                  [["t0", "nan", "2.0"], ["t1", "1.0", "oops"], ["t2", "x", "1.0"]])
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == f"{p} row 3, column 'b': not a number: 'oops'"

    def test_matrix_first_non_finite_is_row_major(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"],
                  [["t0", "1.0", "2.0"], ["t1", "1.0", " -Infinity "], ["t2", "nan", "1.0"]])
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == f"{p} row 3, column 'b': not a finite number: ' -Infinity '"

    def test_matrix_ragged_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("track_id,a,b\nt0,1.0\n")
        with pytest.raises(PopgateError, match="expected 3 cells"):
            read_matrix_csv(p)

    @pytest.mark.parametrize("row", ["s2,a2", "s2,a2,1999,x"])
    def test_columns_ragged_row(self, tmp_path, row):
        p = tmp_path / "meta.csv"
        p.write_text(f"track_id,artist_id,year\ns1,a1,2001\n{row}\n")
        with pytest.raises(PopgateError) as err:
            read_columns(p, ["track_id"])
        assert str(err.value) == f"{p} row 3: expected 3 cells, got {len(row.split(','))}"

    def test_write_matrix_shape_mismatch(self, tmp_path):
        with pytest.raises(PopgateError, match="does not match"):
            write_matrix_csv(tmp_path / "m.csv", ["t0"], ["a"], np.zeros((2, 1)))


class TestByteOrderMark:
    def test_matrix_with_bom_reads_like_without(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_matrix_csv(plain, ["t0", "t1"], ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.5]]))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        ids, names, X = read_matrix_csv(bom)
        assert (ids, names) == (["t0", "t1"], ["a", "b"])
        assert np.array_equal(X, read_matrix_csv(plain)[2])

    def test_metadata_table_with_bom_keeps_first_column_name(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_bytes("\ufefftrack_id,year\nt0,1999\n".encode("utf-8"))
        assert read_csv(p) == (["track_id", "year"], [["t0", "1999"]])
        assert read_columns(p, ["track_id", "year"]) == {"track_id": ["t0"], "year": ["1999"]}


def _read_peak(p) -> tuple[np.ndarray, int]:
    """The matrix read from `p`, and the peak bytes numpy allocated meanwhile."""
    tracemalloc.start()
    try:
        _, _, Y = read_matrix_csv(p)
        return Y, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatrixReadMemory:
    def test_read_peak_stays_near_the_matrix_size(self, tmp_path):
        # one pass parsing each row into one preallocated matrix: no Python
        # string per cell of the file and no second copy of the matrix
        p = tmp_path / "wide.csv"
        X = np.random.default_rng(4).normal(size=(400, 2000))
        write_matrix_csv(p, [f"t{i}" for i in range(400)], [f"f{j}" for j in range(2000)], X)
        Y, peak = _read_peak(p)
        assert np.array_equal(Y, X)
        assert peak <= 1.3 * X.nbytes, f"peak {peak / X.nbytes:.2f}x the matrix"

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_read_the_same_within_the_peak(self, tmp_path, line_end):
        # the matrix is sized from a count of line ends; one that counted a
        # CRLF twice would allocate two matrices' worth
        p = tmp_path / "wide.csv"
        X = np.random.default_rng(5).normal(size=(300, 1500))
        write_matrix_csv(p, [f"t{i}" for i in range(300)], [f"f{j}" for j in range(1500)], X)
        p.write_bytes(p.read_bytes().replace(b"\n", line_end.encode()))
        Y, peak = _read_peak(p)
        assert np.array_equal(Y, X)
        assert peak <= 1.3 * X.nbytes, f"peak {peak / X.nbytes:.2f}x the matrix"


class TestAlignRows:
    def test_reorders_to_requested_ids(self):
        X = np.arange(8.0).reshape(4, 2)
        out = X[align_rows(["c", "a"], ["a", "b", "c", "d"], "tbl")]
        assert np.array_equal(out, X[[2, 0]])

    def test_missing_ids_error_names_offenders(self):
        with pytest.raises(MissingInputError, match="'q1'"):
            align_rows(["a", "q1"], ["a", "b"], "tbl")
