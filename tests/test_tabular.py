import csv
import io
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import csv_writer_matrix_bytes
from popgate import tabular
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


@pytest.fixture(params=[1, 2, 3])
def forced_blocks(request, monkeypatch):
    """Split every matrix into `request.param` row blocks (as many as the
    table allows), whatever its size and this machine's core count."""
    monkeypatch.setattr(tabular, "PARALLEL_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


def _quoted_table(ids, names, X, line_end="\n") -> tuple[bytes, list[tuple[int, int]]]:
    """A matrix CSV with every id quoted (csv.writer leaves an id holding a
    bare \\r unquoted) -> (its bytes, the byte span of each quoted id)."""
    out = bytearray((",".join(["track_id", *names]) + line_end).encode())
    spans = []
    for tid, row in zip(ids, X):
        cell = ('"' + tid.replace('"', '""') + '"').encode()
        spans.append((len(out), len(out) + len(cell)))
        out += cell + "".join("," + repr(v) for v in row.tolist()).encode() + line_end.encode()
    return bytes(out), spans


def _first_rows(p, k) -> list[int]:
    """The data row each block starts at when `p` is read in `k` blocks."""
    _, edges = tabular._scan(p, k)
    text = p.read_bytes().decode("utf-8-sig")
    return [0] + [len(list(csv.reader(io.StringIO(text[:e], newline="")))) - 1
                  for e in edges[1:-1]]


@pytest.mark.usefixtures("forced_blocks")
class TestMatrixInBlocks:
    """The matrix cases above, and cases at the block edges, with every table
    split into 1, 2 and 3 row blocks: the bytes written, the values read and
    the errors raised are those of one block."""

    test_matrix_bytes_match_csv_writer = TestCsvRoundTrip.test_matrix_bytes_match_csv_writer
    test_quoted_ids_round_trip = TestCsvRoundTrip.test_quoted_ids_round_trip
    test_matrix_requires_track_id_first = TestReadErrors.test_matrix_requires_track_id_first
    test_matrix_bad_number_names_row_and_column = (
        TestReadErrors.test_matrix_bad_number_names_row_and_column)
    test_matrix_non_finite_cell_names_row_and_column = (
        TestReadErrors.test_matrix_non_finite_cell_names_row_and_column)
    test_matrix_parse_error_precedes_earlier_non_finite_cell = (
        TestReadErrors.test_matrix_parse_error_precedes_earlier_non_finite_cell)
    test_matrix_first_non_finite_is_row_major = TestReadErrors.test_matrix_first_non_finite_is_row_major
    test_matrix_ragged_row = TestReadErrors.test_matrix_ragged_row
    test_write_matrix_shape_mismatch = TestReadErrors.test_write_matrix_shape_mismatch

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("char", [",", '"', "\n", "\r"], ids=["comma", "quote", "lf", "cr"])
    def test_special_ids_on_block_edges(self, tmp_path, forced_blocks, char, line_end):
        # rows of one length with long ids made of the character, and a
        # header longer than a row's numbers: each block's nominal start (b/k
        # of the file) then falls inside an id, and a "\n" there is quoted
        ids = [f"{char}x" * 40 + f"{i:02d}" for i in range(12)]
        names = [f"feature_{'x' * 16}_{j}" for j in range(2)]
        X = np.arange(24.0).reshape(12, 2) % 9 + 1.25
        body, spans = _quoted_table(ids, names, X, line_end)
        p = tmp_path / "ids.csv"
        p.write_bytes(body)
        for b in range(1, forced_blocks):
            assert any(lo < len(body) * b // forced_blocks < hi for lo, hi in spans)
        assert len(_first_rows(p, forced_blocks)) == forced_blocks
        got_ids, got_names, Y = read_matrix_csv(p)
        assert (got_ids, got_names) == (ids, names)
        assert np.array_equal(Y, X)
        w = tmp_path / "w.csv"
        write_matrix_csv(w, ids, names, X)
        assert w.read_bytes() == csv_writer_matrix_bytes(ids, names, X)

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_round_trip(self, tmp_path, forced_blocks, line_end):
        p = tmp_path / "m.csv"
        ids = ["a,b", 'say "hi"', "two\nlines", "", *(f"t{i}" for i in range(8))]
        X = np.random.default_rng(6).normal(size=(12, 3))
        write_matrix_csv(p, ids, ["x", "y", "z"], X)
        p.write_bytes(p.read_bytes().replace(b"\n", line_end.encode()))
        got_ids, _, Y = read_matrix_csv(p)
        # "\r" line ends leave no "\n" to start a block at: one block
        expect = ([i.replace("\n", line_end) for i in ids], 1 if line_end == "\r" else forced_blocks)
        assert (got_ids, len(_first_rows(p, forced_blocks))) == expect
        assert np.array_equal(Y, X)

    def test_carriage_returns_in_ids_round_trip(self, tmp_path, forced_blocks):
        # csv.writer with "\n" line ends leaves a bare "\r" unquoted, and a
        # reader ends the row there
        ids = ["cr\rlf", "\r", "two\r\nlines", "a,b\r", "", *(f"t{i}" for i in range(7))]
        X = np.random.default_rng(8).normal(size=(12, 2))
        m, c = tmp_path / "m.csv", tmp_path / "c.csv"
        write_matrix_csv(m, ids, ["x", "y"], X)
        write_csv(c, ["track_id", "x", "y"], ([tid, *row] for tid, row in zip(ids, X.tolist())))
        got_ids, _, Y = read_matrix_csv(m)
        assert got_ids == ids
        assert np.array_equal(Y, X)
        assert read_csv(c) == (["track_id", "x", "y"],
                               [[tid, *map(repr, row)] for tid, row in zip(ids, X.tolist())])
        assert m.read_bytes() == c.read_bytes() == csv_writer_matrix_bytes(ids, ["x", "y"], X)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0), (1, 4), (2, 5)],
                             ids=["no-rows", "no-columns", "neither", "one-row", "two-rows"])
    def test_small_tables_round_trip(self, tmp_path, shape):
        # fewer rows than blocks leaves some blocks empty
        p = tmp_path / "s.csv"
        ids = [f"t{i}" for i in range(shape[0])]
        X = np.random.default_rng(7).normal(size=shape)
        names = [f"f{j}" for j in range(shape[1])]
        write_matrix_csv(p, ids, names, X)
        assert p.read_bytes() == csv_writer_matrix_bytes(ids, names, X)
        got_ids, got_names, Y = read_matrix_csv(p)
        assert (got_ids, got_names, Y.shape) == (ids, names, shape)
        assert np.array_equal(Y, X)

    def test_ragged_row_in_block_two_beats_nan_in_block_one(self, tmp_path, forced_blocks):
        rows = [[f"t{i:02d}", "1.5", "2.5"] for i in range(30)]
        rows[3][1] = "nan"
        rows[17] = ["t17", "1.5"]
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], rows)
        starts = _first_rows(p, forced_blocks)
        if forced_blocks > 1:
            assert starts[1] <= 17 < (starts + [30])[2] and 3 < starts[1]
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == f"{p} row 19: expected 3 cells, got 2"

    def test_non_finite_cell_in_block_three_names_its_global_row(self, tmp_path, forced_blocks):
        rows = [[f"t{i:02d}", "1.5", "2.5"] for i in range(30)]
        rows[25][2] = "-inf"
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], rows)
        assert 25 >= _first_rows(p, forced_blocks)[-1]
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == f"{p} row 27, column 'b': not a finite number: '-inf'"

    def test_byte_order_mark_before_a_quoted_header(self, tmp_path, forced_blocks):
        # the quote right after the mark opens the first header field, and
        # the "\n" inside it does not end the header
        body, _ = _quoted_table([f"t{i:02d}" for i in range(12)], ['a"\nb', "c"], np.ones((12, 2)))
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + body.replace(b'track_id,a"\nb,c', b'"track_id","a""\nb",c', 1))
        assert len(_first_rows(p, forced_blocks)) == forced_blocks
        ids, names, Y = read_matrix_csv(p)
        assert (ids, names) == ([f"t{i:02d}" for i in range(12)], ['a"\nb', "c"])
        assert np.array_equal(Y, np.ones((12, 2)))

    def test_quote_outside_a_quoted_field_reads_as_one_block(self, tmp_path, forced_blocks):
        # csv.reader keeps the quote of an unquoted `t"0` as text, so the
        # quote count no longer tells whether a later "\n" is inside a quoted
        # id; the file is read whole, as one block
        body, _ = _quoted_table([f"two\nlines{i}" for i in range(10)], ["a", "b"], np.ones((10, 2)))
        p = tmp_path / "m.csv"
        p.write_bytes(body.replace(b"\n", b'\nt"0,1.0,2.0\n', 1))
        assert _first_rows(p, forced_blocks) == [0]
        ids, _, Y = read_matrix_csv(p)
        assert ids == ['t"0'] + [f"two\nlines{i}" for i in range(10)]
        assert Y.shape == (11, 2)


@pytest.mark.usefixtures("forced_blocks")
class TestByteOrderMarkInBlocks(TestByteOrderMark):
    pass


@pytest.mark.usefixtures("forced_blocks")
class TestMatrixReadMemoryInBlocks(TestMatrixReadMemory):
    pass


class TestMatrixWriteMemory:
    def test_write_peak_stays_far_below_the_matrix_size(self, tmp_path, forced_blocks):
        # rows are formatted and written one at a time, in the parent and in
        # each worker, so the peak is about one row's text, not the table's
        import multiprocessing  # noqa: F401  (loaded once per process; not the writer's)

        X = np.random.default_rng(4).normal(size=(400, 2000))
        p = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            write_matrix_csv(p, [f"t{i}" for i in range(400)], [f"f{j}" for j in range(2000)], X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_matrix_csv(p)[2], X)
        assert peak <= 0.25 * X.nbytes, f"peak {peak / X.nbytes:.2f}x the matrix"


class _IdsFailingAt(list):
    """Track ids whose iteration raises at index `at`."""

    def __init__(self, ids, at):
        super().__init__(ids)
        self.at = at

    def __iter__(self):
        for i, tid in enumerate(list.__iter__(self)):
            if i == self.at:
                raise RuntimeError(f"no id at {i}")
            yield tid


class TestAtomicWrites:
    def test_failed_csv_write_keeps_the_earlier_file(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["track_id", "a"], [["t0", 1]])
        before = p.read_bytes()

        def rows():
            yield ["t1", 2]
            raise RuntimeError("row 2")

        with pytest.raises(RuntimeError, match="row 2"):
            write_csv(p, ["track_id", "a"], rows())
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-a-file", "new-file"])
    def test_failed_matrix_write_leaves_no_part_file(self, tmp_path, forced_blocks, earlier):
        # row 7 of 10 fails: in the parent at one block, in the last worker at two or three
        p = tmp_path / "m.csv"
        if earlier:
            write_matrix_csv(p, ["t0"], ["a"], np.ones((1, 1)))
            before = p.read_bytes()
        ids = _IdsFailingAt([f"t{i}" for i in range(10)], 7)
        with pytest.raises((RuntimeError, PopgateError)) as err:
            write_matrix_csv(p, ids, ["a"], np.zeros((10, 1)))
        assert isinstance(err.value, RuntimeError) == (forced_blocks == 1)
        if forced_blocks > 1:
            assert str(p) in str(err.value)
        assert os.listdir(tmp_path) == (["m.csv"] if earlier else [])
        if earlier:
            assert p.read_bytes() == before


def _failing_in_worker(fn, failure):
    """`fn`, except that in a forked worker it raises, is killed by SIGKILL
    or hangs."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "hangs":
                time.sleep(120)
            raise RuntimeError("worker failed")
        return fn(*args)

    return wrapped


class TestWorkers:
    @pytest.fixture
    def pids(self, monkeypatch):
        """The pid of every worker forked while the test runs."""
        pids, fork = [], tabular._fork

        def recording(*args):
            proc, pipe = fork(*args)
            pids.append(proc.pid)
            return proc, pipe

        monkeypatch.setattr(tabular, "_fork", recording)
        return pids

    @pytest.mark.parametrize("forced_blocks", [2, 3], indirect=True)
    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_failed_read_worker_raises_naming_the_file(
            self, tmp_path, monkeypatch, forced_blocks, pids, failure):
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], [[f"t{i:02d}", "1.5", "2.5"] for i in range(40)])
        monkeypatch.setattr(tabular, "_parse_block", _failing_in_worker(tabular._parse_block, failure))
        with pytest.raises(PopgateError, match=f"{p}: a worker process exited with code"):
            read_matrix_csv(p)
        assert len(pids) == forced_blocks - 1
        self._assert_reaped(pids)

    @pytest.mark.parametrize("forced_blocks", [2, 3], indirect=True)
    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_failed_write_worker_raises_naming_the_file(
            self, tmp_path, monkeypatch, forced_blocks, pids, failure):
        p = tmp_path / "m.csv"
        monkeypatch.setattr(tabular, "_write_rows", _failing_in_worker(tabular._write_rows, failure))
        with pytest.raises(PopgateError, match=f"{p}: a worker process exited with code"):
            write_matrix_csv(p, [f"t{i}" for i in range(10)], ["a"], np.zeros((10, 1)))
        assert len(pids) == forced_blocks - 1
        assert os.listdir(tmp_path) == []
        self._assert_reaped(pids)

    @pytest.mark.parametrize("forced_blocks", [2, 3], indirect=True)
    @pytest.mark.parametrize("row, message", [
        (1, "row 3: expected 3 cells, got 2"),    # in the parent's block, while workers run
        (38, "row 40: expected 3 cells, got 2"),  # in the last worker's block
        (None, "row 2, column 'a': not a finite number: 'nan'"),  # after every block parsed
    ], ids=["parent-block", "worker-block", "non-finite"])
    def test_every_worker_is_reaped_after_a_bad_row(self, tmp_path, forced_blocks, pids, row, message):
        rows = [[f"t{i:02d}", "1.5", "2.5"] for i in range(40)]
        rows[0][1] = "nan"
        if row is not None:
            rows[row] = rows[row][:2]
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], rows)
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == f"{p} {message}"
        assert len(pids) == forced_blocks - 1
        self._assert_reaped(pids)

    @pytest.mark.parametrize("forced_blocks", [2, 3], indirect=True)
    def test_parent_error_kills_a_hung_worker(self, tmp_path, monkeypatch, forced_blocks, pids):
        rows = [[f"t{i:02d}", "1.5", "2.5"] for i in range(40)]
        rows[1] = rows[1][:2]
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a", "b"], rows)
        monkeypatch.setattr(tabular, "_parse_block", _failing_in_worker(tabular._parse_block, "hangs"))
        start = time.monotonic()
        with pytest.raises(PopgateError, match="row 3: expected 3 cells"):
            read_matrix_csv(p)
        assert time.monotonic() - start < 60
        assert len(pids) == forced_blocks - 1
        self._assert_reaped(pids)

    @staticmethod
    def _assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_workers_run_no_finally_or_atexit_of_the_caller(self, tmp_path):
        # perfbench/traced_step.py dumps its spans in a `finally`; a worker
        # that unwound would run it again and overwrite the parent's file
        marks = tmp_path / "marks.txt"
        script = f"""
import atexit, os, sys
import numpy as np
from popgate import tabular
def mark(what):
    with open({str(marks)!r}, "a") as fh:
        fh.write(f"{{what}} {{os.getpid()}}\\n")
atexit.register(mark, "atexit")
tabular.PARALLEL_CELLS = 0
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
p = {str(tmp_path / "m.csv")!r}
try:
    tabular.write_matrix_csv(p, [f"t{{i}}" for i in range(9)], ["a", "b"], np.ones((9, 2)))
    tabular.read_matrix_csv(p)
finally:
    mark("finally")
print(os.getpid())
"""
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60)
        assert proc.returncode == 0, proc.stderr
        pid = proc.stdout.strip()
        assert marks.read_text().splitlines() == [f"finally {pid}", f"atexit {pid}"]


def _with_byte(p: Path, row: int, byte: bytes) -> int:
    """Put `byte` into the id of data row `row` of `p` -> its offset in the file."""
    data = p.read_bytes()
    at = data.index(f"\nt{row:04d},".encode()) + 2
    p.write_bytes(data[:at] + byte + data[at:])
    return at


class TestNotUtf8:
    """A byte that is not UTF-8 names the file and the byte's offset from the
    start of the file, wherever the reader met it."""

    @pytest.mark.parametrize("forced_blocks", [1, 2], indirect=True)
    @pytest.mark.parametrize("byte, reason", [
        (b"\xe9", "invalid continuation byte"),
        (b"\xff", "invalid start byte"),
    ])
    def test_matrix(self, tmp_path, forced_blocks, byte, reason):
        # past the first 8 kB, which the header's read decodes, and in the last block
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a"], [[f"t{i:04d}", "1.5"] for i in range(1200)])
        at = _with_byte(p, 1100, byte)
        _, edges = tabular._scan(p, forced_blocks)
        assert len(edges) == forced_blocks + 1 and max(edges[-2], 8192) < at
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == f"{p} is not UTF-8: byte {at} is 0x{byte[0]:02x} ({reason})"

    @pytest.mark.parametrize("row", [3, 1100])
    def test_string_table(self, tmp_path, row):
        p = tmp_path / "meta.csv"
        write_csv(p, ["track_id", "artist_id"], [[f"t{i:04d}", "a"] for i in range(1200)])
        at = _with_byte(p, row, b"\xe9")
        for read in (lambda: read_columns(p, ["artist_id"]), lambda: read_csv(p)):
            with pytest.raises(PopgateError) as err:
                read()
            assert str(err.value) == (
                f"{p} is not UTF-8: byte {at} is 0xe9 (invalid continuation byte)")

    @pytest.mark.parametrize("forced_blocks", [1, 2], indirect=True)
    def test_precedes_a_ragged_row_before_it(self, tmp_path, forced_blocks):
        # one block decodes the bad byte's 8 kB chunk after it parses the
        # ragged row; the second block decodes both in its first chunk
        p = tmp_path / "m.csv"
        write_csv(p, ["track_id", "a"], [[f"t{i:04d}", "1.5"] for i in range(3000)])
        at = _with_byte(p, 2460, b"\xe9")
        p.write_bytes(p.read_bytes().replace(b"t2400,1.5\n", b"t2400\n"))
        with pytest.raises(PopgateError) as err:
            read_matrix_csv(p)
        assert str(err.value) == (
            f"{p} is not UTF-8: byte {at - 4} is 0xe9 (invalid continuation byte)")

    def test_a_sequence_cut_at_the_end_of_the_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"track_id,a\nt1,1.5\nt2\xc3")
        with pytest.raises(PopgateError, match=r"byte 20 is 0xc3 \(unexpected end of data\)$"):
            read_matrix_csv(p)
