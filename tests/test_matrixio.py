import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from crossbar_lowrank import lanes, matrixio
from crossbar_lowrank.cli import main
from crossbar_lowrank.matrixio import (
    MatrixFormatError,
    matrix_lines,
    read_matrix,
    write_matrix,
)


@pytest.fixture
def read_text(tmp_path):
    """read_matrix of a file that holds `text` as it is: no newline
    translation, so every kind of line break reaches the parse."""
    path = tmp_path / "text.txt"

    def read(text):
        path.write_text(text, encoding="utf-8", newline="")
        return read_matrix(path)
    return read


@pytest.fixture
def round_trip(tmp_path):
    """A written by write_matrix and read back by read_matrix."""
    path = tmp_path / "round_trip.txt"

    def round_trip(A):
        write_matrix(A, path)
        return read_matrix(path)
    return round_trip


def test_round_trip_random_values(round_trip):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
    B = round_trip(A)
    assert B.shape == A.shape
    assert np.array_equal(A, B)


def test_round_trip_hard_values(round_trip):
    A = np.array([[1.0 / 3.0, 0.05, np.pi], [1e-300, 1e300, -7.25]])
    assert np.array_equal(round_trip(A), A)


def test_golden_format():
    text = "".join(matrix_lines(np.array([[1.0, 2.0], [3.0, 4.0]])))
    assert text == "2 2\n1 2\n3 4\n"


def test_file_round_trip(tmp_path):
    path = tmp_path / "A.txt"
    A = np.random.default_rng(5).standard_normal((4, 6))
    write_matrix(A, path)
    assert np.array_equal(read_matrix(path), A)


def test_empty_input(read_text):
    with pytest.raises(MatrixFormatError, match="line 1"):
        read_text("")


def test_bad_header_token_count(read_text):
    with pytest.raises(MatrixFormatError, match="line 1"):
        read_text("3\n1 2 3\n")


def test_bad_header_non_integer(read_text):
    with pytest.raises(MatrixFormatError, match="line 1"):
        read_text("2 x\n1 2\n3 4\n")


def test_nonpositive_dims(read_text):
    with pytest.raises(MatrixFormatError, match="positive"):
        read_text("0 2\n")


def test_wrong_column_count_names_line(read_text):
    with pytest.raises(MatrixFormatError, match="line 3") as err:
        read_text("3 2\n1 2\n1 2 3\n5 6\n")
    assert err.value.line_no == 3


def test_bad_number_names_line(read_text):
    with pytest.raises(MatrixFormatError, match="line 2"):
        read_text("1 2\nfoo 3\n")


def test_digit_group_underscores_rejected(read_text):
    with pytest.raises(MatrixFormatError, match="line 2: invalid number '1_0'"):
        read_text("1 1\n1_0\n")
    with pytest.raises(MatrixFormatError, match="line 1"):
        read_text("1_0 1\n" + "1\n" * 10)


def test_missing_rows(read_text):
    with pytest.raises(MatrixFormatError, match="expected 3 data rows"):
        read_text("3 1\n1\n2\n")


def test_trailing_garbage_rejected(read_text):
    with pytest.raises(MatrixFormatError, match="line 4"):
        read_text("2 1\n1\n2\nextra\n")


def test_non_finite_rejected(read_text):
    with pytest.raises(MatrixFormatError, match="non-finite"):
        read_text("1 2\ninf 1\n")


def test_trailing_blank_lines_tolerated(read_text):
    A = read_text("2 2\n1 2\n3 4\n\n")
    assert np.array_equal(A, [[1.0, 2.0], [3.0, 4.0]])


def test_oversized_header_is_a_line_error_not_an_allocation(read_text):
    # 1 x 1e11 would need 745 GiB; the short row is reported instead
    with pytest.raises(MatrixFormatError,
                       match="line 2: expected 100000000000 values, found 1"):
        read_text("1 100000000000\n1\n")
    # a full-width first row, then short rows: 2e11 values claimed from
    # a 4 MB text
    n, m = 100_000, 2_000_000
    text = f"{m} {n}\n" + " ".join(["1"] * n) + "\n" + "1\n" * (m - 1)
    with pytest.raises(MatrixFormatError, match="line 3: expected 100000 values, found 1"):
        read_text(text)


# The per-value writer and parser that the row-at-a-time ones replaced,
# kept as the reference they must match byte for byte and message for
# message.

def _reference_dumps(A):
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    out = [f"{m} {n}"]
    for row in A:
        out.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(out) + "\n"


def _reference_loads(text):
    lines = text.splitlines()
    header = lines[0].split()
    m, n = int(header[0]), int(header[1])
    if len(lines) < 1 + m:
        raise MatrixFormatError(len(lines) + 1, f"expected {m} data rows, found {len(lines) - 1}")
    A = np.empty((m, n))
    for i in range(m):
        line_no = i + 2
        fields = lines[1 + i].split()
        if len(fields) != n:
            raise MatrixFormatError(line_no, f"expected {n} values, found {len(fields)}")
        if "_" in lines[1 + i]:
            bad = next(tok for tok in fields if "_" in tok)
            raise MatrixFormatError(line_no, f"invalid number {bad!r}")
        for j, tok in enumerate(fields):
            try:
                A[i, j] = float(tok)
            except ValueError:
                raise MatrixFormatError(line_no, f"invalid number {tok!r}") from None
    for extra in range(1 + m, len(lines)):
        if lines[extra].strip():
            raise MatrixFormatError(extra + 1, "unexpected content after matrix rows")
    if not np.all(np.isfinite(A)):
        bad = np.argwhere(~np.isfinite(A))[0]
        raise MatrixFormatError(int(bad[0]) + 2, "non-finite value")
    return A


def _edge_values():
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(29)
    scaled = rng.standard_normal(25) * 10.0 ** rng.uniform(-300, 300, 25)
    return np.concatenate([
        [-0.0, 0.0, tiny, -tiny, tiny * 3, 2.2250738585072009e-308, 1e-310,
         1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e16 + 2,
         0.1, 1.0 / 3.0, 1.0, -7.0, 123456789.0, 2.0 ** 53],
        scaled,
    ])


def _mutated_texts(count=3000):
    """Valid files with one character or token inserted, deleted or
    replaced, line breaks of every kind str.splitlines() knows among them."""
    rng = np.random.default_rng(41)
    alphabet = list("0123456789 .-e_x\n\t") + ["nan", "inf", "\r\n"] + list(
        "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    for _ in range(count):
        m, n = (int(v) for v in rng.integers(1, 5, 2))
        text = _reference_dumps(rng.standard_normal((m, n)).round(int(rng.integers(0, 4))))
        pos = int(rng.integers(len(f"{m} {n}\n"), len(text) + 1))
        cut = int(rng.integers(0, 2))
        yield text[:pos] + str(rng.choice(alphabet)) * int(rng.integers(0, 2)) + text[pos + cut:]


class TestRowWiseMatchesReference:
    @staticmethod
    def _written(A, path):
        write_matrix(A, path)
        assert "".join(matrix_lines(A)).encode() == path.read_bytes()
        return path.read_text()

    def test_edge_values_write_the_reference_bytes(self, tmp_path):
        vals = _edge_values()
        A = vals.reshape(3, -1)
        path = tmp_path / "A.txt"
        assert self._written(A, path) == _reference_dumps(A)
        B = read_matrix(path)
        assert np.array_equal(B, A)
        assert np.array_equal(np.signbit(B), np.signbit(A))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7)])
    def test_shapes(self, tmp_path, shape):
        A = np.random.default_rng(3).standard_normal(shape) * 1e5
        path = tmp_path / "A.txt"
        assert self._written(A, path) == _reference_dumps(A)
        assert np.array_equal(read_matrix(path), A)

    def test_transposed_array(self, tmp_path):
        A = _edge_values()[:40].reshape(5, 8).T
        assert not A.flags.c_contiguous
        path = tmp_path / "A.txt"
        assert self._written(A, path) == _reference_dumps(A)
        assert np.array_equal(read_matrix(path), A)

    def test_integer_array(self, tmp_path):
        A = np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * 10 ** 15
        path = tmp_path / "A.txt"
        text = self._written(A, path)
        assert text == _reference_dumps(A)
        assert text.splitlines()[1] == "-6000000000000000 -5000000000000000 " \
                                       "-4000000000000000 -3000000000000000"
        assert np.array_equal(read_matrix(path), A)


def _outcome(parse, source):
    try:
        return parse(source)
    except MatrixFormatError as exc:
        return str(exc), exc.line_no


class TestFileMatchesReference:
    def test_mutated_files_get_the_reference_result(self, read_text):
        # the read returns the reference's values or raises its message
        # at its line
        outcomes = set()
        for text in _mutated_texts():
            want, got = _outcome(_reference_loads, text), _outcome(read_text, text)
            if isinstance(want, tuple):
                assert got == want
                outcomes.add(want[0].split(": ", 1)[1].split(" ")[0])
            else:
                assert np.array_equal(got, want)
                outcomes.add("ok")
        assert {"ok", "expected", "invalid", "non-finite", "unexpected"} <= outcomes

    def test_short_file_count_beats_an_earlier_bad_row(self, tmp_path):
        path = tmp_path / "A.txt"
        path.write_text("4 2\n1 x\n3 4\n")
        with pytest.raises(MatrixFormatError, match=r"^line 4: expected 4 data rows, found 2$"):
            read_matrix(path)

    @pytest.mark.parametrize("pad", [0, 9000])
    def test_undecodable_bytes_beat_a_bad_row_wherever_they_fall(self, tmp_path, pad):
        # text files decode in 8 KiB chunks; bytes past the first chunk
        # must still fail the read, as they do when the file is read whole
        path = tmp_path / "A.txt"
        path.write_bytes(b"2 2\n1 x\n3 4\n" + b" " * pad + b"\n\xff\n")
        with pytest.raises(MatrixFormatError, match=r"^line 5: byte 0xff is not UTF-8$"):
            read_matrix(path)

    @pytest.mark.parametrize("data,line_no,byte", [
        (b"2 2\n1 2\n3 4\xff\n", 3, 0xff),                 # the last row
        (b"2 2\xff\n1 2\n3 4\n", 1, 0xff),                 # the header
        (b"2\n1 2\n\xfe", 3, 0xfe),                        # beats a bad header
        (b"1 2\n1 2\n\ntail\n\x80\n", 5, 0x80),            # beats content after rows
        (b"1 2\r\n1 2\r\n\r\xc3(\r\n", 4, 0xc3),           # CRLF and a lone CR
        (b"1 2\n1 \xc3\xa9\xe2\x80\xa8\xed\xa0\x80\n", 3, 0xed),  # after U+2028
    ])
    def test_first_undecodable_byte_names_its_line(self, tmp_path, data, line_no, byte):
        # lines are counted as str.splitlines() counts them, as every
        # other error of a file counts them
        path = tmp_path / "A.txt"
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError) as info:
            read_matrix(path)
        assert str(info.value) == f"line {line_no}: byte {byte:#04x} is not UTF-8"
        assert info.value.line_no == line_no

    def test_utf8_that_is_not_ascii_still_reads(self, tmp_path):
        # a non-ASCII character is read, not refused, and fails only as a
        # token, as it does in text
        path = tmp_path / "A.txt"
        path.write_bytes("1 2\n1 \u00e9\n".encode())
        with pytest.raises(MatrixFormatError, match=r"^line 2: invalid number '\u00e9'$"):
            read_matrix(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_without_a_size(self):
        # a pipe reports size 0, so the rows outgrow the first allocation
        A = np.random.default_rng(8).standard_normal((9, 3))
        r, w = os.pipe()
        try:
            os.write(w, _reference_dumps(A).encode())
            os.close(w)
            assert np.array_equal(read_matrix(f"/dev/fd/{r}"), A)
        finally:
            os.close(r)

    def test_streams_hold_nothing_of_the_text_size(self, tmp_path):
        # a 400x400 file is about 3 MB of text against A's 1.28 MB: writing
        # holds a row at a time, reading holds the result and a row
        A = np.random.default_rng(17).standard_normal((400, 400))
        path = tmp_path / "A.txt"
        tracemalloc.start()
        try:
            write_matrix(A, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            B = read_matrix(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(B, A)
        assert path.stat().st_size > 2 * A.nbytes
        assert write_peak < 0.5 * A.nbytes
        assert read_peak < 1.5 * A.nbytes


class TestParseErrorNamesFirstBadToken:
    def test_several_bad_tokens(self, read_text):
        with pytest.raises(MatrixFormatError, match=r"^line 3: invalid number 'x1'$"):
            read_text("2 4\n1 2 3 4\nx1 y2 3 z4\n")

    def test_bad_token_after_valid_ones(self, read_text):
        with pytest.raises(MatrixFormatError, match=r"^line 2: invalid number '0x10'$"):
            read_text("1 4\n1.5 -2 3e4 0x10\n")

    def test_nan_in_row_three(self, read_text):
        with pytest.raises(MatrixFormatError, match=r"^line 4: non-finite value$"):
            read_text("4 2\n1 2\n3 4\n5 nan\n7 8\n")

    def test_underscore_message_wins(self, read_text):
        # "foo" comes first, but a line holding "_" is reported by its
        # first underscored token
        with pytest.raises(MatrixFormatError, match=r"^line 2: invalid number '1_0'$"):
            read_text("1 3\nfoo 1_0 2\n")


@pytest.fixture
def forks(monkeypatch):
    """A list that grows by one item at each os.fork() call."""
    calls, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    return calls


@pytest.fixture
def io_lanes(monkeypatch):
    """Set how many cores the lanes see and the cells each lane needs."""
    def set_lanes(cores, min_cells=1):
        monkeypatch.setattr(lanes, "_usable_cores", lambda: cores)
        monkeypatch.setattr(matrixio, "MIN_LANE_CELLS", min_cells)
    return set_lanes


@pytest.fixture
def in_process(monkeypatch):
    """Lanes that run one after the other in this process, as many as the
    list's one item asks for (2 to begin with), so no case forks."""
    count = [2]
    monkeypatch.setattr(lanes, "available", lambda wanted, jobs: min(count[0], jobs))
    monkeypatch.setattr(lanes, "in_lanes", lambda jobs, run, *_: [run(job) for job in jobs])
    return count


class TestLanesMatchSerial:
    """Above MIN_LANE_CELLS cells, a matrix is written, and read from a
    regular file, in up to one forked lane per usable core, with the
    serial bytes, values and errors."""

    def test_mutated_files_in_two_and_three_lanes_run_in_process(self, in_process):
        # a file the lanes refuse is read serially
        text_fd, out_fd = os.memfd_create("text"), os.memfd_create("out")
        accepted = 0
        try:
            for text in _mutated_texts():
                data = text.encode()
                os.ftruncate(text_fd, 0)
                os.pwrite(text_fd, data, 0)
                in_process[0] = 1
                want = _outcome(read_matrix, f"/dev/fd/{text_fd}")
                for in_process[0] in (2, 3):
                    got = matrixio._read_in_lanes(text_fd, len(data))
                    if got is not None:
                        accepted += 1
                        assert not isinstance(want, tuple) and np.array_equal(got, want)
                    if not isinstance(want, tuple) and len(want) >= in_process[0]:
                        write_matrix(want, f"/dev/fd/{out_fd}")
                        written = os.pread(out_fd, os.fstat(out_fd).st_size, 0)
                        assert written == _reference_dumps(want).encode()
        finally:
            os.close(text_fd)
            os.close(out_fd)
        # most files of two or more rows that parse go through the lanes
        assert accepted > 1000

    @pytest.mark.parametrize("data", [
        b"2 2\x1c\n1 2\n3 4\n",  # str.splitlines() ends the header before "\n"
        b"2 2\r\n1 2\r\n3 4\r\n",
        b"2 2\n1 2\n3 4",  # no line end after the last row
        b"2 2\n1 2\n3 4\n \n",
        b"2 2\n1 2\n3 4\n5 6\n",
        b"2 2\n1 2\n3\xa04\n",  # not UTF-8; latin-1 would read a space
        b"2\xa02\n1 2\n3 4\n",  # the same in the header
        "2 2\n1 2\n3\u20034\n".encode(),  # a space that is not ASCII
        b"2 100000000000\n1\n1\n",  # 1.6 TB claimed: no allocation is tried
    ])
    def test_what_the_lanes_leave_to_the_serial_parse(self, in_process, tmp_path, data):
        path = tmp_path / "A.txt"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            assert matrixio._read_in_lanes(fh.fileno(), len(data)) is None
        got = _outcome(read_matrix, path)
        in_process[0] = 1
        want = _outcome(read_matrix, path)
        assert got == want if isinstance(want, tuple) else np.array_equal(got, want)

    def test_bytes_at_one_two_and_three_lanes(self, tmp_path, io_lanes, forks):
        A = np.random.default_rng(23).standard_normal((400, 400))
        files = []
        for cores in (1, 2, 3):
            io_lanes(cores, min_cells=2 ** 10)
            files.append(tmp_path / f"A{cores}.txt")
            write_matrix(A, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes() == files[2].read_bytes()
        assert np.array_equal(read_matrix(files[2]), A)
        assert len(forks) == 1 + 2 + 2

    def test_edge_values_round_trip(self, tmp_path, io_lanes, forks):
        io_lanes(3)
        A = _edge_values().reshape(6, 7)
        path = tmp_path / "A.txt"
        write_matrix(A, path)
        B = read_matrix(path)
        assert len(forks) == 4
        assert path.read_bytes() == _reference_dumps(A).encode()
        assert np.array_equal(B, A) and np.array_equal(np.signbit(B), np.signbit(A))

    def test_fewer_rows_than_cores(self, tmp_path, io_lanes, forks):
        io_lanes(3)
        A = _edge_values()[:10].reshape(2, 5)
        path = tmp_path / "A.txt"
        write_matrix(A, path)
        assert np.array_equal(read_matrix(path), A)
        assert len(forks) == 2  # one row a lane
        assert path.read_bytes() == _reference_dumps(A).encode()

    @pytest.mark.parametrize("lanes_on", [True, False])
    def test_streams_hold_nothing_of_the_text_size(self, monkeypatch, tmp_path, io_lanes,
                                                   forks, lanes_on):
        # the children's memory is not the caller's, and tracemalloc sees
        # the caller only
        if lanes_on:
            io_lanes(2, min_cells=matrixio.MIN_LANE_CELLS)
        else:
            monkeypatch.setattr(lanes, "available", lambda wanted, jobs: 1)
        TestFileMatchesReference().test_streams_hold_nothing_of_the_text_size(tmp_path)
        assert len(forks) == (2 if lanes_on else 0)

    def test_a_read_lane_that_dies_gives_the_serial_result(self, monkeypatch, tmp_path,
                                                           io_lanes, forks):
        io_lanes(3)
        parent, real = os.getpid(), matrixio._parse_rows
        monkeypatch.setattr(matrixio, "_parse_rows", lambda *args: real(*args)
                            if os.getpid() == parent else os._exit(9))
        path = tmp_path / "A.txt"
        A = np.arange(12.0).reshape(6, 2)
        for text in (_reference_dumps(A), _reference_dumps(A).replace("\n10 ", "\n1x ")):
            path.write_text(text)
            want, got = _outcome(_reference_loads, text), _outcome(read_matrix, path)
            assert got == want if isinstance(want, tuple) else np.array_equal(got, want)
        assert len(forks) == 4

    def test_a_write_lane_that_dies_is_one_error_line(self, monkeypatch, tmp_path, io_lanes,
                                                      capsys):
        io_lanes(2)
        parent, real = os.getpid(), matrixio._rows
        monkeypatch.setattr(matrixio, "_rows", lambda A: real(A)
                            if os.getpid() == parent else os._exit(9))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m=12\nn=12\nr=3\nlambda=3\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "A.txt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: matrix write lane 1 \(pid \d+\) ended without a result, "
                            r"exit code 9\n", captured.err)

    @pytest.mark.parametrize("step", ["write", "read"])
    def test_an_interrupted_caller_kills_and_reaps_its_lanes(self, monkeypatch, tmp_path,
                                                             io_lanes, step):
        # the children would sleep for half a minute
        io_lanes(3)
        A = np.arange(12.0).reshape(6, 2)
        path = tmp_path / "A.txt"
        write_matrix(A, path)
        parent = os.getpid()

        def lane(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)

        monkeypatch.setattr(matrixio, "_rows", lane)
        monkeypatch.setattr(matrixio, "_parse_rows", lane)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            write_matrix(A, path) if step == "write" else read_matrix(path)
        assert time.perf_counter() - t0 < 15

    def test_gen_writes_the_same_bytes_to_out_and_to_stdout(self, tmp_path, io_lanes, forks,
                                                            capsys):
        io_lanes(3)
        cfg, mat = tmp_path / "c.cfg", tmp_path / "A.txt"
        cfg.write_text("m=30\nn=20\nr=4\nlambda=3\n")
        assert main(["gen", "--config", str(cfg), "--out", str(mat)]) == 0
        assert main(["gen", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.encode() == mat.read_bytes()
        assert len(forks) == 2  # the file in three lanes, stdout in one

    @pytest.mark.parametrize("command", ["gen", "validate"])
    def test_cli_output_is_the_same_at_one_two_and_three_lanes(self, tmp_path, io_lanes,
                                                               capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m=30\nn=20\nr=4\nlambda=3\n")
        mat = tmp_path / "A.txt"
        outputs = []
        for cores in (1, 2, 3):
            io_lanes(cores)
            argv = ["gen", "--config", str(cfg), "--out", str(mat)]
            if command == "validate":
                main(argv)
                argv = ["validate", str(mat), "--config", str(cfg)]
            code = main(argv)
            outputs.append((code, capsys.readouterr(), mat.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
