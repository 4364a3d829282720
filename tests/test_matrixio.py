import os
import tracemalloc

import numpy as np
import pytest

from crossbar_lowrank.matrixio import (
    MatrixFormatError,
    dumps_matrix,
    loads_matrix,
    read_matrix,
    write_matrix,
)


def test_round_trip_random_values():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
    B = loads_matrix(dumps_matrix(A))
    assert B.shape == A.shape
    assert np.array_equal(A, B)


def test_round_trip_hard_values():
    A = np.array([[1.0 / 3.0, 0.05, np.pi], [1e-300, 1e300, -7.25]])
    assert np.array_equal(loads_matrix(dumps_matrix(A)), A)


def test_golden_format():
    text = dumps_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert text == "2 2\n1 2\n3 4\n"


def test_file_round_trip(tmp_path):
    path = tmp_path / "A.txt"
    A = np.random.default_rng(5).standard_normal((4, 6))
    write_matrix(A, path)
    assert np.array_equal(read_matrix(path), A)


def test_empty_input():
    with pytest.raises(MatrixFormatError, match="line 1"):
        loads_matrix("")


def test_bad_header_token_count():
    with pytest.raises(MatrixFormatError, match="line 1"):
        loads_matrix("3\n1 2 3\n")


def test_bad_header_non_integer():
    with pytest.raises(MatrixFormatError, match="line 1"):
        loads_matrix("2 x\n1 2\n3 4\n")


def test_nonpositive_dims():
    with pytest.raises(MatrixFormatError, match="positive"):
        loads_matrix("0 2\n")


def test_wrong_column_count_names_line():
    with pytest.raises(MatrixFormatError, match="line 3") as err:
        loads_matrix("3 2\n1 2\n1 2 3\n5 6\n")
    assert err.value.line_no == 3


def test_bad_number_names_line():
    with pytest.raises(MatrixFormatError, match="line 2"):
        loads_matrix("1 2\nfoo 3\n")


def test_digit_group_underscores_rejected():
    with pytest.raises(MatrixFormatError, match="line 2: invalid number '1_0'"):
        loads_matrix("1 1\n1_0\n")
    with pytest.raises(MatrixFormatError, match="line 1"):
        loads_matrix("1_0 1\n" + "1\n" * 10)


def test_missing_rows():
    with pytest.raises(MatrixFormatError, match="expected 3 data rows"):
        loads_matrix("3 1\n1\n2\n")


def test_trailing_garbage_rejected():
    with pytest.raises(MatrixFormatError, match="line 4"):
        loads_matrix("2 1\n1\n2\nextra\n")


def test_non_finite_rejected():
    with pytest.raises(MatrixFormatError, match="non-finite"):
        loads_matrix("1 2\ninf 1\n")


def test_trailing_blank_lines_tolerated():
    A = loads_matrix("2 2\n1 2\n3 4\n\n")
    assert np.array_equal(A, [[1.0, 2.0], [3.0, 4.0]])


def test_oversized_header_is_a_line_error_not_an_allocation():
    # 1 x 1e11 would need 745 GiB; the short row is reported instead
    with pytest.raises(MatrixFormatError,
                       match="line 2: expected 100000000000 values, found 1"):
        loads_matrix("1 100000000000\n1\n")
    # a full-width first row, then short rows: 2e11 values claimed from
    # a 4 MB text
    n, m = 100_000, 2_000_000
    text = f"{m} {n}\n" + " ".join(["1"] * n) + "\n" + "1\n" * (m - 1)
    with pytest.raises(MatrixFormatError, match="line 3: expected 100000 values, found 1"):
        loads_matrix(text)


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
    def test_edge_values_write_the_reference_bytes(self):
        vals = _edge_values()
        A = vals.reshape(3, -1)
        assert dumps_matrix(A) == _reference_dumps(A)
        B = loads_matrix(dumps_matrix(A))
        assert np.array_equal(B, A)
        assert np.array_equal(np.signbit(B), np.signbit(A))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7)])
    def test_shapes(self, shape):
        A = np.random.default_rng(3).standard_normal(shape) * 1e5
        assert dumps_matrix(A) == _reference_dumps(A)
        assert np.array_equal(loads_matrix(dumps_matrix(A)), A)

    def test_transposed_array(self):
        A = _edge_values()[:40].reshape(5, 8).T
        assert not A.flags.c_contiguous
        assert dumps_matrix(A) == _reference_dumps(A)
        assert np.array_equal(loads_matrix(dumps_matrix(A)), A)

    def test_integer_array(self):
        A = np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * 10 ** 15
        text = dumps_matrix(A)
        assert text == _reference_dumps(A)
        assert text.splitlines()[1] == "-6000000000000000 -5000000000000000 " \
                                       "-4000000000000000 -3000000000000000"
        assert np.array_equal(loads_matrix(text), A)

    def test_mutated_files_get_the_reference_result(self):
        # the parse returns the reference's values or raises its message
        outcomes = set()
        for text in _mutated_texts():
            try:
                want = _reference_loads(text)
            except MatrixFormatError as exc:
                with pytest.raises(MatrixFormatError) as got:
                    loads_matrix(text)
                assert str(got.value) == str(exc)
                assert got.value.line_no == exc.line_no
                outcomes.add(str(exc).split(": ", 1)[1].split(" ")[0])
            else:
                assert np.array_equal(loads_matrix(text), want)
                outcomes.add("ok")
        assert {"ok", "expected", "invalid", "non-finite", "unexpected"} <= outcomes


def _outcome(parse, source):
    try:
        return parse(source)
    except MatrixFormatError as exc:
        return str(exc), exc.line_no


class TestFileMatchesText:
    def test_mutated_files_read_as_their_text(self, tmp_path):
        # the file is written as is (no newline translation), so every
        # kind of line break reaches read_matrix
        path = tmp_path / "A.txt"
        outcomes = set()
        for text in _mutated_texts():
            with open(path, "w", newline="") as fh:
                fh.write(text)
            want, got = _outcome(loads_matrix, text), _outcome(read_matrix, path)
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
        with pytest.raises(UnicodeDecodeError):
            read_matrix(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_without_a_size(self):
        # a pipe reports size 0, so the rows outgrow the first allocation
        A = np.random.default_rng(8).standard_normal((9, 3))
        r, w = os.pipe()
        try:
            os.write(w, dumps_matrix(A).encode())
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
    def test_several_bad_tokens(self):
        with pytest.raises(MatrixFormatError, match=r"^line 3: invalid number 'x1'$"):
            loads_matrix("2 4\n1 2 3 4\nx1 y2 3 z4\n")

    def test_bad_token_after_valid_ones(self):
        with pytest.raises(MatrixFormatError, match=r"^line 2: invalid number '0x10'$"):
            loads_matrix("1 4\n1.5 -2 3e4 0x10\n")

    def test_nan_in_row_three(self):
        with pytest.raises(MatrixFormatError, match=r"^line 4: non-finite value$"):
            loads_matrix("4 2\n1 2\n3 4\n5 nan\n7 8\n")

    def test_underscore_message_wins(self):
        # "foo" comes first, but a line holding "_" is reported by its
        # first underscored token
        with pytest.raises(MatrixFormatError, match=r"^line 2: invalid number '1_0'$"):
            loads_matrix("1 3\nfoo 1_0 2\n")
