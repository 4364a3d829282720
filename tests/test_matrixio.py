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
