"""Dense-matrix text serialization.

Format: a header line "m n" (two base-10 integers), then m lines each
holding n space-separated decimal reals. Values are written with 17
significant digits so a float64 round-trips value-exact.

Files are streamed a line at a time: a row is formatted with one "%.17g"
template and written as soon as it is made, and read back with one
float() per token, straight into the result array, so nothing of the
text's size is held. One line parser serves text and files, so both give
the same values and the same errors. A parse error names the 1-based
line and, for a value that is not a number, the first such token of that
line. A file is read as UTF-8, and its first byte that does not decode is
reported before any other error, by its line.
"""
from __future__ import annotations

import itertools
import os
import re
from typing import Iterable, Iterator

import numpy as np

from .core import as_matrix


# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class MatrixFormatError(ValueError):
    """Malformed matrix text; message names the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def matrix_lines(A) -> Iterator[str]:
    """The text of A as lines with their line ends: the header, then one
    line per row, each formatted only when it is asked for. A is checked
    before this returns."""
    A = as_matrix(A)
    m, n = A.shape
    # "%.17g" on a Python float gives the bytes f"{x:.17g}" gives on a
    # numpy float64
    fmt = " ".join(["%.17g"] * n) + "\n"
    return itertools.chain([f"{m} {n}\n"], (fmt % tuple(row.tolist()) for row in A))


def dumps_matrix(A) -> str:
    return "".join(matrix_lines(A))


def write_matrix(A, path: str | os.PathLike) -> None:
    lines = matrix_lines(A)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(lines)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _row_values(line: str, n: int, line_no: int) -> np.ndarray:
    fields = line.split()
    if len(fields) != n:
        raise MatrixFormatError(line_no, f"expected {n} values, found {len(fields)}")
    # int() and float() accept digit-group underscores ("1_0"); the format
    # does not
    if "_" in line:
        bad = next(tok for tok in fields if "_" in tok)
        raise MatrixFormatError(line_no, f"invalid number {bad!r}")
    try:
        return np.fromiter(map(float, fields), float, n)
    except ValueError:
        bad = next(tok for tok in fields if not _is_number(tok))
        raise MatrixFormatError(line_no, f"invalid number {bad!r}") from None


def _parse(lines: Iterable[str], size: int) -> np.ndarray:
    """The matrix held by `lines`, the text's lines as str.splitlines()
    gives them. `size` is the text's length or more; a row of n values
    takes at least 2n characters with its line end, so no more rows than
    size // 2n can parse before one fails, and a header that overstates
    m or n gets its line error, not a failed allocation.

    Errors come in this order: the header; too few rows; the first bad
    row; content after the rows; the first row holding a non-finite value.
    """
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        raise MatrixFormatError(1, "empty input, expected 'm n' header")
    header = first.split()
    if len(header) != 2:
        raise MatrixFormatError(1, f"expected 'm n' header with two integers, got {first!r}")
    try:
        if "_" in first:
            raise ValueError(first)
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(1, f"non-integer dimension in header {first!r}") from None
    if m < 1 or n < 1:
        raise MatrixFormatError(1, f"dimensions must be positive, got {m} {n}")
    A = np.empty((min(m, size // (2 * n)), n))
    found, error = 0, None
    for line in itertools.islice(lines, m):
        # after a bad row, lines are only counted: a short file's row
        # count is reported first
        if error is None:
            try:
                values = _row_values(line, n, found + 2)
            except MatrixFormatError as exc:
                error = exc
            else:
                if found == len(A):
                    # only a size that undercounts the text, such as a
                    # pipe's 0, gets here: grow geometrically up to m rows
                    A = np.concatenate([A, np.empty((min(found + 1, m - found), n))])
                A[found] = values
        found += 1
    if found < m:
        raise MatrixFormatError(found + 2, f"expected {m} data rows, found {found}")
    if error is not None:
        raise error
    for line_no, line in enumerate(lines, start=m + 2):
        if line.strip():
            raise MatrixFormatError(line_no, "unexpected content after matrix rows")
    if not np.all(np.isfinite(A)):
        bad = np.argwhere(~np.isfinite(A))[0]
        raise MatrixFormatError(int(bad[0]) + 2, "non-finite value")
    return A


def loads_matrix(text: str) -> np.ndarray:
    return _parse(text.splitlines(), len(text))


def _file_lines(fh) -> Iterator[str]:
    """The lines of a text file opened as UTF-8 with
    errors="surrogateescape", split again as str.splitlines() splits them,
    so they are numbered as loads_matrix numbers the text's. A byte that
    does not decode reads as a lone surrogate, which UTF-8 text never
    holds, and is a MatrixFormatError naming its line; an ASCII line, the
    usual kind, is known to hold none without a scan."""
    line_no = 0
    for line in fh:
        pieces = line.splitlines()
        if not line.isascii():
            for offset, piece in enumerate(pieces, start=1):
                bad = _ESCAPED_BYTE.search(piece)
                if bad:
                    raise MatrixFormatError(
                        line_no + offset,
                        f"byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8")
        line_no += len(pieces)
        yield from pieces


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = _file_lines(fh)
        try:
            return _parse(lines, os.fstat(fh.fileno()).st_size)
        except MatrixFormatError:
            # a byte that does not decode is reported first, wherever it
            # falls; reading on raises it
            for _ in lines:
                pass
            raise
