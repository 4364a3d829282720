"""Dense-matrix text serialization.

Format: a header line "m n" (two base-10 integers), then m lines each
holding n space-separated decimal reals. Values are written with 17
significant digits so a float64 round-trips value-exact.

Files are written and parsed one row at a time: a row is formatted with
one "%.17g" template and parsed with one float() per token, straight
into the result array, so no Python object is built for the whole
matrix. A parse error names the 1-based line and, for a value that is
not a number, the first such token of that line.
"""
from __future__ import annotations

import os

import numpy as np

from .core import as_matrix


class MatrixFormatError(ValueError):
    """Malformed matrix text; message names the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def dumps_matrix(A) -> str:
    A = as_matrix(A)
    m, n = A.shape
    # "%.17g" on a Python float gives the bytes f"{x:.17g}" gives on a
    # numpy float64
    fmt = " ".join(["%.17g"] * n)
    out = [f"{m} {n}"]
    for row in A:
        out.append(fmt % tuple(row.tolist()))
    return "\n".join(out) + "\n"


def write_matrix(A, path: str | os.PathLike) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_matrix(A))


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def loads_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError(1, "empty input, expected 'm n' header")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(1, f"expected 'm n' header with two integers, got {lines[0]!r}")
    # int() and float() accept digit-group underscores ("1_0"); the format
    # does not
    try:
        if "_" in lines[0]:
            raise ValueError(lines[0])
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(1, f"non-integer dimension in header {lines[0]!r}") from None
    if m < 1 or n < 1:
        raise MatrixFormatError(1, f"dimensions must be positive, got {m} {n}")
    if len(lines) < 1 + m:
        raise MatrixFormatError(len(lines) + 1, f"expected {m} data rows, found {len(lines) - 1}")
    for i in range(m):
        line_no = i + 2
        fields = lines[1 + i].split()
        if len(fields) != n:
            raise MatrixFormatError(line_no, f"expected {n} values, found {len(fields)}")
        if i == 0:
            # a row of n values takes at least 2n characters with its line
            # end, so no more rows than this can parse before one fails: a
            # header that overstates m or n gets its line error, not a
            # failed allocation
            A = np.empty((min(m, len(text) // (2 * n)), n))
        if "_" in lines[1 + i]:
            bad = next(tok for tok in fields if "_" in tok)
            raise MatrixFormatError(line_no, f"invalid number {bad!r}")
        try:
            A[i] = list(map(float, fields))
        except ValueError:
            bad = next(tok for tok in fields if not _is_number(tok))
            raise MatrixFormatError(line_no, f"invalid number {bad!r}") from None
    for extra in range(1 + m, len(lines)):
        if lines[extra].strip():
            raise MatrixFormatError(extra + 1, "unexpected content after matrix rows")
    if not np.all(np.isfinite(A)):
        bad = np.argwhere(~np.isfinite(A))[0]
        raise MatrixFormatError(int(bad[0]) + 2, "non-finite value")
    return A


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r") as fh:
        return loads_matrix(fh.read())
