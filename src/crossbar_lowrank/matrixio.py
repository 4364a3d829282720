"""Dense-matrix text serialization.

Format: a header line "m n" (two base-10 integers), then m lines each
holding n space-separated decimal reals. Values are written with 17
significant digits so a float64 round-trips value-exact.

Each lane streams its rows a line at a time: a row is formatted with one
"%.17g" template and written as soon as it is made, and read back with
one float() per token, straight into the result array, so no process
holds anything of the text's size. One line parser serves every read of a
file, serial or in lanes, so both give the same values and the same errors.
A parse error names the 1-based line and, for a value that is not a number,
the first such token of that line. A file is read as UTF-8, and its first
byte that does not decode is reported before any other error, by its line.

From 2 * MIN_LANE_CELLS cells, a matrix is written, and read from a
regular file, in forked lanes of contiguous rows (lanes.py), at most one
per usable core and per MIN_LANE_CELLS cells. On any doubt the file is
read again serially, by the parse that alone raises every error.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import re
import stat
from typing import Iterable, Iterator

import numpy as np

from .core import as_matrix


# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# the ASCII line ends, other than "\n", that str.splitlines() splits on
_OTHER_LINE_ENDS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
# on a 2-core x86-64 host a fork costs about 3.5 ms and formatting 2**16
# cells about 30 ms, so a lane of fewer cells spends over a tenth of its
# time forking
MIN_LANE_CELLS = 2 ** 16
_CHUNK = 1 << 16  # bytes read at a time: no lane holds more of the text


class MatrixFormatError(ValueError):
    """Malformed matrix text; message names the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _rows(A: np.ndarray) -> Iterator[str]:
    # "%.17g" on a Python float gives the bytes f"{x:.17g}" gives on a
    # numpy float64
    fmt = " ".join(["%.17g"] * A.shape[1]) + "\n"
    return (fmt % tuple(row.tolist()) for row in A)


def matrix_lines(A) -> Iterator[str]:
    """The text of A as lines with their line ends: the header, then one
    line per row, each formatted only when it is asked for. A is checked
    before this returns."""
    A = as_matrix(A)
    return itertools.chain([f"{A.shape[0]} {A.shape[1]}\n"], _rows(A))


def _lane_count(m: int, n: int) -> int:
    """Lanes for the text of an m x n matrix: one per usable core, row and
    MIN_LANE_CELLS cells at most (lanes.available); one without memfds."""
    from . import lanes  # here, so that importing the package loads no lane code
    return lanes.available(m * n // MIN_LANE_CELLS, m) if hasattr(os, "memfd_create") else 1


def _lane_files(stack: contextlib.ExitStack, count: int) -> list:
    """A memfd for each lane after lane 0, which its child writes to."""
    return [stack.enter_context(open(os.memfd_create("matrix lane"), "w+b"))
            for _ in range(count - 1)]


def write_matrix(A, path: str | os.PathLike) -> None:
    """Lane 0, the caller, writes the header and its rows to the file; each
    other lane formats its rows into its memfd, which the caller then
    appends in order inside the kernel."""
    A = as_matrix(A)
    m, n = A.shape
    count = _lane_count(m, n)
    bounds = [m * lane // count for lane in range(count + 1)]
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open(path, "wb")), *_lane_files(stack, count)]
        outs[0].write(f"{m} {n}\n".encode())

        def write_rows(lane: int) -> None:
            rows = _rows(A[bounds[lane]:bounds[lane + 1]])
            outs[lane].writelines(line.encode() for line in rows)
            outs[lane].flush()

        from . import lanes
        lanes.in_lanes(range(count), write_rows, count, "matrix write lane")
        for text in outs[1:]:
            done, size = 0, os.fstat(text.fileno()).st_size
            while done < size:
                done += os.sendfile(outs[0].fileno(), text.fileno(), done, size - done)


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


def _header(first: str) -> tuple[int, int]:
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
    return m, n


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
    m, n = _header(first)
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


def _file_lines(fh) -> Iterator[str]:
    """The lines of a text file opened as UTF-8 with
    errors="surrogateescape", split again as str.splitlines() splits them,
    so they are numbered as the lines of the whole text are. A byte that
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


def _chunks(fd: int, start: int, stop: int) -> Iterator[bytes]:
    # pread leaves the file offset, which forked lanes share, where it is
    while start < stop:
        chunk = os.pread(fd, min(_CHUNK, stop - start), start)
        if not chunk:
            return
        start += len(chunk)
        yield chunk


def _line_start(fd: int, at: int, size: int) -> int:
    """The offset of the first line that starts at or after `at` > 0."""
    for chunk in _chunks(fd, at - 1, size):
        if b"\n" in chunk:
            return at + chunk.index(b"\n")
        at += len(chunk)
    return size


def _parse_rows(fd: int, start: int, stop: int, out: np.ndarray) -> int | None:
    """How many rows the bytes [start, stop) of fd hold, read by _row_values
    into out; None unless they are ASCII lines that only "\n" ends, each a
    row of finite values, and fit in out."""
    row, rest = 0, ""
    try:
        for chunk in _chunks(fd, start, stop):
            if any(end in chunk for end in _OTHER_LINE_ENDS):  # memchr, unlike re
                return None
            *lines, rest = (rest + chunk.decode("ascii")).split("\n")
            for line in lines:
                out[row] = _row_values(line, out.shape[1], row)
                row += 1
    except (ValueError, IndexError):
        return None
    return None if rest or not np.isfinite(out[:row]).all() else row


def _read_in_lanes(fd: int, size: int) -> np.ndarray | None:
    """The matrix in the regular file fd of `size` bytes, or None where the
    serial parse might differ. Each lane parses a byte range that starts at
    a line start: lane 0 into A, a child into its memfd as float64, which
    the caller reads into A after the rows before it. Only if every lane
    parses all its lines and the lanes parse m rows in all is every line
    after the header a row."""
    first = os.pread(fd, _CHUNK, 0)
    end = first.find(b"\n") + 1
    try:
        if not end or any(e in first[:end] for e in _OTHER_LINE_ENDS):
            return None
        m, n = _header(first[:end - 1].decode("ascii"))
    except ValueError:
        return None
    count = _lane_count(m, n)
    if count == 1 or size - end < 2 * m * n:  # a row takes 2n bytes or more
        return None
    starts = [end, *(_line_start(fd, end + (size - end) * lane // count, size)
                     for lane in range(1, count)), size]
    A = np.empty((m, n))
    with contextlib.ExitStack() as stack:
        texts = _lane_files(stack, count)

        def parse(lane: int) -> int | None:
            start, stop = starts[lane], starts[lane + 1]
            rows = np.empty(((stop - start) // (2 * n), n)) if lane else A
            found = _parse_rows(fd, start, stop, rows)
            if lane and found:
                texts[lane - 1].write(rows[:found])
                texts[lane - 1].flush()
            return found

        from . import lanes
        try:
            counts = lanes.in_lanes(range(count), parse, count, "matrix read lane")
        except OSError:  # a lane that died or could not write its memfd
            return None
        if None in counts or sum(counts) != m:
            return None
        view, done = memoryview(A).cast("B"), counts[0] * 8 * n
        for text in texts:
            text.seek(0)
            done += text.readinto(view[done:])
    return A


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            A = _read_in_lanes(fh.fileno(), info.st_size)
            if A is not None:
                return A
        lines = _file_lines(fh)
        try:
            return _parse(lines, info.st_size)
        except MatrixFormatError:
            # a byte that does not decode is reported first, wherever it
            # falls; reading on raises it
            for _ in lines:
                pass
            raise
