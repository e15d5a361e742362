"""Matrix CSV reading/writing: comma separated, no header, full precision.

Values are written with 17 significant digits so a write/read round trip
reproduces every float64 bit pattern. Vectors are single-column files.

A file is parsed a row at a time as it is read, so no copy of its text is
held: numpy's reader (``np.loadtxt``) is handed the rows of the open file,
never the path, which it would decompress by its extension (``.gz``,
``.bz2``, ``.xz``) or fetch as a URL. Rows are split as ``str.splitlines``
splits the text, and blank and whitespace-only rows are skipped; there are no
comment lines, so a ``#`` line is an error like any other unparsable row.
Only a refused file is read again, whole, to name its first bad row: errors
cite the 1-based line of the file, counting the skipped lines, and name the
row's first cell that is blank or that the reader refuses on its own.
A file the text codec refuses is named with the offset of its first bad
byte. Outputs are written in blocks of about
:data:`_WRITE_BLOCK_VALUES` values (256 rows of 40, never less than one
row). So reading holds the array, which numpy's reader grows as rows
arrive, plus one row, and writing holds the array plus one block of text.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

# Values formatted per write, as whole rows. Blocks of 16 to 1024 rows write
# a (500, 40) matrix equally fast, one row at a time is about 6% slower, and
# 256 rows of 40 values are 0.6 MiB of text
_WRITE_BLOCK_VALUES = 10240


class MatrixFileError(ValueError):
    """Raised when a matrix file cannot be parsed into a dense matrix."""


def write_matrix(path, matrix) -> None:
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    row_format = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    rows = max(1, _WRITE_BLOCK_VALUES // max(1, arr.shape[1]))
    with open(path, "w") as handle:
        for start in range(0, arr.shape[0], rows):
            block = arr[start : start + rows]
            handle.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def write_vector(path, vector) -> None:
    arr = np.asarray(vector, dtype=np.float64).reshape(-1, 1)
    write_matrix(path, arr)


def _parse(lines) -> np.ndarray:
    # comments=None: the default "#" would silently skip lines that are errors.
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _parses(text: str) -> bool:
    try:
        _parse([text])
    except ValueError:
        return False
    return True


def _rows(lines):
    """The non-blank pieces of each line, in the order ``str.splitlines`` gives them."""
    for line in lines:
        for row in line.splitlines():
            if row.strip():
                yield row


def _row_error(path: Path) -> MatrixFileError:
    """Read ``path`` again, whole, for the error of the first line the reader refuses.

    A file the codec refuses is named by the offset of its first bad byte.
    """
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        # the whole file is decoded at once, so exc.start is its byte offset
        byte = exc.object[exc.start]
        return MatrixFileError(f"{path}: byte {byte:#04x} at offset {exc.start} is not {exc.encoding} text")
    width: int | None = None
    for index, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if not _parses(line):
            # a blank cell is tested first: the reader skips it with a warning
            bad = next((f for f in fields if not f.strip() or not _parses(f)), line)
            return MatrixFileError(f"{path}: row {index}: could not convert string to float: {bad!r}")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return MatrixFileError(f"{path}: row {index} has {len(fields)} entries, expected {width}")
    return MatrixFileError(f"{path}: cannot parse matrix file")


def _load(path: Path) -> np.ndarray | None:
    """The matrix parsed from the open file, or None when it has no row."""
    try:
        with path.open() as handle:
            rows = _rows(handle)
            # numpy warns on a file with no rows, so the first is taken here
            first = next(rows, None)
            return None if first is None else _parse(chain([first], rows))
    except ValueError:
        # a refused row, or bytes the codec refuses
        raise _row_error(path) from None


def read_matrix(path) -> np.ndarray:
    """Parse a CSV matrix file; errors name the file and the offending row."""
    path = Path(path)
    try:
        arr = _load(path)
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file ({exc})") from exc
    if arr is None:
        raise MatrixFileError(f"{path}: empty matrix file")
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{path}: entries must be finite")
    return arr


def read_vector(path) -> np.ndarray:
    """Read a single-column CSV file as a 1-D vector."""
    arr = read_matrix(path)
    if arr.shape[1] != 1:
        raise MatrixFileError(
            f"{path}: expected a single-column vector file, got {arr.shape[1]} columns"
        )
    return arr[:, 0]
