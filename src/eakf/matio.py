"""Matrix CSV reading/writing: comma separated, no header, full precision.

Values are written with 17 significant digits so a write/read round trip
reproduces every float64 bit pattern. Vectors are single-column files.

Files are parsed by numpy's reader (``np.loadtxt``) in one call. Blank and
whitespace-only lines are skipped; there are no comment lines, so a ``#``
line is an error like any other unparsable row. Errors cite the 1-based line
of the file, counting the skipped lines.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class MatrixFileError(ValueError):
    """Raised when a matrix file cannot be parsed into a dense matrix."""


def write_matrix(path, matrix) -> None:
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    row_format = ",".join(["%.17g"] * arr.shape[1])
    lines = [row_format % tuple(row) for row in arr.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_vector(path, vector) -> None:
    arr = np.asarray(vector, dtype=np.float64).reshape(-1, 1)
    write_matrix(path, arr)


def _parse(lines: list[str]) -> np.ndarray:
    # comments=None: the default "#" would silently skip lines that are errors.
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _parses(text: str) -> bool:
    try:
        _parse([text])
    except ValueError:
        return False
    return True


def _row_error(path: Path, numbered: list[tuple[int, str]]) -> MatrixFileError:
    """The error for the first line, in file order, that the reader refuses."""
    width: int | None = None
    for index, line in numbered:
        fields = line.split(",")
        if not _parses(line):
            for field in fields:
                try:
                    float(field)
                except ValueError as exc:
                    return MatrixFileError(f"{path}: row {index}: {exc}")
            # float() accepts some spellings the reader refuses, e.g. "1_0".
            bad = next((field for field in fields if not _parses(field)), line)
            return MatrixFileError(f"{path}: row {index}: could not convert string to float: {bad!r}")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return MatrixFileError(f"{path}: row {index} has {len(fields)} entries, expected {width}")
    return MatrixFileError(f"{path}: cannot parse matrix file")


def read_matrix(path) -> np.ndarray:
    """Parse a CSV matrix file; errors name the file and the offending row."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file ({exc})") from exc
    numbered = [(index, line) for index, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not numbered:
        raise MatrixFileError(f"{path}: empty matrix file")
    try:
        arr = _parse([line for _, line in numbered])
    except ValueError:
        raise _row_error(path, numbered) from None
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
