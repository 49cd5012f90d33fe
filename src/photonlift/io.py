"""Read and write complex matrices as JSON files with [re, im] entry pairs.

The on-disk layout is a single JSON object::

    {
     "rows": 2,
     "cols": 2,
     "data": [
      [0.7071067811865476, 0.0],
      ...
     ],
     "metadata": {"free-form": "string map, optional"}
    }

``data`` is row-major with one [real, imaginary] pair per entry. Floats are
written with repr precision, so a write/read round trip reproduces every
entry bit for bit, and the same matrix and metadata always give the same
bytes. Non-finite numbers are rejected in both directions, and integers too
large for a float64 on reading.

The writer checks the whole matrix before it opens the file, then formats
and writes the entries a fixed block at a time, so beyond the matrix it
holds one boolean finite mask (a sixteenth of a complex matrix) and
O(block) memory. An entry whose two parts are +0.0 (all 128 bits zero)
goes into its block's text as the constant ``[0.0, 0.0]`` that formatting
would give, so a sparse lift, mostly such entries, formats only its
non-zero ones; -0.0 is formatted as any other float. The reader parses
the whole file with ``json.load`` and peaks at about twelve times the
matrix.
"""

import cmath
import json
import os

import numpy as np

__all__ = ["MatrixFileError", "read_matrix", "write_matrix"]


class MatrixFileError(ValueError):
    """Matrix file is not valid JSON or does not match the expected schema."""


def _reject_constant(token: str):
    raise MatrixFileError(f"non-finite number {token!r} is not allowed")


def _require(condition: bool, path, message: str) -> None:
    if not condition:
        raise MatrixFileError(f"{path}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string_map(value) -> bool:
    """Whether ``value`` is a dict whose keys and values are all strings."""
    return isinstance(value, dict) and all(
        isinstance(key, str) and isinstance(entry, str) for key, entry in value.items()
    )


def read_matrix(path) -> np.ndarray:
    """Load a matrix file; raises OSError for I/O and MatrixFileError for content."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc

    _require(isinstance(raw, dict), path, "top level must be a JSON object")
    for field in ("rows", "cols", "data"):
        _require(field in raw, path, f"missing required field {field!r}")
    rows, cols, data = raw["rows"], raw["cols"], raw["data"]
    for name, value in (("rows", rows), ("cols", cols)):
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            path,
            f"{name} must be an integer >= 1",
        )
    _require(isinstance(data, list), path, "data must be a list of [re, im] pairs")
    _require(
        len(data) == rows * cols,
        path,
        f"data holds {len(data)} entries, expected rows*cols = {rows * cols}",
    )
    if "metadata" in raw and raw["metadata"] is not None:
        _require(
            _is_string_map(raw["metadata"]), path, "metadata must map strings to strings"
        )

    entries = np.empty(rows * cols, dtype=complex)
    for position, pair in enumerate(data):
        _require(
            isinstance(pair, list) and len(pair) == 2,
            path,
            f"data[{position}] must be a [re, im] pair",
        )
        real, imaginary = pair
        _require(
            _is_number(real) and _is_number(imaginary),
            path,
            f"data[{position}] must hold two numbers",
        )
        try:
            entry = complex(real, imaginary)
        except OverflowError:
            raise MatrixFileError(
                f"{path}: data[{position}] holds an integer beyond float64 range"
            ) from None
        _require(cmath.isfinite(entry), path, f"data[{position}] must be finite")
        entries[position] = entry
    return entries.reshape(rows, cols)


# Entries formatted and written per block: a block's floats, format
# arguments and text take about 0.13 MB whatever the matrix size.
_WRITE_BLOCK = 1024
# An entry's part of a block template, indexed by whether it is non-zero:
# the text %r gives when both parts are +0.0, or the entry template.
_ENTRY_CHOICES = np.array(["  [0.0, 0.0]", "  [%r, %r]"], dtype=object)


def write_matrix(matrix, path, metadata: dict[str, str] | None = None) -> None:
    """Write a matrix file that read_matrix restores exactly."""
    out = np.asarray(matrix, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {out.shape}")
    rows, cols = out.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    if metadata is not None and not _is_string_map(metadata):
        raise ValueError("metadata must map strings to strings")

    if metadata:
        tail = f'\n ],\n "metadata": {json.dumps(metadata, sort_keys=True)}\n}}\n'
    else:
        tail = "\n ]\n}\n"
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(f'{{\n "rows": {rows},\n "cols": {cols},\n "data": [\n')
        for start in range(0, rows * cols, _WRITE_BLOCK):
            # A row-major block as [re, im, re, im, ...] Python floats; %r
            # writes float.__repr__, the shortest string that reads back to
            # the same double, which is also what json.dumps writes.
            block = out.flat[start : start + _WRITE_BLOCK]
            # +0.0 is the one float64 whose bits are all zero; -0.0 is not.
            bits = block.view(np.uint64)
            nonzero = np.logical_or(bits[0::2], bits[1::2])
            # Zero entries go into the template as text, unformatted.
            template = ",\n".join(_ENTRY_CHOICES[nonzero.view(np.int8)].tolist())
            block = block[nonzero]
            if start:
                handle.write(",\n")
            handle.write(template % tuple(block.view(np.float64).tolist()))
        handle.write(tail)
