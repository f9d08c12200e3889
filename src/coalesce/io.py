"""CSV and JSON output with byte-stable formatting, and UTF-8 text input.

Reals are written with 17 significant digits (round-trip exact for float64),
integers as plain decimals.  Row order is fixed by the callers, so identical
inputs produce identical bytes regardless of worker count.  ``block_csv``
formats a runner block's value array to the same bytes that ``rows_to_csv``
gives for its rows, so runner workers can format their own blocks.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain

import numpy as np

from .errors import ParameterOutOfRange

__all__ = [
    "format_cell", "rows_to_csv", "block_csv", "write_csv", "write_csv_chunks",
    "sha256_text", "write_json", "read_text", "make_dir", "open_out",
]

# the %-conversion that matches format_cell for a numpy dtype kind
_CELL = {"i": "%d", "u": "%d", "f": "%.17g"}


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _lines(rows) -> str:
    return "".join(",".join(format_cell(v) for v in row) + "\r\n" for row in rows)


def rows_to_csv(header, rows) -> str:
    return ",".join(header) + "\r\n" + _lines(rows)


def block_csv(first: int, grid, vals) -> str:
    """The CSV lines of a block of replicates numbered from ``first``:
    ``rep,t,*vals[r, i]`` for every replicate r and grid time i of a 3-D
    array, or ``rep,vals[r]`` for a 1-D one.  Equal to the lines that
    ``rows_to_csv`` writes for those rows, built from one row template."""
    cell = _CELL[vals.dtype.kind]
    count = len(vals)
    reps = np.arange(first, first + count, dtype=object)
    if vals.ndim == 1:
        template = "%d," + cell + "\r\n"
        args = np.empty((count, 2), dtype=object)
        args[:, 0] = reps
        args[:, 1] = vals.astype(object)
    else:
        cells = ",".join([cell] * vals.shape[2])
        template = "".join(f"%d,{format_cell(t)},{cells}\r\n" for t in grid)
        args = np.empty((count, len(grid), 1 + vals.shape[2]), dtype=object)
        args[:, :, 0] = reps[:, None]
        args[:, :, 1:] = vals.astype(object)
    return (template * count) % tuple(args.ravel().tolist())


def write_csv(path, header, rows) -> str:
    """Write and return the sha256 digest of the data bytes."""
    return write_csv_chunks(path, header, [_lines(rows)])


def write_csv_chunks(path, header, chunks) -> str:
    """Write the header, then each text chunk in turn (each holding whole
    CRLF-terminated lines); return the sha256 digest of the bytes."""
    digest = hashlib.sha256()
    with open_out(path, "wb") as fh:
        for text in chain([",".join(header) + "\r\n"], chunks):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_text(path) -> str:
    """The UTF-8 text of ``path``.  A file that is missing, cannot be
    opened or is not UTF-8 raises ParameterOutOfRange naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParameterOutOfRange(f"{path}: cannot read: {reason}") from None


def make_dir(path) -> None:
    """Make the output directory ``path``; a path that cannot be one raises
    ParameterOutOfRange naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ParameterOutOfRange(f"{path}: cannot make directory: {exc.strerror or exc}") from None


def open_out(path, mode="w"):
    """``path`` opened for writing, in UTF-8 unless binary; a path that
    cannot be written raises ParameterOutOfRange naming it."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise ParameterOutOfRange(f"{path}: cannot write: {exc.strerror or exc}") from None


def write_json(path, payload) -> None:
    with open_out(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
