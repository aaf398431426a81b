"""Deterministic serialization: binary field snapshots, JSON and CSV writers.

Binary container layout (little-endian, row-major coefficient block):

    bytes 0..3   magic  b"UPF1"
    byte  4      n      (uint8, number of axes)
    bytes 5..8   N      (uint32, points per axis)
    bytes 9..16  L      (float64, box scale)
    byte  17     dtype  (0 = complex128, 1 = complex64; write_field writes 0)
    bytes 18..   coefficients, C order, n axes of length N each

JSON output is rendered with sorted keys and repr-exact floats so identical
inputs produce byte-identical files.  Timestamps or other volatile metadata
never go in result files; callers put them in a sidecar.

The JSON and CSV writers belong to the exact layer and load no NumPy: they
convert NumPy values only when NumPy is already loaded, since no such value
can exist otherwise.  The binary field I/O imports NumPy and ``sobolev``
when it runs.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

__all__ = [
    "write_field",
    "read_field",
    "write_json",
    "canonical_json",
    "write_csv",
    "format_float",
]

_MAGIC = b"UPF1"
_HEADER = struct.Struct("<4sBIdB")
_DTYPES = {0: "complex128", 1: "complex64"}


def write_field(path, field: SpectralField) -> None:
    """Write a field's Fourier coefficients to the binary container as complex128.

    They are written from the field's own complex128 buffer, with no copy.
    """
    import numpy as np

    grid = field.grid
    header = _HEADER.pack(_MAGIC, grid.n, grid.N, float(grid.L), 0)
    payload = np.ascontiguousarray(field.coeffs, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path) -> SpectralField:
    """Read a binary field container of either dtype code into a complex128 SpectralField."""
    import numpy as np

    from .sobolev import SpectralField, TorusGrid

    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated field file")
    magic, n, N, L, code = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a field container (bad magic {magic!r})")
    if code not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    dtype = np.dtype(_DTYPES[code])
    expected = _HEADER.size + dtype.itemsize * N**n
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw)} != expected {expected}")
    coeffs = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape((N,) * n)
    return SpectralField(TorusGrid(n, N, L), coeffs.astype(np.complex128))


def format_float(x) -> str:
    """Shortest round-trip decimal form; integers of float type keep '.0'."""
    return repr(float(x))


def _normalize(obj, np):
    """Coerce numpy scalars/arrays and paths into plain JSON-friendly types.

    `np` is the NumPy module, or None when NumPy is not loaded.
    """
    if isinstance(obj, dict):
        return {str(k): _normalize(v, np) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v, np) for v in obj]
    if np is not None:
        if isinstance(obj, np.ndarray):
            return [_normalize(v, np) for v in obj.tolist()]
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def canonical_json(data) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift, repr floats."""
    data = _normalize(data, sys.modules.get("numpy"))
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, data) -> None:
    Path(path).write_text(canonical_json(data), encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: fixed header, repr floats, '\n' line endings."""
    np = sys.modules.get("numpy")
    floats = float if np is None else (float, np.floating)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, floats):
                cells.append(format_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
