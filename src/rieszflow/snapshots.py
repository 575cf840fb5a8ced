"""Flat binary container for field snapshots.

Layout (little-endian, no padding):

==========  ========  =====================================
offset      type      meaning
==========  ========  =====================================
0           8s        magic ``b"SPECFLD1"``
8           u4        dim (1 or 2)
12          u4        nfields (1 + dim: density, velocity components)
16          f8        snapshot time
24          u8 * dim  modes N_i per axis
...         f8 * dim  box lengths L_i per axis
==========  ========  =====================================

followed by ``nfields`` arrays of float64 in C (row-major) order, each
with prod(N_i) entries: the density fluctuation first, then the
velocity components in axis order.  The file ends with the payload;
:func:`read_snapshot` checks the header against the file size before it
reads the payload.
"""

from __future__ import annotations

import functools
import math
import os
import struct

import numpy as np

from .grid import FieldState, SpectralGrid, check_mode_count, make_grid, state_fields

__all__ = ["MAGIC", "write_snapshot", "read_snapshot"]

MAGIC = b"SPECFLD1"

# Consecutive reads of one run's snapshots share their header, so they
# share one grid; a single entry keeps the memory bounded.
_grid_for_header = functools.lru_cache(maxsize=1)(make_grid)


def write_snapshot(path, grid: SpectralGrid, state: FieldState) -> None:
    a, u = state_fields(grid, state)
    nfields = 1 + grid.dim
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IId", grid.dim, nfields, float(state.t)))
        fh.write(struct.pack(f"<{grid.dim}Q", *grid.modes))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.lengths))
        # the buffer of a C-contiguous <f8 field is written as it is, without a copy
        for f in (a, *u):
            fh.write(np.ascontiguousarray(f, dtype="<f8"))


def _unpack(fh, fmt: str) -> tuple:
    data = fh.read(struct.calcsize(fmt))
    if len(data) != struct.calcsize(fmt):
        raise ValueError("snapshot file is truncated inside its header")
    return struct.unpack(fmt, data)


def read_snapshot(path) -> tuple[SpectralGrid, FieldState]:
    """Read one snapshot; a header equal to the previous read's returns the same grid object."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"not a snapshot file (magic {magic!r})")
        dim, nfields, t = _unpack(fh, "<IId")
        if dim not in (1, 2):
            raise ValueError(f"unsupported dim {dim}")
        if nfields != 1 + dim:
            raise ValueError(f"expected {1 + dim} fields for dim {dim}, found {nfields}")
        modes = _unpack(fh, f"<{dim}Q")
        lengths = _unpack(fh, f"<{dim}d")
        for n in modes:
            check_mode_count(n)
        npoints = math.prod(modes)
        expected = fh.tell() + 8 * nfields * npoints
        if size < expected:
            raise ValueError(
                f"snapshot file is truncated: header needs {expected} bytes, file has {size}"
            )
        if size > expected:
            raise ValueError(
                f"snapshot file has {size - expected} bytes of trailing data after the payload"
            )
        # the payload is read once, into the array whose views are a and u
        fields = np.empty((nfields, *modes), dtype="<f8")
        if fh.readinto(fields) != fields.nbytes:
            raise ValueError("snapshot file shrank while it was read")
    grid = _grid_for_header(dim, lengths, modes)
    return grid, FieldState(a=fields[0], u=fields[1:], t=float(t))
