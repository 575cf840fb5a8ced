"""Binary snapshot container round trips and validation."""

import struct
import tracemalloc

import numpy as np
import pytest

from rieszflow import FieldState, make_grid, read_snapshot, write_snapshot
from rieszflow.snapshots import MAGIC

from conftest import smooth_field, smooth_vector


class TestRoundTrip:
    """Write then read preserves grid and fields bit-exactly."""

    def test_1d(self, tmp_path, grid_1d, rng):
        st = FieldState(a=smooth_field(grid_1d, rng), u=smooth_vector(grid_1d, rng), t=2.75)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid_1d, st)
        g2, st2 = read_snapshot(path)
        assert g2.dim == 1 and g2.modes == grid_1d.modes
        assert g2.lengths == grid_1d.lengths
        assert st2.t == 2.75
        assert np.array_equal(st2.a, st.a)
        assert np.array_equal(st2.u, st.u)

    def test_2d(self, tmp_path, grid_2d, rng):
        st = FieldState(a=smooth_field(grid_2d, rng), u=smooth_vector(grid_2d, rng), t=0.0)
        path = tmp_path / "snap2d.bin"
        write_snapshot(path, grid_2d, st)
        _, st2 = read_snapshot(path)
        assert np.array_equal(st2.a, st.a)
        assert np.array_equal(st2.u, st.u)

    def test_file_size_is_exact(self, tmp_path, grid_1d, rng):
        st = FieldState(a=smooth_field(grid_1d, rng), u=smooth_vector(grid_1d, rng), t=0.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid_1d, st)
        n = grid_1d.npoints
        assert path.stat().st_size == 8 + 16 + 8 + 8 + 2 * 8 * n

    def test_write_copies_no_field(self, tmp_path, rng):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=256)
        st = FieldState(a=rng.standard_normal(g.shape), u=rng.standard_normal((2,) + g.shape), t=1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, g, st)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_snapshot(path, g, st)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # one field is 512 KiB: a bytes copy of it per write peaked at 529,826 B
        assert peak <= 64 * 1024
        _, back = read_snapshot(path)
        assert np.array_equal(back.a, st.a) and np.array_equal(back.u, st.u)

    def test_read_makes_one_array(self, tmp_path, rng):
        g = make_grid(dim=2, lengths=2.0 * np.pi, modes=64)
        st = FieldState(a=rng.standard_normal(g.shape), u=rng.standard_normal((2,) + g.shape), t=1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, g, st)
        read_snapshot(path)  # the grid of this header is made once
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, back = read_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the payload is 98,304 B (103,397 B measured); the bytes read and the copies of a and u
        # peaked at 197,770 B
        assert peak < 1.25 * 3 * 8 * g.npoints
        assert back.a.base is back.u.base
        assert np.array_equal(back.a, st.a) and np.array_equal(back.u, st.u)


class TestValidation:
    """Malformed inputs and files are rejected."""

    def test_shape_mismatch(self, tmp_path, grid_1d):
        st = FieldState(a=np.zeros(12), u=np.zeros((1, 12)), t=0.0)
        with pytest.raises(ValueError, match="shapes"):
            write_snapshot(tmp_path / "bad.bin", grid_1d, st)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, grid_1d, rng):
        st = FieldState(a=smooth_field(grid_1d, rng), u=smooth_vector(grid_1d, rng), t=0.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid_1d, st)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    def test_trailing_byte(self, tmp_path, grid_1d, rng):
        st = FieldState(a=smooth_field(grid_1d, rng), u=smooth_vector(grid_1d, rng), t=0.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid_1d, st)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="1 bytes of trailing data"):
            read_snapshot(path)

    def test_huge_mode_count_fails_before_allocating(self, tmp_path, grid_1d, rng):
        st = FieldState(a=smooth_field(grid_1d, rng), u=smooth_vector(grid_1d, rng), t=0.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid_1d, st)
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 24, 2**40)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                read_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_odd_mode_count(self, tmp_path, grid_1d, rng):
        st = FieldState(a=smooth_field(grid_1d, rng), u=smooth_vector(grid_1d, rng), t=0.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid_1d, st)
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 24, 63)
        path.write_bytes(bytes(data)[:-16])  # payload sized for 63 points
        with pytest.raises(ValueError, match="even and >= 8, got 63"):
            read_snapshot(path)

    def test_magic_constant(self):
        assert MAGIC == b"SPECFLD1"


class TestGridReuse:
    """Consecutive reads with one header share one grid; the memo holds one entry."""

    def test_same_header_returns_same_grid(self, tmp_path, grid_2d, rng):
        for name in ("s0.bin", "s1.bin"):
            st = FieldState(a=smooth_field(grid_2d, rng), u=smooth_vector(grid_2d, rng), t=0.0)
            write_snapshot(tmp_path / name, grid_2d, st)
        g0, _ = read_snapshot(tmp_path / "s0.bin")
        g1, _ = read_snapshot(tmp_path / "s1.bin")
        assert g1 is g0

    def test_different_header_gives_new_grid(self, tmp_path, rng):
        small = make_grid(dim=2, lengths=2.0 * np.pi, modes=16)
        wide = make_grid(dim=2, lengths=2.0 * np.pi, modes=(16, 32))
        for name, g in (("small.bin", small), ("wide.bin", wide)):
            st = FieldState(a=smooth_field(g, rng), u=smooth_vector(g, rng), t=0.0)
            write_snapshot(tmp_path / name, g, st)
        g_small, _ = read_snapshot(tmp_path / "small.bin")
        g_wide, st_wide = read_snapshot(tmp_path / "wide.bin")
        assert g_wide is not g_small
        assert g_wide.modes == (16, 32) and st_wide.a.shape == (16, 32)
        g_again, _ = read_snapshot(tmp_path / "small.bin")
        assert g_again is not g_wide and g_again.modes == (16, 16)
