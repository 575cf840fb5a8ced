"""Shared fixtures and field generators for the test suite."""

import numpy as np
import pytest

from rieszflow import lp_norm, make_grid


def smooth_field(grid, rng, decay=4.0):
    """Mean-zero random field with analytic spectral decay.

    Content on the Nyquist planes is removed, so the field lies in the
    subspace where odd multipliers and the Hodge split are exact.
    """
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec *= np.exp(-((grid.xi_norm / decay) ** 2))
    spec[~grid.dealias_mask(1.0)] = 0.0
    f = np.fft.ifftn(spec).real
    f -= f.mean()
    return f


def smooth_vector(grid, rng, decay=4.0):
    return np.stack([smooth_field(grid, rng, decay) for _ in range(grid.dim)])


@pytest.fixture
def grid_1d():
    return make_grid(dim=1, lengths=2.0 * np.pi, modes=64)


@pytest.fixture
def grid_2d():
    return make_grid(dim=2, lengths=2.0 * np.pi, modes=32)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Full-lattice references for the half-spectrum diagnostics: every block is
# one complex fftn/ifftn round trip per component with the cached
# full-lattice multiplier, and every norm is the physical-space lp_norm.


def full_lattice_filter(f, m):
    f = np.asarray(f, dtype=float)
    if f.ndim > m.ndim:
        return np.stack([full_lattice_filter(c, m) for c in f])
    return np.fft.ifftn(m * np.fft.fftn(f)).real


def flavor_shells(partition, spec):
    if spec.flavor == "low":
        return [j for j in partition.js if j <= spec.j1]
    if spec.flavor == "high":
        return [j for j in partition.js if j >= spec.j1 - 1]
    return list(partition.js)


def sequence_norm(values, r):
    values = np.asarray(values, dtype=float)
    return float(np.max(values)) if r == np.inf else float(np.sum(values**r) ** (1.0 / r))


def reference_besov(partition, f, spec):
    grid = partition.grid
    return sequence_norm(
        [2.0 ** (j * spec.s) * lp_norm(grid, full_lattice_filter(f, partition.multiplier(j)), spec.p)
         for j in flavor_shells(partition, spec)],
        spec.r,
    )


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts calls of numpy.fft.{fftn, ifftn, rfftn, irfftn} by name."""
    counts = {name: 0 for name in ("fftn", "ifftn", "rfftn", "irfftn")}
    for name in counts:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts
