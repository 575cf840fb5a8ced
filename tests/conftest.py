"""Shared fixtures and field generators for the test suite."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from rieszflow import BesovSpec, besov_norm, build_partition, energy_functionals, lp_norm, make_grid, read_snapshot
from rieszflow.config import get, load_config, parse_grid, resolve_run


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


#: the transform functions of numpy.fft
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
             "fft2", "ifft2", "rfft2", "irfft2")


class FFTCounts(dict):
    """Calls per numpy.fft transform name; ``passes`` and ``points`` add up over all of them.

    ``log`` lists every call as (name, input shape, ``n`` keyword or None).
    """

    passes = 0
    points = 0


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts calls of every numpy.fft transform by name, and their 1-D passes and points.

    A 1-D function makes one pass, an n-D one a pass per transformed axis
    (``axes`` if given by keyword, else 2 for the 2-D names and every axis
    for the n-D ones).  ``points`` adds up the sizes of the inputs.
    Internal calls of numpy.fft do not go through these names, so each
    call made by the caller counts once.
    """
    counts = FFTCounts({name: 0 for name in FFT_NAMES})
    counts.log = []
    for name in FFT_NAMES:
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            if "axes" in kwargs:
                counts.passes += len(kwargs["axes"])
            elif _name.endswith("2"):
                counts.passes += 2
            else:
                counts.passes += np.ndim(a) if _name.endswith("n") else 1
            counts.points += np.size(a)
            counts.log.append((_name, np.shape(a), kwargs.get("n")))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def simulate_record_gap(cfg, out, seed):
    """Largest relative gap between a ``simulate`` run's energy and Besov records and the library's.

    ``energy_functionals`` and ``besov_norm`` are rerun on the ``snap_*.bin``
    files the run of config ``cfg`` with ``seed`` wrote into ``out``, and
    held against every ``energy*`` and ``dissipation`` record of
    ``diagnostics.ndjson`` and every value of ``norms.csv``.
    """
    cp = load_config(cfg)
    grid = parse_grid(cp)
    params = resolve_run(cp, grid, seed)[0]
    partition, j1 = build_partition(grid), get(cp, "diagnostics", "j1")
    out = Path(out)
    states = {state.t: state for _, state in map(read_snapshot, sorted(out.glob("snap_*.bin")))}
    records = {(rec["t"], rec["name"]): rec["value"]
               for rec in map(json.loads, (out / "diagnostics.ndjson").read_text().splitlines()[1:])
               if rec["name"].startswith(("energy", "dissipation"))}
    pairs = []
    for t, state in states.items():
        ref = energy_functionals(grid, state, partition, params, j1=j1)
        expected = {"energy": ref.energy, "dissipation": ref.dissipation,
                    **{f"energy_{key}": value for key, value in ref.components.items()}}
        pairs.extend((records.pop((t, name)), value) for name, value in expected.items())
    assert not records, f"records without a reference: {sorted(records)}"
    lines = [ln for ln in (out / "norms.csv").read_text().splitlines() if not ln.startswith("# ")]
    for row in csv.DictReader(lines):
        spec = BesovSpec(float(row["s"]), float(row["p"]), float(row["r"]), row["flavor"], int(row["j1"]))
        pairs.append((float(row["value"]), besov_norm(partition, states[float(row["t"])].a, spec)))
    assert len(pairs) > len(states)
    return max(0.0 if got == ref else abs(got - ref) / abs(ref) for got, ref in pairs)
