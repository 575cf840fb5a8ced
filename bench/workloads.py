"""The benchmark workloads: input generation, one timed pass, output checks.

Each workload class builds its inputs from the seed in ``__init__`` (the
set-up the benchmark times as ``setup_s``), runs one pass of the
measured work in ``run_pass`` and checks that pass's output in
``check``, which the caller runs outside the timed region.  ``check``
returns a list of ``(operation index or None, message)`` pairs; ``None``
fails every operation of the pass.

Sizes: ``full`` is the benchmarked configuration, ``small`` (1D N=256,
2D 32x32) is the reduced size the smoke tests use.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from rieszflow import cli, config, diagnostics, littlewood_paley, snapshots, solver
from rieszflow.grid import FieldState, RieszParams, make_grid
from rieszflow.littlewood_paley import BesovSpec, build_partition
from rieszflow.spectrum import propagator

SIZES = ("full", "small")


def schedule_steps(times, dt: float, t0: float = 0.0) -> int:
    """IFRK4 steps ``integrate`` takes for a snapshot schedule (its own per-segment rule)."""
    t, total = t0, 0
    for target in times:
        target = t0 + float(target)
        if target <= t + 1e-12 * max(1.0, abs(t)):
            continue
        total += max(1, math.ceil((target - t) / dt - 1e-9))
        t = target
    return total


def smooth_field(grid, rng, decay: float = 4.0) -> np.ndarray:
    """Mean-zero random field with analytic spectral decay and no Nyquist content."""
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec *= np.exp(-((grid.xi_norm / decay) ** 2))
    spec[~grid.dealias_mask(1.0)] = 0.0
    f = np.fft.ifftn(spec).real
    return f - f.mean()


class Workload:
    """Defaults for workloads whose passes leave nothing on disk."""

    def artifact_bytes(self, out) -> int:
        return 0

    def discard(self, out) -> None:
        pass


class Decay1D(Workload):
    """Library ``integrate`` on acceptance configuration c08 (1D N=4096, 33 snapshots)."""

    name = "decay-1d"
    ops_per_pass = 1
    window = (4.0, 25.0)
    slope_rtol = 0.15

    def __init__(self, seed: int, size: str, workdir: Path):
        self.grid = make_grid(dim=1, lengths=200 * np.pi, modes=256 if size == "small" else 4096)
        self.params = RieszParams.from_s_star(1, 0.5)
        self.initial = solver.perturbation_presets(
            "low-frequency-powerlaw", 0.005, self.grid, sigma1=-0.5, cutoff=1.0, seed=seed
        )
        times = tuple(float(t) for t in np.geomspace(1.0, 40.0, 33))
        self.config = solver.SolverConfig(dt=0.1, t_end=40.0, snapshot_times=times)
        self.points = self.grid.npoints
        self.steps_per_pass = schedule_steps(times, self.config.dt)
        self.snapshots_per_pass = len(times)
        self._linear_slope = None

    def run_pass(self):
        return solver.integrate(self.grid, self.initial, self.params, self.config)

    def linear_slope(self) -> float:
        """Decay slope of ||a||_2 under the exact linear propagator, fitted as c08 does."""
        if self._linear_slope is None:
            g = self.grid
            a_hat0 = np.fft.fftn(self.initial.a)
            dv = g.cell_volume / g.npoints
            ts = np.array(self.config.snapshot_times)
            p11 = np.stack([propagator(g.xi_norm, 0.5, float(t))[..., 0, 0] for t in ts])
            linear = np.sqrt(dv * np.sum(np.abs(p11 * a_hat0) ** 2, axis=-1))
            self._linear_slope = diagnostics.fit_decay(ts, linear, -0.5, window=self.window).slope
        return self._linear_slope

    def check(self, traj) -> list:
        if traj.status != "completed":
            return [(None, f"status {traj.status!r} at t={traj.abort_time}")]
        problems = []
        mean0 = float(np.mean(self.initial.a))
        drift = max(abs(float(np.mean(s.a)) - mean0) for s in traj.snapshots)
        if drift > 1e-12:
            problems.append((0, f"mean(a) drifted by {drift:.3e} > 1e-12"))
        ts = np.array([s.t for s in traj.snapshots])
        l2 = np.array([d["l2_a"] for d in traj.diagnostics])
        fit = diagnostics.fit_decay(ts, l2, self.linear_slope(), window=self.window)
        if not fit.rel_err <= self.slope_rtol:
            problems.append((0, f"L2 slope {fit.slope:.4f} is {fit.rel_err:.3f} off the linear "
                                f"slope {self.linear_slope():.4f} (limit {self.slope_rtol})"))
        return problems


SIMULATE_INI = """\
[experiment]
name = bench-simulate-2d
kind = simulate

[grid]
dim = 2
length = {length!r}
modes = {modes}

[params]
s_star = 0.5

[preset]
kind = low-frequency-powerlaw
amplitude = 0.05
sigma1 = -1
cutoff = 1

[solver]
integrator = ifrk4
dt = 0.05
t_end = 1.0
snapshot_times = linspace:0,1,6

[diagnostics]
energy = true
"""


class Simulate2D(Workload):
    """CLI ``simulate`` in-process on 2D 256x256, 20 IFRK4 steps, 6 snapshots."""

    name = "simulate-2d"
    ops_per_pass = 1

    def __init__(self, seed: int, size: str, workdir: Path):
        modes = 32 if size == "small" else 256
        self.seed = seed
        self.workdir = Path(workdir)
        self.config_path = self.workdir / "simulate-2d.ini"
        self.config_path.write_text(SIMULATE_INI.format(length=16 * np.pi, modes=modes))
        solver_config = config.parse_solver_config(config.load_config(self.config_path))
        self.points = modes * modes
        self.steps_per_pass = schedule_steps(solver_config.snapshot_times, solver_config.dt)
        self.snapshots_per_pass = len(solver_config.snapshot_times)
        self._count = 0

    def run_pass(self):
        out = self.workdir / f"out-{self._count:04d}"
        self._count += 1
        argv = ["simulate", "--config", str(self.config_path), "--out", str(out),
                "--seed", str(self.seed)]
        return cli.main(argv), out

    def check(self, result) -> list:
        status, out = result
        if status != 0:
            return [(None, f"simulate exited with status {status}")]
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry["path"]: entry for entry in manifest["files"]}
        present = {p.name for p in out.iterdir()} - {"manifest.json"}
        if set(listed) != present:
            problems.append((0, f"manifest lists {sorted(listed)}, directory holds {sorted(present)}"))
        for name, entry in sorted(listed.items()):
            path = out / name
            if not path.is_file():
                continue
            data = path.read_bytes()
            if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
                problems.append((0, f"{name} does not match its manifest entry"))
        rows = [line.split(",", 1) for line in (out / "summary.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        status_row = dict(rows).get("status")
        if status_row != "completed":
            problems.append((0, f"summary.csv status is {status_row!r}"))
        return problems

    def artifact_bytes(self, result) -> int:
        return sum(p.stat().st_size for p in result[1].iterdir())

    def discard(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


class Analyze2D(Workload):
    """Post-processing of 6 stored smooth 2D 256x256 snapshots: the LP/Besov diagnostics."""

    name = "analyze-2d"
    nsnap = 6
    dt = 0.2
    c_tilde = 0.25
    j1 = 0
    rtol = 1e-10

    def __init__(self, seed: int, size: str, workdir: Path):
        self.grid = make_grid(dim=2, lengths=16 * np.pi, modes=32 if size == "small" else 256)
        self.params = RieszParams.from_s_star(2, 0.5)
        self.partition = build_partition(self.grid)
        rng = np.random.default_rng(seed)
        self.states, self.paths = [], []
        for k in range(self.nsnap):
            a = smooth_field(self.grid, rng)
            u = np.stack([smooth_field(self.grid, rng) for _ in range(self.grid.dim)])
            state = FieldState(a=0.05 * a / np.max(np.abs(a)), u=0.05 * u / np.max(np.abs(u)),
                               t=self.dt * k)
            path = Path(workdir) / f"snap_{k:04d}.bin"
            snapshots.write_snapshot(path, self.grid, state)
            self.states.append(state)
            self.paths.append(path)
        d, j1 = self.grid.dim, self.j1
        self.pair = (BesovSpec(d / 2.0 - 1.0, 2, 1, "low", j1), BesovSpec(d / 2.0 + 1.0, 2, 1, "high", j1))
        # the four p = 2 components energy_functionals documents, as (field, spec); field 0 is a, 1 is u
        self.energy_specs = {
            "a_low": (0, BesovSpec(d / 2.0 - 1.0, 2, 1, "low", j1)),
            "u_low": (1, BesovSpec(d / 2.0, 2, 1, "low", j1)),
            "a_high": (0, BesovSpec(d / 2.0 + 1.0, 2, 1, "high", j1)),
            "u_high": (1, BesovSpec(d / 2.0 + 2.0 - self.params.s_star, 2, 1, "high", j1)),
        }
        self.chemin_lerner = ((np.inf, self.pair[0]), (1.0, self.pair[1]))
        p = self.partition
        self.lyapunov_js = range(max(j1 - 1, p.j_min), p.j_max + 1)
        self.points = self.grid.npoints
        self.steps_per_pass = 0
        self.snapshots_per_pass = self.nsnap
        self.ops_per_pass = self.nsnap
        self._reference = None

    def run_pass(self):
        grid, part, params, j1 = self.grid, self.partition, self.params, self.j1
        read = [snapshots.read_snapshot(path) for path in self.paths]
        states = [state for _, state in read]
        rows = []
        for state in states:
            rec = diagnostics.energy_functionals(grid, state, part, params, j1=j1)
            pair = [littlewood_paley.besov_norm(part, state.a, spec) for spec in self.pair]
            lyap = [diagnostics.lyapunov_block(grid, state, j, self.c_tilde, part, params, j1)
                    for j in self.lyapunov_js]
            rows.append({"energy": rec, "pair": pair, "lyapunov": lyap})
        times = np.array([state.t for state in states])
        series = [state.a for state in states]
        cl = [littlewood_paley.chemin_lerner_norm(part, times, series, rho, spec)
              for rho, spec in self.chemin_lerner]
        residuals = [
            (diagnostics.density_equation_residual(grid, states[k:k + 3], params),
             diagnostics.z_equation_residual(grid, states[k:k + 3], params))
            for k in range(self.nsnap - 2)
        ]
        return {"read": read, "rows": rows, "chemin_lerner": cl, "residuals": residuals}

    def shell_reference(self) -> np.ndarray:
        """Parseval shell norms ||block_j||_2 from partition.multiplier(j), shape (nsnap, 2, shells)."""
        if self._reference is None:
            g, part = self.grid, self.partition
            scale = g.cell_volume / g.npoints
            ref = np.empty((self.nsnap, 2, len(part.js)))
            for k, state in enumerate(self.states):
                for f, fields in enumerate(([state.a], list(state.u))):
                    power = [np.abs(np.fft.fftn(c)) ** 2 for c in fields]
                    for i, j in enumerate(part.js):
                        m2 = part.multiplier(j) ** 2
                        ref[k, f, i] = math.sqrt(scale * sum(float(np.sum(m2 * pw)) for pw in power))
            self._reference = ref
        return self._reference

    def besov_reference(self, shells: np.ndarray, spec: BesovSpec) -> float:
        """r = 1 sum of 2^(j s) times a per-shell value over a low or high shell range."""
        js = np.array(self.partition.js)
        sel = js <= spec.j1 if spec.flavor == "low" else js >= spec.j1 - 1
        return float(np.sum(2.0 ** (js[sel] * spec.s) * shells[sel]))

    def check(self, out) -> list:
        problems = []
        ref = self.shell_reference()

        def compare(op, what, got, want):
            if not abs(got - want) <= self.rtol * abs(want):
                problems.append((op, f"{what}: {got!r} vs Parseval {want!r}"))

        for k, ((grid, state), row) in enumerate(zip(out["read"], out["rows"])):
            original = self.states[k]
            if (grid.modes != self.grid.modes or grid.lengths != self.grid.lengths
                    or state.t != original.t or not np.array_equal(state.a, original.a)
                    or not np.array_equal(state.u, original.u)):
                problems.append((k, f"snapshot {k} read back differs from what was written"))
            for key, (field, spec) in self.energy_specs.items():
                compare(k, f"snapshot {k} energy {key}", row["energy"].components[key],
                        self.besov_reference(ref[k, field], spec))
            for spec, got in zip(self.pair, row["pair"]):
                compare(k, f"snapshot {k} Besov {spec.flavor}", got,
                        self.besov_reference(ref[k, 0], spec))
            if not all(np.isfinite(row["lyapunov"])):
                problems.append((k, f"snapshot {k} has a non-finite Lyapunov block"))
        times = np.array([state.t for state in self.states])
        for (rho, spec), got in zip(self.chemin_lerner, out["chemin_lerner"]):
            series = ref[:, 0, :]
            tnorm = series.max(axis=0) if rho == np.inf else np.trapezoid(series, times, axis=0)
            compare(None, f"Chemin-Lerner {spec.flavor}", got, self.besov_reference(tnorm, spec))
        for k, pair in enumerate(out["residuals"]):
            if not all(np.isfinite(pair)):
                problems.append((k + 1, f"non-finite residual on the triplet centred at {k + 1}"))
        return problems


WORKLOADS = {cls.name: cls for cls in (Decay1D, Simulate2D, Analyze2D)}
