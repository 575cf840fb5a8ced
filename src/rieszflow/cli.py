"""Command-line harness: run orchestration, artifact emission.

Subcommands
-----------
simulate        integrate a preset initial state, emit snapshots + norms
linear-analyze  eigenvalue scans and asymptotic ratio tables
decay-verify    quadrature decay curves and fitted slopes
lp-inspect      partition-of-unity report and inequality bracket tables
sweep           repeat simulate, each child overriding one config key

Every run reads one INI config (see :mod:`rieszflow.config`) once, writes
its artifacts under ``--out``, and finishes with a ``manifest.json``
listing each produced file with its sha256.  Outputs are bit-identical
for identical (config, seed): artifacts carry no timestamps, all floats
are printed with shortest round-trip repr, and text is UTF-8 in any locale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import (
    KEYS,
    KINDS,
    SWEEP_AXES,
    ConfigError,
    check_keys,
    get,
    override,
    parse_grid,
    read_config,
    resolve_run,
)
from .diagnostics import _energy_record, energy_functionals, fit_decay
from .grid import SpectralGrid, lp_norm
from .littlewood_paley import (  # noqa: F401  (besov_norm: kept importable here; bench/spans.py wraps it)
    SHELL_INNER,
    SHELL_OUTER,
    BesovSpec,
    ShellNorms,
    besov_norm,
    build_partition,
    dyadic_block,
    verify_bernstein,
    verify_wu_lower_bound,
)
from .snapshots import write_snapshot
from .solver import integrate
from .spectrum import asymptotic_check, dissipative_constant, eigenvalues, linear_decay_quadrature

__all__ = ["main", "run_experiment"]


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


MANIFEST = "manifest.json"


class Provenance(NamedTuple):
    """What every artifact of a run names: experiment, kind, seed, config digest and grid."""

    name: str
    kind: str
    seed: int
    digest: str
    grid: SpectralGrid | None


def _manifest_listing(path: Path) -> set[str] | None:
    """File names a rieszflow manifest lists, or None if ``path`` is not one."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        names = {entry["path"] for entry in manifest["files"]}
        if not {"experiment", "kind", "seed", "config_sha256"} <= set(manifest):
            return None
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if not all(isinstance(n, str) and n == Path(n).name and n not in ("", ".", "..", MANIFEST)
               for n in names):
        return None
    return names


class ArtifactWriter:
    """Accumulates run artifacts and can either finalize or roll back.

    The output directory must be missing, empty, or hold exactly a
    previous run's manifest and the files it lists; anything else is
    refused and left untouched.  The previous run's files are deleted
    at this run's first write, so a directory never mixes two runs and
    a run refused before it writes leaves the previous one as it was.
    Each file is written under a temporary name in the directory and
    renamed into place, so a failed write never leaves a partial
    artifact under its own name.
    """

    def __init__(self, out_dir: str | Path, run: Provenance):
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir}: {exc}") from exc
        self._previous_run = self._find_previous_run()
        self.run = run
        self.created: list[Path] = []
        self._partial: Path | None = None

    def _find_previous_run(self) -> list[str]:
        """The previous run's files, manifest last; refuses a directory that holds anything else."""
        try:
            present = {p.name for p in self.out_dir.iterdir()}
        except OSError as exc:
            raise ConfigError(f"cannot list output directory {self.out_dir}: {exc}") from exc
        if not present:
            return []
        listed = _manifest_listing(self.out_dir / MANIFEST) if MANIFEST in present else None
        if listed is None:
            raise ConfigError(
                f"output directory {self.out_dir} is not empty and holds no rieszflow "
                f"{MANIFEST}; refusing to mix runs"
            )
        stale = {name for name in listed if (self.out_dir / name).is_file()}
        stray = present - stale - {MANIFEST}
        if stray:
            raise ConfigError(
                f"output directory {self.out_dir} holds files its {MANIFEST} does not list "
                f"({', '.join(sorted(stray))}); refusing to mix runs"
            )
        return sorted(stale) + [MANIFEST]

    def _clear_previous_run(self) -> None:
        for name in self._previous_run:
            try:
                (self.out_dir / name).unlink()
            except OSError as exc:
                raise ConfigError(
                    f"cannot remove {name} of the previous run in {self.out_dir}: {exc}"
                ) from exc
        self._previous_run = []

    def _replace_into(self, name: str, writer_fn) -> Path:
        """Run ``writer_fn`` on a temporary path in the directory, then rename it to ``name``."""
        self._clear_previous_run()
        path = self.out_dir / name
        self._partial = self.out_dir / f".{name}.partial"
        writer_fn(self._partial)
        os.replace(self._partial, path)
        self._partial = None
        return path

    def write_binary(self, name: str, writer_fn) -> Path:
        """Write artifact ``name`` with ``writer_fn(path)``; every artifact goes through here."""
        path = self._replace_into(name, writer_fn)
        self.created.append(path)
        return path

    def _header(self) -> dict[str, str]:
        """The provenance each CSV and ndjson artifact opens with, in the CSV's line order."""
        run = self.run
        return {"experiment": run.name, "kind": run.kind, "config-sha256": run.digest,
                "seed": str(run.seed), "grid": _grid_descriptor(run.grid)}

    def write_csv(self, name: str, columns: list[str], rows) -> Path:
        def write(path: Path) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                for key, value in self._header().items():
                    fh.write(f"# {key}: {value}\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")

        return self.write_binary(name, write)

    def write_ndjson(self, name: str, records) -> Path:
        def write(path: Path) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"header": self._header()}, sort_keys=True) + "\n")
                for rec in records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")

        return self.write_binary(name, write)

    def rollback(self) -> None:
        """Remove every file this run wrote, and the temporary file of a write cut short."""
        for path in filter(None, [*self.created, self._partial]):
            try:
                path.unlink()
            except OSError:
                pass
        self.created.clear()
        self._partial = None

    def finalize(self) -> Path:
        entries = []
        for path in sorted(self.created):
            data = path.read_bytes()
            entries.append({
                "path": path.name,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            })
        run = self.run
        manifest = {"experiment": run.name, "kind": run.kind, "seed": run.seed,
                    "config_sha256": run.digest, "files": entries}

        def write(path: Path) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")

        return self._replace_into(MANIFEST, write)


def _grid_descriptor(grid: SpectralGrid | None) -> str:
    if grid is None:
        return "none (continuum analysis)"
    L = "x".join(repr(v) for v in grid.lengths)
    N = "x".join(str(n) for n in grid.modes)
    return f"d={grid.dim} L={L} N={N}"


def _smooth_sample(grid: SpectralGrid, rng: np.random.Generator, decay: float = 4.0) -> np.ndarray:
    """Mean-zero random field with analytic spectral decay, Nyquist-free, drawn on the half lattice."""
    shape = grid.half_xi_norm.shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec *= np.exp(-((grid.half_xi_norm / decay) ** 2))
    # the Nyquist planes and the zero mode
    spec[grid.half_nyquist_region] = 0.0
    return grid.irfft(spec)


# ---------------------------------------------------------------------------
# simulate


def _partition_and_j1(cp, grid: SpectralGrid, needed: bool = True):
    """Partition of ``grid`` and ``[diagnostics] j1``; if ``needed``, j1 must be one of its shells."""
    partition, j1 = build_partition(grid), get(cp, "diagnostics", "j1")
    if needed:
        try:
            partition.check_j(j1)
        except ValueError as exc:
            raise ConfigError(f"[diagnostics] j1 = {j1}: {exc}") from exc
    return partition, j1


def cmd_simulate(cp, grid: SpectralGrid, seed: int, writer: ArtifactWriter, workers: int) -> None:
    """Write each snapshot and its diagnostics as the run reaches it; no state is kept."""
    params, solver_cfg, state0 = resolve_run(cp, grid, seed)
    want_energy = get(cp, "diagnostics", "energy")
    specs = get(cp, "diagnostics", "besov") or [
        BesovSpec(grid.dim / 2.0 - 1.0, 2, 1, "low"),
        BesovSpec(grid.dim / 2.0 + 1.0, 2, 1, "high"),
    ]
    partition, j1 = _partition_and_j1(
        cp, grid, needed=want_energy or any(bs.flavor != "full" for bs in specs))
    specs = [replace(bs, j1=j1) for bs in specs]

    times = []
    norm_rows = []
    records = []

    def sink(st, diag, spectrum) -> None:
        writer.write_binary(f"snap_{len(times):04d}.bin", lambda p: write_snapshot(p, grid, st))
        t = st.t
        times.append(t)
        # (t, name, value) triples: a tuple takes a third of a dict's bytes
        records.extend((t, name, diag[name]) for name in ("l2_a", "l2_u", "min_density", "mean_a"))
        # the solver's spectra of a and u: the energy and every Besov spec read a's shell norms
        a_shells = ShellNorms(partition, spectrum[0])
        if want_energy:
            rec = _energy_record(a_shells, spectrum[1:], st.a, st.u, t, params, j1=j1)
            records.extend([(t, "energy", rec.energy), (t, "dissipation", rec.dissipation)])
            records.extend((t, f"energy_{key}", rec.components[key]) for key in sorted(rec.components))
        for bs in specs:
            norm_rows.append((t, bs.s, bs.p, bs.r, bs.flavor, j1, a_shells.besov(bs)))

    traj = integrate(grid, state0, params, solver_cfg, sink=sink)
    writer.write_ndjson("diagnostics.ndjson",
                        ({"t": t, "name": name, "value": v} for t, name, v in records))
    writer.write_csv("norms.csv", ["t", "s", "p", "r", "flavor", "j1", "value"], norm_rows)

    summary = [
        ("status", traj.status),
        ("abort_time", "" if traj.abort_time is None else repr(traj.abort_time)),
        ("final_t", repr(times[-1]) if times else ""),
        ("snapshots", len(times)),
        ("integrator", solver_cfg.integrator),
    ]
    writer.write_csv("summary.csv", ["key", "value"], summary)


# ---------------------------------------------------------------------------
# linear-analyze


def cmd_linear_analyze(cp, grid, seed, writer: ArtifactWriter, workers) -> None:
    s_values, xi_min, xi_max, points, decades = (
        get(cp, "spectrum", key) for key in ("s_star", "xi_min", "xi_max", "points", "decades"))
    if not (0 < xi_min < xi_max):
        raise ConfigError("[spectrum] needs 0 < xi_min < xi_max")

    xi = np.geomspace(xi_min, xi_max, points)
    for s in s_values:
        try:
            pairs = [eigenvalues(float(x), s) for x in xi]
        except ValueError as exc:
            raise ConfigError(f"[spectrum] s_star = {s}: {exc}") from exc
        rows = [(float(x), pair.lambda1.real, pair.lambda1.imag,
                 pair.lambda2.real, pair.lambda2.imag, int(pair.degenerate))
                for x, pair in zip(xi, pairs)]
        writer.write_csv(f"eigen_scan_s{s:g}.csv",
                         ["xi", "re1", "im1", "re2", "im2", "degenerate"], rows)

    ratio_rows = []
    for s in s_values:
        for regime in ("low", "high"):
            table = asymptotic_check(s, regime, decades=decades)
            names = [k for k in sorted(table) if k != "xi"]
            for i, x in enumerate(table["xi"]):
                for name in names:
                    ratio_rows.append((s, regime, float(x), name, float(table[name][i])))
    writer.write_csv("asymptotics.csv", ["s_star", "regime", "xi", "ratio", "value"], ratio_rows)

    c_rows = [(s, dissipative_constant(s)[0]) for s in s_values]
    writer.write_csv("dissipative_constant.csv", ["s_star", "c_fit"], c_rows)


# ---------------------------------------------------------------------------
# decay-verify


def cmd_decay_verify(cp, grid, seed, writer: ArtifactWriter, workers) -> None:
    s_values, dim, cutoff, times = (
        get(cp, "decay", key) for key in ("s_star", "dim", "cutoff", "times"))
    pairs = get(cp, "decay", "pairs") or [(-dim / 2.0, 0.0)]

    t = np.asarray(times, dtype=float)
    fit_rows = []
    for s in s_values:
        for i, (sigma1, sigma) in enumerate(pairs):
            try:
                out = linear_decay_quadrature(s, sigma, sigma1, t, dim=dim, cutoff=cutoff)
            except ValueError as exc:
                raise ConfigError(f"[decay] pair {sigma1}:{sigma} at s_star={s}: {exc}") from exc
            rows = list(zip(out["t"], out["norm"], out["reference"]))
            writer.write_csv(f"decay_s{s:g}_pair{i}.csv", ["t", "norm", "reference"], rows)
            predicted = -(sigma - sigma1) / (2.0 * s)
            window = (float(t[0]), float(t[-1]))
            fit = fit_decay(out["t"], out["norm"], predicted, window)
            ref_fit = fit_decay(out["t"], out["reference"], predicted, window)
            fit_rows.append((s, sigma1, sigma, predicted, fit.slope, fit.rel_err,
                             fit.r_squared, ref_fit.slope,
                             abs(fit.slope - ref_fit.slope) / abs(ref_fit.slope)))
    writer.write_csv(
        "fits.csv",
        ["s_star", "sigma1", "sigma", "predicted", "slope", "rel_err",
         "r_squared", "reference_slope", "vs_reference"],
        fit_rows,
    )


# ---------------------------------------------------------------------------
# lp-inspect


def cmd_lp_inspect(cp, grid: SpectralGrid, seed: int, writer: ArtifactWriter, workers: int) -> None:
    samples, alpha_list = get(cp, "lp", "samples"), get(cp, "lp", "alpha_w")
    partition = build_partition(grid)
    rng = np.random.default_rng(seed)

    # partition_sum() on the half lattice, in its order of shells
    total = np.zeros(grid.half_xi_norm.shape)
    for j in partition.js:
        total += partition.half_shell(j)
    pou = float(np.max(np.abs(total[grid.half_xi_norm > 0] - 1.0)))

    quasi = 0.0
    for _ in range(samples):
        f = _smooth_sample(grid, rng)
        scale = lp_norm(grid, f, 2)
        for j in partition.js:
            block = dyadic_block(partition, f, j)
            for k in partition.js:
                if abs(j - k) >= 2:
                    quasi = max(quasi, lp_norm(grid, dyadic_block(partition, block, k), 2) / scale)

    report = [
        ("j_min", partition.j_min),
        ("j_max", partition.j_max),
        ("shells", partition.j_max - partition.j_min + 1),
        ("partition_residue", repr(pou)),
        ("quasi_orthogonality", repr(quasi)),
        ("samples", samples),
    ]
    writer.write_csv("partition_report.csv", ["check", "value"], report)

    js = sorted({partition.j_min + 1, (partition.j_min + partition.j_max) // 2,
                 partition.j_max - 1})
    bern_rows = []
    wu_rows = []
    for sample in range(samples):
        f = _smooth_sample(grid, rng)
        for j in js:
            block = dyadic_block(partition, f, j)
            if lp_norm(grid, block, 2) == 0.0:
                continue
            for k in (0.5, 1.0):
                lower, upper = SHELL_INNER**k, SHELL_OUTER**k
                ratio = verify_bernstein(partition, block, j, k, 2, 2)
                bern_rows.append((sample, j, k, 2, 2, ratio, lower, upper,
                                  int(lower <= ratio <= upper)))
            for aw in alpha_list:
                lo, hi = SHELL_INNER ** (2 * aw), SHELL_OUTER ** (2 * aw)
                ratio = verify_wu_lower_bound(partition, block, j, 2, aw)
                wu_rows.append((sample, j, 2, aw, ratio, lo, hi, int(lo <= ratio <= hi)))
            ratio4 = verify_wu_lower_bound(partition, block, j, 4, 0.5)
            wu_rows.append((sample, j, 4, 0.5, ratio4, 0.0, np.inf, int(ratio4 > 0)))
    writer.write_csv("bernstein.csv",
                     ["sample", "j", "k", "p", "q", "ratio", "lower", "upper", "pass"],
                     bern_rows)
    writer.write_csv("wu_bracket.csv",
                     ["sample", "j", "p", "alpha_w", "ratio", "lower", "upper", "pass"],
                     wu_rows)


# ---------------------------------------------------------------------------
# sweep


def _child_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _run_child(cp, grid: SpectralGrid, seed: int, energy: bool) -> dict:
    """Run one child config on ``grid``; the row of its final state, with energy components if asked."""
    params, solver_cfg, state0 = resolve_run(cp, grid, seed)
    if energy:
        partition, j1 = _partition_and_j1(cp, grid)
    last = {}
    traj = integrate(grid, state0, params, solver_cfg,
                     sink=lambda st, diag, spectrum: last.update(final=st, diag=diag))
    row = {"status": traj.status}
    if last:
        final, diag = last["final"], last["diag"]
        row.update(final_t=final.t, l2_a=diag["l2_a"], l2_u=diag["l2_u"],
                   min_density=diag["min_density"], _final_a=final.a)
        if energy:
            rec = energy_functionals(grid, final, partition, params, j1=j1)
            row.update({f"E_{k}": v for k, v in sorted(rec.components.items())})
    return row


def cmd_sweep(cp, grid: SpectralGrid, seed: int, writer: ArtifactWriter, workers: int) -> None:
    axis = get(cp, "sweep", "axis")
    section, key, parse_values = SWEEP_AXES[axis]
    values = parse_values(get(cp, "sweep", "values"), what="[sweep] values")
    resolve_run(cp, grid, seed)  # a broken base config stops the sweep before any child runs

    def child(iv):
        index, value = iv
        row = {"value": value, "seed": _child_seed(seed, index)}
        try:
            child_cp = override(cp, section, key, repr(value))
            # only the grid axis changes [grid]; every other child runs on the header's grid
            child_grid = parse_grid(child_cp) if section == "grid" else grid
            row.update(_run_child(child_cp, child_grid, row["seed"], energy=axis == "J1"))
        except Exception as exc:
            row["status"] = f"error: {exc}"
        return row

    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(child, enumerate(values)))

    extra: list[str] = []
    if axis == "J1":
        extra = sorted({k for row in rows for k in row if k.startswith("E_")})
    if axis == "dt":
        extra = ["err_vs_finest", "observed_order"]
        done = [row for row in rows if "_final_a" in row]
        finest = min(done, key=lambda row: row["value"], default=None)
        for row in done:
            if row is not finest:
                diff = row["_final_a"] - finest["_final_a"]
                row["err_vs_finest"] = float(np.sqrt(np.mean(diff**2)))
        ordered = sorted(
            (row for row in done if row.get("err_vs_finest")),
            key=lambda row: row["value"], reverse=True,
        )
        for coarse, fine in zip(ordered, ordered[1:]):
            ratio = coarse["value"] / fine["value"]
            if ratio > 1 and coarse["err_vs_finest"] > 0 and fine["err_vs_finest"] > 0:
                fine["observed_order"] = float(
                    np.log(coarse["err_vs_finest"] / fine["err_vs_finest"]) / np.log(ratio)
                )

    columns = ["value", "seed", "status", "final_t", "l2_a", "l2_u", "min_density"] + extra
    table = [tuple("" if row.get(c) is None else row[c] for c in columns) for row in rows]
    writer.write_csv("sweep.csv", columns, table)


# ---------------------------------------------------------------------------
# entry point


#: experiment kind -> (command, whether it runs on the [grid] section)
COMMANDS = {
    "simulate": (cmd_simulate, True),
    "linear-analyze": (cmd_linear_analyze, False),
    "decay-verify": (cmd_decay_verify, False),
    "lp-inspect": (cmd_lp_inspect, True),
    "sweep": (cmd_sweep, True),
}


def run_experiment(kind: str, config_path: str | Path, out_dir: str | Path, seed: int | None,
                   workers: int = 1) -> int:
    """Set up and execute one experiment; returns a process exit status.

    The config file is read once; ``seed`` None takes ``[experiment] seed``.
    """
    try:
        if kind not in COMMANDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {tuple(COMMANDS)}")
        cp, digest = read_config(config_path)
        seed = (get(cp, "experiment", "seed") if seed is None
                else KEYS["experiment", "seed"].parse(str(seed), what="--seed"))
        name = get(cp, "experiment", "name") or Path(config_path).stem
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        check_keys(cp, kind)
        declared = get(cp, "experiment", "kind")
        if declared not in (None, kind):
            raise ConfigError(
                f"config declares kind = {declared!r} but the {kind!r} subcommand was invoked"
            )
        command, gridded = COMMANDS[kind]
        grid = parse_grid(cp) if gridded or cp.has_section("grid") else None
        writer = ArtifactWriter(out_dir, Provenance(name, kind, seed, digest, grid))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        command(cp, grid, seed, writer, workers)
        writer.finalize()
    except ConfigError as exc:
        writer.rollback()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        writer.rollback()
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszflow",
        description="Pseudospectral runs and spectral analysis for damped "
                    "fluids with fractional interaction forces.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path to the INI run configuration")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized pieces (default: [experiment] seed)")
        if kind == "sweep":
            p.add_argument("--workers", type=int, default=1, help="concurrent child runs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run_experiment(args.kind, args.config, args.out, args.seed, getattr(args, "workers", 1))


if __name__ == "__main__":
    sys.exit(main())
