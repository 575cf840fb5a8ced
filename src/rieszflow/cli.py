"""Command-line harness: presets, run orchestration, artifact emission.

Subcommands
-----------
simulate        integrate a preset initial state, emit snapshots + norms
linear-analyze  eigenvalue scans and asymptotic ratio tables
decay-verify    quadrature decay curves and fitted slopes
lp-inspect      partition-of-unity report and inequality bracket tables
sweep           repeat simulate along one parameter axis

Every run reads one INI config (see :mod:`rieszflow.config`), writes its
artifacts under ``--out``, and finishes with a ``manifest.json`` listing
each produced file with its sha256.  Outputs are bit-identical for
identical (config, seed): artifacts carry no timestamps and all floats
are printed with shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import (
    KINDS,
    SWEEP_AXES,
    ConfigError,
    ExperimentSpec,
    config_digest,
    get_bool,
    get_float,
    get_int,
    get_str,
    load_config,
    parse_float_list,
    parse_grid,
    parse_params,
    parse_preset,
    parse_schedule,
    parse_solver_config,
)
from .diagnostics import energy_functionals, fit_decay
from .grid import RieszParams, SpectralGrid, lp_norm, make_grid
from .littlewood_paley import (
    SHELL_INNER,
    SHELL_OUTER,
    BesovSpec,
    besov_norm,
    build_partition,
    dyadic_block,
    verify_bernstein,
    verify_wu_lower_bound,
)
from .snapshots import write_snapshot
from .solver import SolverConfig, integrate, perturbation_presets
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


def _manifest_listing(path: Path) -> set[str] | None:
    """File names a rieszflow manifest lists, or None if ``path`` is not one."""
    try:
        manifest = json.loads(path.read_text())
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
    previous run's manifest and the files it lists; those are deleted
    before this run writes, so a directory never mixes two runs.
    Anything else is refused and left untouched.  Each file is written
    under a temporary name in the directory and renamed into place, so
    a failed write never leaves a partial artifact under its own name.
    """

    def __init__(self, out_dir: str | Path, header: list[str]):
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir}: {exc}") from exc
        self._clear_previous_run()
        self.header = header
        self.created: list[Path] = []
        self._partial: Path | None = None

    def _clear_previous_run(self) -> None:
        try:
            present = {p.name for p in self.out_dir.iterdir()}
        except OSError as exc:
            raise ConfigError(f"cannot list output directory {self.out_dir}: {exc}") from exc
        if not present:
            return
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
        for name in sorted(stale) + [MANIFEST]:
            try:
                (self.out_dir / name).unlink()
            except OSError as exc:
                raise ConfigError(
                    f"cannot remove {name} of the previous run in {self.out_dir}: {exc}"
                ) from exc

    def _replace_into(self, name: str, writer_fn) -> Path:
        """Run ``writer_fn`` on a temporary path in the directory, then rename it to ``name``."""
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

    def write_csv(self, name: str, columns: list[str], rows) -> Path:
        def write(path: Path) -> None:
            with open(path, "w") as fh:
                for line in self.header:
                    fh.write(f"# {line}\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")

        return self.write_binary(name, write)

    def write_ndjson(self, name: str, records) -> Path:
        def write(path: Path) -> None:
            with open(path, "w") as fh:
                fh.write(json.dumps({"header": dict(kv.split(": ", 1) for kv in self.header)},
                                    sort_keys=True) + "\n")
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

    def finalize(self, spec: ExperimentSpec, digest: str) -> Path:
        entries = []
        for path in sorted(self.created):
            data = path.read_bytes()
            entries.append({
                "path": path.name,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            })
        manifest = {
            "experiment": spec.name,
            "kind": spec.kind,
            "seed": spec.seed,
            "config_sha256": digest,
            "files": entries,
        }

        def write(path: Path) -> None:
            with open(path, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")

        return self._replace_into(MANIFEST, write)


def _grid_descriptor(grid: SpectralGrid | None) -> str:
    if grid is None:
        return "none (continuum analysis)"
    L = "x".join(repr(v) for v in grid.lengths)
    N = "x".join(str(n) for n in grid.modes)
    return f"d={grid.dim} L={L} N={N}"


def _header(spec: ExperimentSpec, digest: str, grid: SpectralGrid | None) -> list[str]:
    return [
        f"experiment: {spec.name}",
        f"kind: {spec.kind}",
        f"config-sha256: {digest}",
        f"seed: {spec.seed}",
        f"grid: {_grid_descriptor(grid)}",
    ]


def _smooth_sample(grid: SpectralGrid, rng: np.random.Generator, decay: float = 4.0) -> np.ndarray:
    """Mean-zero random field with analytic spectral decay, Nyquist-free."""
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec *= np.exp(-((grid.xi_norm / decay) ** 2))
    spec[~grid.dealias_mask(1.0)] = 0.0
    f = np.fft.ifftn(spec).real
    return f - float(f.mean())


# ---------------------------------------------------------------------------
# simulate


def _make_initial(grid: SpectralGrid, preset: dict, seed: int):
    return perturbation_presets(
        preset["kind"], preset["amplitude"], grid,
        sigma1=preset["sigma1"], cutoff=preset["cutoff"],
        mode=preset["mode"], width=preset["width"], seed=seed,
    )


def _besov_specs(cp, dim: int) -> tuple[int, list[BesovSpec]]:
    j1 = get_int(cp, "diagnostics", "j1", 0)
    raw = get_str(cp, "diagnostics", "besov", "")
    specs = []
    if raw:
        for tok in raw.split(","):
            parts = [s.strip() for s in tok.split(":")]
            if len(parts) != 4:
                raise ConfigError(f"[diagnostics] besov entry {tok!r}; expected s:p:r:flavor")
            try:
                specs.append(BesovSpec(float(parts[0]), float(parts[1]), float(parts[2]),
                                       parts[3], j1))
            except ValueError as exc:
                raise ConfigError(f"[diagnostics] besov entry {tok!r}: {exc}") from exc
    else:
        specs = [
            BesovSpec(dim / 2.0 - 1.0, 2, 1, "low", j1),
            BesovSpec(dim / 2.0 + 1.0, 2, 1, "high", j1),
        ]
    return j1, specs


def cmd_simulate(spec: ExperimentSpec, cp, writer: ArtifactWriter) -> None:
    grid = parse_grid(cp)
    params = parse_params(cp, grid.dim)
    solver_cfg = parse_solver_config(cp)
    preset = parse_preset(cp)
    state0 = _make_initial(grid, preset, spec.seed)

    traj = integrate(grid, state0, params, solver_cfg)

    for i, st in enumerate(traj.snapshots):
        writer.write_binary(f"snap_{i:04d}.bin", lambda p, s=st: write_snapshot(p, grid, s))

    j1, specs = _besov_specs(cp, grid.dim)
    partition = build_partition(grid)
    want_energy = get_bool(cp, "diagnostics", "energy", True)

    norm_rows = []
    records = []
    for st, diag in zip(traj.snapshots, traj.diagnostics):
        for name in ("l2_a", "l2_u", "min_density", "mean_a"):
            records.append({"t": st.t, "name": name, "value": diag[name]})
        if want_energy:
            rec = energy_functionals(grid, st, partition, params, j1=j1)
            records.append({"t": st.t, "name": "energy", "value": rec.energy})
            records.append({"t": st.t, "name": "dissipation", "value": rec.dissipation})
            for key in sorted(rec.components):
                records.append({"t": st.t, "name": f"energy_{key}", "value": rec.components[key]})
        for bs in specs:
            norm_rows.append((st.t, bs.s, bs.p, bs.r, bs.flavor, j1,
                              besov_norm(partition, st.a, bs)))
    writer.write_ndjson("diagnostics.ndjson", records)
    writer.write_csv("norms.csv", ["t", "s", "p", "r", "flavor", "j1", "value"], norm_rows)

    summary = [
        ("status", traj.status),
        ("abort_time", "" if traj.abort_time is None else repr(traj.abort_time)),
        ("final_t", repr(traj.snapshots[-1].t) if traj.snapshots else ""),
        ("snapshots", len(traj.snapshots)),
        ("integrator", solver_cfg.integrator),
    ]
    writer.write_csv("summary.csv", ["key", "value"], summary)


# ---------------------------------------------------------------------------
# linear-analyze


def cmd_linear_analyze(spec: ExperimentSpec, cp, writer: ArtifactWriter) -> None:
    raw = get_str(cp, "spectrum", "s_star", "0.25,0.5,0.75")
    s_values = parse_float_list(raw, what="[spectrum] s_star")
    xi_min = get_float(cp, "spectrum", "xi_min", 1e-4)
    xi_max = get_float(cp, "spectrum", "xi_max", 1e4)
    points = get_int(cp, "spectrum", "points", 200)
    decades = get_int(cp, "spectrum", "decades", 6)
    if not (0 < xi_min < xi_max) or points < 2:
        raise ConfigError("[spectrum] needs 0 < xi_min < xi_max and points >= 2")

    xi = np.geomspace(xi_min, xi_max, points)
    for s in s_values:
        rows = []
        for x in xi:
            pair = eigenvalues(float(x), s)
            rows.append((float(x), pair.lambda1.real, pair.lambda1.imag,
                         pair.lambda2.real, pair.lambda2.imag, int(pair.degenerate)))
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


def cmd_decay_verify(spec: ExperimentSpec, cp, writer: ArtifactWriter) -> None:
    s_values = parse_float_list(get_str(cp, "decay", "s_star", "0.25,0.75"),
                                what="[decay] s_star")
    dim = get_int(cp, "decay", "dim", 1)
    cutoff = get_float(cp, "decay", "cutoff", 1.0)
    times = parse_schedule(get_str(cp, "decay", "times", "logspace:100,10000,25"),
                           what="[decay] times")
    raw_pairs = get_str(cp, "decay", "pairs", f"{-dim / 2.0:g}:0")
    pairs = []
    for tok in raw_pairs.split(","):
        parts = [s.strip() for s in tok.split(":")]
        if len(parts) != 2:
            raise ConfigError(f"[decay] pairs entry {tok!r}; expected sigma1:sigma")
        pairs.append((float(parts[0]), float(parts[1])))

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


def cmd_lp_inspect(spec: ExperimentSpec, cp, writer: ArtifactWriter) -> None:
    grid = parse_grid(cp)
    samples = get_int(cp, "lp", "samples", 20)
    alpha_list = parse_float_list(get_str(cp, "lp", "alpha_w", "0.25,0.75"),
                                  what="[lp] alpha_w")
    if samples < 1:
        raise ConfigError("[lp] samples must be >= 1")
    partition = build_partition(grid)
    rng = np.random.default_rng(spec.seed)

    nonzero = grid.xi_norm > 0
    pou = float(np.max(np.abs(partition.partition_sum()[nonzero] - 1.0)))

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


def _run_child(axis: str, value, cp, spec: ExperimentSpec, index: int) -> dict:
    grid = parse_grid(cp)
    preset = parse_preset(cp)
    solver_cfg = parse_solver_config(cp)
    j1 = get_int(cp, "diagnostics", "j1", 0)

    if axis == "grid":
        n = int(value)
        grid = make_grid(grid.dim, grid.lengths, (n,) * grid.dim)
    elif axis == "dt":
        solver_cfg = SolverConfig(
            dt=float(value), t_end=solver_cfg.t_end, integrator=solver_cfg.integrator,
            dealias=solver_cfg.dealias, snapshot_times=solver_cfg.snapshot_times,
            positivity_floor=solver_cfg.positivity_floor, linear_only=solver_cfg.linear_only,
        )
    elif axis == "amplitude":
        preset = dict(preset, amplitude=float(value))
        if not (0.0 < preset["amplitude"] < 1.0):
            raise ValueError(f"amplitude {value} outside (0, 1)")
    elif axis == "J1":
        j1 = int(value)

    if axis == "s_star":
        params = RieszParams.from_s_star(
            grid.dim, float(value),
            lam=get_float(cp, "params", "lam", 1.0),
            kappa=get_float(cp, "params", "kappa", 1.0),
            rho_bar=get_float(cp, "params", "rho_bar", 1.0),
        )
    else:
        params = parse_params(cp, grid.dim)

    seed = _child_seed(spec.seed, index)
    state0 = _make_initial(grid, preset, seed)
    traj = integrate(grid, state0, params, solver_cfg)
    final = traj.snapshots[-1] if traj.snapshots else None
    row = {
        "value": value,
        "seed": seed,
        "status": traj.status,
        "final_t": None if final is None else final.t,
        "l2_a": None if final is None else lp_norm(grid, final.a, 2),
        "l2_u": None if final is None else lp_norm(grid, final.u, 2),
        "min_density": None if final is None else 1.0 + float(np.min(final.a)),
    }
    if axis == "J1" and final is not None:
        partition = build_partition(grid)
        rec = energy_functionals(grid, final, partition, params, j1=j1)
        row.update({f"E_{k}": v for k, v in sorted(rec.components.items())})
    if axis == "dt":
        row["_final_a"] = None if final is None else final.a
    return row


def cmd_sweep(spec: ExperimentSpec, cp, writer: ArtifactWriter, workers: int) -> None:
    axis = get_str(cp, "sweep", "axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"[sweep] axis = {axis!r}; expected one of {SWEEP_AXES}")
    values = parse_float_list(get_str(cp, "sweep", "values"), what="[sweep] values")
    if axis in ("grid", "J1"):
        values = tuple(int(v) for v in values)

    def child(iv):
        index, value = iv
        try:
            return _run_child(axis, value, cp, spec, index)
        except Exception as exc:
            return {"value": value, "seed": _child_seed(spec.seed, index),
                    "status": f"error: {exc}", "final_t": None,
                    "l2_a": None, "l2_u": None, "min_density": None}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(child, enumerate(values)))
    else:
        rows = [child(iv) for iv in enumerate(values)]

    extra: list[str] = []
    if axis == "J1":
        extra = sorted({k for row in rows for k in row if k.startswith("E_")})
    if axis == "dt":
        finest = min(
            (row for row in rows if row.get("_final_a") is not None),
            key=lambda row: row["value"],
            default=None,
        )
        errs = []
        for row in rows:
            if finest is None or row.get("_final_a") is None or row is finest:
                errs.append(None)
            else:
                diff = row["_final_a"] - finest["_final_a"]
                errs.append(float(np.sqrt(np.mean(diff**2))))
        for row, err in zip(rows, errs):
            row["err_vs_finest"] = err
        ordered = sorted(
            (row for row in rows if row.get("err_vs_finest")),
            key=lambda row: row["value"], reverse=True,
        )
        for row in rows:
            row["observed_order"] = None
        for coarse, fine in zip(ordered, ordered[1:]):
            ratio = coarse["value"] / fine["value"]
            if ratio > 1 and coarse["err_vs_finest"] > 0 and fine["err_vs_finest"] > 0:
                fine["observed_order"] = float(
                    np.log(coarse["err_vs_finest"] / fine["err_vs_finest"]) / np.log(ratio)
                )
        extra = ["err_vs_finest", "observed_order"]

    columns = ["value", "seed", "status", "final_t", "l2_a", "l2_u", "min_density"] + extra
    table = []
    for row in rows:
        table.append(tuple("" if row.get(c) is None else row.get(c) for c in columns))
    writer.write_csv("sweep.csv", columns, table)


# ---------------------------------------------------------------------------
# entry point


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> int:
    """Execute one experiment; returns a process exit status."""
    try:
        cp = load_config(spec.config_path)
        digest = config_digest(spec.config_path)
        declared = get_str(cp, "experiment", "kind", spec.kind)
        if declared != spec.kind:
            raise ConfigError(
                f"config declares kind = {declared!r} but the {spec.kind!r} subcommand was invoked"
            )
        grid = parse_grid(cp) if cp.has_section("grid") else None
        writer = ArtifactWriter(spec.out_dir, _header(spec, digest, grid))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if spec.kind == "simulate":
            cmd_simulate(spec, cp, writer)
        elif spec.kind == "linear-analyze":
            cmd_linear_analyze(spec, cp, writer)
        elif spec.kind == "decay-verify":
            cmd_decay_verify(spec, cp, writer)
        elif spec.kind == "lp-inspect":
            cmd_lp_inspect(spec, cp, writer)
        else:
            cmd_sweep(spec, cp, writer, workers)
        writer.finalize(spec, digest)
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
                       help="seed for randomized pieces (default: [experiment] seed or 0)")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent child runs (sweep only)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cp = load_config(args.config)
        seed = args.seed
        if seed is None:
            seed = get_int(cp, "experiment", "seed", 0)
        name = get_str(cp, "experiment", "name", Path(args.config).stem)
        spec = ExperimentSpec(name=name, kind=args.kind, config_path=args.config,
                              out_dir=args.out, seed=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return 2
    return run_experiment(spec, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
