"""Config parsing and end-to-end harness runs on tiny workloads."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszflow
from rieszflow import cli, read_snapshot, write_snapshot
from rieszflow import grid as grid_module
from rieszflow.cli import main, run_experiment
from rieszflow.grid import RieszParams, lp_norm, make_grid
from rieszflow.solver import SolverConfig, integrate, perturbation_presets
from rieszflow.config import (
    ConfigError,
    ExperimentSpec,
    config_digest,
    get_bool,
    get_choice,
    get_float,
    load_config,
    parse_float_list,
    parse_grid,
    parse_params,
    parse_preset,
    parse_schedule,
    parse_solver_config,
)

SIMULATE_CFG = """\
[experiment]
kind = simulate
seed = 3

[grid]
dim = 1
length = 12.566370614359172
modes = 64

[params]
s_star = 0.5

[solver]
dt = 0.1
t_end = 1.0
snapshot_times = 0.0,0.5,1.0

[preset]
kind = smooth-bump
amplitude = 0.1
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv_file(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("# ")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestConfigHelpers:
    """Typed accessors and their diagnostics."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_malformed_file(self, tmp_path):
        path = write_cfg(tmp_path, "orphan value without section\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_inline_comments_stripped(self, tmp_path):
        path = write_cfg(tmp_path, "[solver]\ndt = 0.5  # half\n")
        cp = load_config(path)
        assert get_float(cp, "solver", "dt") == 0.5

    def test_error_names_section_and_key(self, tmp_path):
        path = write_cfg(tmp_path, "[solver]\ndt = fast\n")
        cp = load_config(path)
        with pytest.raises(ConfigError, match=r"\[solver\] dt = 'fast' is not a number"):
            get_float(cp, "solver", "dt")

    def test_missing_key_and_section(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[solver]\ndt = 1\n"))
        with pytest.raises(ConfigError, match="missing key 't_end'"):
            get_float(cp, "solver", "t_end")
        with pytest.raises(ConfigError, match=r"missing section \[grid\]"):
            get_float(cp, "grid", "dim")

    def test_bool_parsing(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[x]\na = yes\nb = OFF\nc = maybe\n"))
        assert get_bool(cp, "x", "a", False) is True
        assert get_bool(cp, "x", "b", True) is False
        assert get_bool(cp, "x", "missing", True) is True
        with pytest.raises(ConfigError, match="not a boolean"):
            get_bool(cp, "x", "c", False)

    def test_choice_rejection(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[solver]\nintegrator = rk45\n"))
        with pytest.raises(ConfigError, match="expected one of"):
            get_choice(cp, "solver", "integrator", ("ifrk4", "exp-euler"))

    def test_digest_is_sha256_of_bytes(self, tmp_path):
        path = write_cfg(tmp_path, SIMULATE_CFG)
        assert config_digest(path) == hashlib.sha256(SIMULATE_CFG.encode()).hexdigest()


class TestSchedules:
    """Schedule strings used for times and sweep values."""

    def test_linspace(self):
        assert parse_schedule("linspace:0,1,5") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_logspace(self):
        got = parse_schedule("logspace:1,100,3")
        assert got == pytest.approx((1.0, 10.0, 100.0))

    def test_comma_list(self):
        assert parse_schedule(" 1, 2.5 ,4 ") == (1.0, 2.5, 4.0)

    def test_errors(self):
        with pytest.raises(ConfigError, match="needs start,stop,count"):
            parse_schedule("linspace:0,1")
        with pytest.raises(ConfigError, match="positive integer"):
            parse_schedule("linspace:0,1,2.5")
        with pytest.raises(ConfigError, match="must be positive"):
            parse_schedule("logspace:0,1,4")
        with pytest.raises(ConfigError, match="empty"):
            parse_float_list("")
        with pytest.raises(ConfigError, match="bad"):
            parse_float_list("1,two,3")


class TestSectionParsers:
    """Grid, params, solver, and preset sections."""

    def test_grid_1d(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[grid]\ndim = 1\nlength = 6.0\nmodes = 32\n"))
        g = parse_grid(cp)
        assert g.dim == 1 and g.modes == (32,) and g.lengths == (6.0,)

    def test_grid_2d_promotes_single_values(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[grid]\ndim = 2\nlength = 6.0\nmodes = 16\n"))
        g = parse_grid(cp)
        assert g.modes == (16, 16) and g.lengths == (6.0, 6.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_modes_must_be_integers(self, tmp_path, dim):
        cp = load_config(write_cfg(tmp_path, f"[grid]\ndim = {dim}\nlength = 6.0\nmodes = 16.9\n"))
        with pytest.raises(ConfigError, match=r"\[grid\] modes = '16\.9'"):
            parse_grid(cp)

    def test_grid_errors_wrapped(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[grid]\ndim = 1\nlength = 6.0\nmodes = 9\n"))
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            parse_grid(cp)
        cp = load_config(write_cfg(tmp_path, "[grid]\ndim = 3\nlength = 6.0\nmodes = 8\n", "g3.ini"))
        with pytest.raises(ConfigError, match="dim must be 1 or 2"):
            parse_grid(cp)

    def test_params_exactly_one_spelling(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[params]\nalpha = 0.5\ns_star = 0.5\n"))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_params(cp, 1)
        cp = load_config(write_cfg(tmp_path, "[params]\nlam = 2.0\n", "p2.ini"))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_params(cp, 1)

    def test_params_range_wrapped(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[params]\nalpha = 5.0\n"))
        with pytest.raises(ConfigError, match=r"\[params\]"):
            parse_params(cp, 1)

    def test_params_coefficients(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[params]\ns_star = 0.25\nkappa = 2.0\n"))
        p = parse_params(cp, 2)
        assert p.s_star == pytest.approx(0.25) and p.kappa == 2.0 and p.lam == 1.0

    def test_solver_defaults(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[solver]\ndt = 0.1\nt_end = 2.0\n"))
        cfg = parse_solver_config(cp)
        assert cfg.integrator == "ifrk4"
        assert cfg.snapshot_times == (2.0,)
        assert cfg.dealias == pytest.approx(2.0 / 3.0)

    def test_solver_errors_wrapped(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[solver]\ndt = -1\nt_end = 2.0\n"))
        with pytest.raises(ConfigError, match=r"\[solver\]"):
            parse_solver_config(cp)

    def test_preset_validation(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[preset]\nkind = smooth-bump\namplitude = 1.2\n"))
        with pytest.raises(ConfigError, match="amplitude"):
            parse_preset(cp)

    def test_experiment_spec_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            ExperimentSpec(name="x", kind="render", config_path="c", out_dir="o", seed=0)
        with pytest.raises(ConfigError, match="seed"):
            ExperimentSpec(name="x", kind="simulate", config_path="c", out_dir="o", seed=-1)


def run_cli(args):
    return main([str(a) for a in args])


class TestSimulateCommand:
    """End-to-end simulate runs."""

    def test_artifacts_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["config_sha256"] == config_digest(cfg)
        names = [e["path"] for e in manifest["files"]]
        assert "summary.csv" in names and "norms.csv" in names
        assert "diagnostics.ndjson" in names
        assert sum(n.startswith("snap_") for n in names) == 3
        for entry in manifest["files"]:
            data = (out / entry["path"]).read_bytes()
            assert len(data) == entry["bytes"]
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_headers_carry_provenance(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "out"
        run_cli(["simulate", "--config", cfg, "--out", out])
        text = (out / "summary.csv").read_text()
        assert f"# config-sha256: {config_digest(cfg)}" in text
        assert "# seed: 3" in text
        assert "# grid: d=1" in text

    def test_snapshots_readable_and_timed(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "out"
        run_cli(["simulate", "--config", cfg, "--out", out])
        times = []
        for i in range(3):
            grid, st = read_snapshot(out / f"snap_{i:04d}.bin")
            assert grid.modes == (64,)
            times.append(st.t)
        assert times == [0.0, 0.5, 1.0]

    def test_norms_table_shape(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "out"
        run_cli(["simulate", "--config", cfg, "--out", out])
        cols, rows = read_csv_file(out / "norms.csv")
        assert cols == ["t", "s", "p", "r", "flavor", "j1", "value"]
        # two default norm specs per snapshot
        assert len(rows) == 6
        assert {r[4] for r in rows} == {"low", "high"}

    def test_diagnostics_stream(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "out"
        run_cli(["simulate", "--config", cfg, "--out", out])
        lines = (out / "diagnostics.ndjson").read_text().splitlines()
        head = json.loads(lines[0])
        assert head["header"]["seed"] == "3"
        names = {json.loads(ln)["name"] for ln in lines[1:]}
        assert {"l2_a", "l2_u", "min_density", "mean_a", "energy", "dissipation"} <= names

    def test_deterministic_across_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate", "--config", cfg, "--out", out1])
        run_cli(["simulate", "--config", cfg, "--out", out2])
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_random_preset(self, tmp_path):
        text = SIMULATE_CFG.replace("kind = smooth-bump", "kind = low-frequency-powerlaw")
        cfg = write_cfg(tmp_path, text + "sigma1 = -0.5\n")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(["simulate", "--config", cfg, "--out", out1, "--seed", 1]) == 0
        assert run_cli(["simulate", "--config", cfg, "--out", out2, "--seed", 2]) == 0
        assert (out1 / "snap_0000.bin").read_bytes() != (out2 / "snap_0000.bin").read_bytes()

    def test_kind_cross_check(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        code = run_cli(["linear-analyze", "--config", cfg, "--out", tmp_path / "x"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_rolls_back(self, tmp_path, capsys):
        # the bad besov spec is detected after snapshots were already written
        cfg = write_cfg(tmp_path, SIMULATE_CFG + "\n[diagnostics]\nbesov = 0.5:2:1\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2
        assert "expected s:p:r:flavor" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_dealias_above_two_thirds_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace("t_end = 1.0\n", "t_end = 1.0\ndealias = 1\n"))
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[solver]" in err and "2/3 rule" in err

    def test_runtime_error_rolls_back(self, tmp_path, capsys):
        # a single-mode state at amplitude 0.6 starts below the 0.5 floor
        text = (
            SIMULATE_CFG.replace("amplitude = 0.1", "amplitude = 0.6")
            .replace("kind = smooth-bump", "kind = single-mode")
            .replace("dt = 0.1", "dt = 0.1\npositivity_floor = 0.5")
        )
        cfg = write_cfg(tmp_path, text, "floor.ini")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
        assert "run failed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_workers_validated(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        code = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o", "--workers", 0])
        assert code == 2


def snapshot_config(tmp_path, count, name):
    times = ",".join(repr(0.25 * k) for k in range(count))
    text = SIMULATE_CFG.replace("snapshot_times = 0.0,0.5,1.0", f"snapshot_times = {times}")
    return write_cfg(tmp_path, text, name)


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestOutputDirectory:
    """An output directory never mixes two runs."""

    def test_existing_empty_directory_is_used(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, SIMULATE_CFG), "--out", out]) == 0
        assert (out / "manifest.json").is_file()

    def test_rerun_replaces_the_previous_run(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", snapshot_config(tmp_path, 5, "five.ini"),
                        "--out", out]) == 0
        assert (out / "snap_0004.bin").is_file()
        assert run_cli(["simulate", "--config", snapshot_config(tmp_path, 2, "two.ini"),
                        "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry["path"] for entry in manifest["files"]}
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}
        assert sorted(n for n in listed if n.startswith("snap_")) == ["snap_0000.bin", "snap_0001.bin"]

    @pytest.mark.parametrize("files", [
        {"notes.txt": b"keep me\n"},
        {"manifest.json": b"{}\n", "snap_0000.bin": b"not ours"},
        {"manifest.json": b"not json"},
    ])
    def test_directory_without_our_manifest_refused(self, tmp_path, capsys, files):
        out = tmp_path / "out"
        out.mkdir()
        for name, data in files.items():
            (out / name).write_bytes(data)
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert directory_bytes(out) == files

    def test_unlisted_file_beside_a_manifest_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        (out / "notes.txt").write_text("added by hand\n")
        before = directory_bytes(out)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err and "notes.txt" in err
        assert directory_bytes(out) == before

    def test_manifest_listing_itself_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"].append({"path": "manifest.json", "bytes": 0, "sha256": ""})
        (out / "manifest.json").write_text(json.dumps(manifest))
        before = directory_bytes(out)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert directory_bytes(out) == before

    def test_previous_run_that_cannot_be_removed_is_a_config_error(self, tmp_path, capsys,
                                                                     monkeypatch):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0

        def refuse(self, missing_ok=False):
            raise PermissionError(f"cannot unlink {self}")

        monkeypatch.setattr(Path, "unlink", refuse)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err

    @pytest.mark.parametrize("previous_run", [False, True])
    def test_write_failing_midway_leaves_nothing(self, tmp_path, capsys, monkeypatch, previous_run):
        out = tmp_path / "out"
        cfg = snapshot_config(tmp_path, 5, "five.ini")
        if previous_run:
            assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        written = []

        def fails_on_third(path, grid, state):
            written.append(Path(path))
            write_snapshot(path, grid, state)
            if len(written) == 3:
                with open(path, "r+b") as fh:
                    fh.truncate(40)
                raise OSError("device full")

        monkeypatch.setattr(cli, "write_snapshot", fails_on_third)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
        assert "device full" in capsys.readouterr().err
        # every write went to a temporary name; none of them is left
        assert all(p.parent == out and p.name.startswith(".") for p in written)
        assert list(out.iterdir()) == []

        monkeypatch.undo()
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        listed = {e["path"] for e in json.loads((out / "manifest.json").read_text())["files"]}
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}

    def test_manifest_write_failing_rolls_the_run_back(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        replace = os.replace

        def refuse_manifest(src, dst):
            if Path(dst).name == "manifest.json":
                raise OSError("read-only file system")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", refuse_manifest)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
        assert "read-only file system" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestAnalysisCommands:
    """linear-analyze, decay-verify, lp-inspect."""

    def test_linear_analyze(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nkind = linear-analyze\n"
            "[spectrum]\ns_star = 0.5\npoints = 40\ndecades = 4\n",
        )
        out = tmp_path / "out"
        assert run_cli(["linear-analyze", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "eigen_scan_s0.5.csv")
        assert cols == ["xi", "re1", "im1", "re2", "im2", "degenerate"]
        assert len(rows) == 40
        # trace is -1 at every scan point
        for r in rows:
            assert float(r[1]) + float(r[3]) == pytest.approx(-1.0, abs=1e-12)
        _, fits = read_csv_file(out / "dissipative_constant.csv")
        assert float(fits[0][1]) > 0.0
        header_line = (out / "asymptotics.csv").read_text().splitlines()[4]
        assert header_line == "# grid: none (continuum analysis)"

    def test_decay_verify(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nkind = decay-verify\n"
            "[decay]\ns_star = 0.5\ndim = 1\ntimes = logspace:100,1000,9\npairs = -0.5:0\n",
        )
        out = tmp_path / "out"
        assert run_cli(["decay-verify", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "fits.csv")
        row = dict(zip(cols, rows[0]))
        assert float(row["predicted"]) == pytest.approx(-0.5)
        assert float(row["rel_err"]) < 0.05
        assert float(row["vs_reference"]) < 0.02
        _, curve = read_csv_file(out / "decay_s0.5_pair0.csv")
        assert len(curve) == 9

    def test_decay_verify_bad_pair(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nkind = decay-verify\n"
            "[decay]\ns_star = 0.5\npairs = 0:0\ntimes = 1,2,3\n",
        )
        assert run_cli(["decay-verify", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "pair" in capsys.readouterr().err

    def test_decay_verify_malformed_pair_names_the_entry(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nkind = decay-verify\n"
            "[decay]\ns_star = 0.5\npairs = -0.5:0, x:0\ntimes = 1,2,3\n",
        )
        assert run_cli(["decay-verify", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[decay] pairs entry ' x:0'" in err

    def test_lp_inspect(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nkind = lp-inspect\n"
            "[grid]\ndim = 1\nlength = 6.283185307179586\nmodes = 64\n"
            "[lp]\nsamples = 2\n",
        )
        out = tmp_path / "out"
        assert run_cli(["lp-inspect", "--config", cfg, "--out", out]) == 0
        _, report = read_csv_file(out / "partition_report.csv")
        vals = dict(report)
        assert float(vals["partition_residue"]) == 0.0
        assert float(vals["quasi_orthogonality"]) < 1e-12
        for name in ("bernstein.csv", "wu_bracket.csv"):
            cols, rows = read_csv_file(out / name)
            assert rows, name
            assert all(r[-1] == "1" for r in rows)


class TestSweepCommand:
    """One-axis parameter sweeps."""

    SWEEP_BASE = (
        "[experiment]\nkind = sweep\nseed = 5\n"
        "[grid]\ndim = 1\nlength = 6.283185307179586\nmodes = 64\n"
        "[params]\ns_star = 0.5\n"
        "[solver]\ndt = 0.05\nt_end = 0.5\n"
        "[preset]\nkind = smooth-bump\namplitude = 0.1\n"
    )

    def test_dt_axis_reports_order(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = dt\nvalues = 0.05,0.025,0.0125\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "sweep.csv")
        table = {float(r[0]): dict(zip(cols, r)) for r in rows}
        assert table[0.0125]["err_vs_finest"] == ""  # the reference child
        assert float(table[0.05]["err_vs_finest"]) > float(table[0.025]["err_vs_finest"])
        order = float(table[0.025]["observed_order"])
        assert 3.3 < order < 4.7

    def test_failed_child_recorded(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = amplitude\nvalues = 0.1,1.5\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "sweep.csv")
        by_value = {r[0]: dict(zip(cols, r)) for r in rows}
        assert by_value["0.1"]["status"] == "completed"
        assert by_value["1.5"]["status"] == "error: [preset] amplitude must lie in (0, 1), got 1.5"
        assert by_value["1.5"]["final_t"] == ""

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = s_star\nvalues = 0.25,0.5,0.75\n")
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_cli(["sweep", "--config", cfg, "--out", out1, "--workers", 1]) == 0
        assert run_cli(["sweep", "--config", cfg, "--out", out2, "--workers", 4]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_child_seeds_differ_per_index(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = J1\nvalues = 0,1\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "sweep.csv")
        seeds = [r[cols.index("seed")] for r in rows]
        assert len(set(seeds)) == 2
        assert any(c.startswith("E_") for c in cols)

    def test_unknown_axis(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = viscosity\nvalues = 1\n")
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_broken_base_config_stops_before_any_child(self, tmp_path, capsys):
        base = self.SWEEP_BASE.replace("[params]\ns_star = 0.5\n", "")
        cfg = write_cfg(tmp_path, base + "[sweep]\naxis = s_star\nvalues = 0.25,0.5\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 2
        assert "config error: [params] needs exactly one of alpha or s_star" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_s_star_axis_replaces_a_declared_alpha(self, tmp_path):
        sweep = "[sweep]\naxis = s_star\nvalues = 0.25,0.75\n"
        declared = {}
        for spelling in ("s_star = 0.5", "alpha = 0.5"):
            text = self.SWEEP_BASE.replace("s_star = 0.5", spelling) + sweep
            out = tmp_path / spelling.split()[0]
            assert run_cli(["sweep", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
            declared[spelling] = read_csv_file(out / "sweep.csv")
        assert declared["s_star = 0.5"] == declared["alpha = 0.5"]
        cols, rows = declared["alpha = 0.5"]
        assert [r[cols.index("status")] for r in rows] == ["completed", "completed"]

    @pytest.mark.parametrize("axis", ["J1", "grid"])
    def test_integer_axis_refuses_fractional_values(self, tmp_path, capsys, axis):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + f"[sweep]\naxis = {axis}\nvalues = 32,0.5,1.7\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 2
        assert "config error: [sweep] values = '32,0.5,1.7': 0.5 is not an integer" in (
            capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_grid_axis_matches_direct_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = grid\nvalues = 32,128\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "sweep.csv")
        assert [r[0] for r in rows] == ["32", "128"]
        for r in rows:
            row = dict(zip(cols, r))
            grid = make_grid(dim=1, lengths=6.283185307179586, modes=int(row["value"]))
            state0 = perturbation_presets("smooth-bump", 0.1, grid, seed=int(row["seed"]))
            traj = integrate(grid, state0, RieszParams.from_s_star(1, 0.5),
                             SolverConfig(dt=0.05, t_end=0.5, snapshot_times=(0.5,)))
            final = traj.snapshots[-1]
            assert row["status"] == traj.status == "completed"
            assert float(row["final_t"]) == final.t
            assert float(row["l2_a"]) == lp_norm(grid, final.a, 2)
            assert float(row["l2_u"]) == lp_norm(grid, final.u, 2)
            assert float(row["min_density"]) == 1.0 + float(np.min(final.a))

    @pytest.mark.parametrize("axis, values, extents", [
        ("s_star", "0.25,0.5,0.75", [(64, 33)]),
        ("grid", "32,128", [(64, 33), (32, 17), (128, 65)]),
    ])
    def test_children_reuse_the_header_grid(self, tmp_path, monkeypatch, axis, values, extents):
        built = []
        builder = grid_module._build_lattice

        def recording_builder(axes, extent):
            built.append((axes[-1].size, extent))
            return builder(axes, extent)

        monkeypatch.setattr(grid_module, "_build_lattice", recording_builder)
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + f"[sweep]\naxis = {axis}\nvalues = {values}\n")
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 0
        # only the grid axis builds a grid per child
        assert built == extents


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def write_launcher(tmp_path, target):
    """Write the console-script launcher an installer makes for ``target``.

    ``target`` is a ``[project.scripts]`` value of the form ``module:func``.
    """
    module, func = target.split(":")
    path = tmp_path / "rieszflow"
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    path.chmod(0o755)
    return path


class TestConsoleScript:
    """The entry point declared in ``[project.scripts]``, run as a script."""

    @pytest.mark.skipif(not PYPROJECT.is_file(), reason="no pyproject.toml next to tests/")
    def test_executable_runs(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["rieszflow"]
        exe = write_launcher(tmp_path, target)
        # run the package under test, not an installed copy
        env = {**os.environ, "PYTHONPATH": str(Path(rieszflow.__file__).resolve().parent.parent)}

        def run(cfg, out):
            return subprocess.run(
                [str(exe), "simulate", "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )

        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "out"
        proc = run(cfg, out)
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").is_file()

        proc = run(tmp_path / "missing.ini", tmp_path / "out2")
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr
