"""Config parsing and end-to-end harness runs on tiny workloads."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rieszflow
from rieszflow import cli, read_snapshot, write_snapshot
from rieszflow import grid as grid_module
from rieszflow.cli import main, run_experiment
from rieszflow.grid import RieszParams, lp_norm, make_grid
from rieszflow.solver import INTEGRATORS, PRESETS, SolverConfig, integrate, perturbation_presets
from rieszflow.config import (
    KEYS,
    KINDS,
    REQUIRED,
    SWEEP_AXES,
    ConfigError,
    get,
    load_config,
    override,
    parse_float_list,
    parse_grid,
    parse_params,
    parse_preset,
    parse_schedule,
    parse_solver_config,
    resolve_run,
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
    """The table accessor ``get`` and its diagnostics."""

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
        assert get(cp, "solver", "dt") == 0.5

    def test_error_names_section_and_key(self, tmp_path):
        path = write_cfg(tmp_path, "[solver]\ndt = fast\n")
        cp = load_config(path)
        with pytest.raises(ConfigError, match=r"\[solver\] dt = 'fast' is not a number"):
            get(cp, "solver", "dt")

    def test_missing_key_and_section(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[solver]\ndt = 1\n"))
        with pytest.raises(ConfigError, match="missing key 't_end'"):
            get(cp, "solver", "t_end")
        with pytest.raises(ConfigError, match=r"missing section \[grid\]"):
            get(cp, "grid", "dim")

    def test_bool_parsing(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[diagnostics]\nenergy = OFF\n"))
        assert get(cp, "diagnostics", "energy") is False
        cp = load_config(write_cfg(tmp_path, "[diagnostics]\nenergy = yes\n", "yes.ini"))
        assert get(cp, "diagnostics", "energy") is True
        # the default: energy true
        cp = load_config(write_cfg(tmp_path, "[diagnostics]\n", "defaults.ini"))
        assert get(cp, "diagnostics", "energy") is True
        cp = load_config(write_cfg(tmp_path, "[diagnostics]\nenergy = maybe\n", "maybe.ini"))
        with pytest.raises(ConfigError, match=r"\[diagnostics\] energy = 'maybe' is not a boolean"):
            get(cp, "diagnostics", "energy")

    def test_choice_rejection(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[solver]\nintegrator = rk45\n"))
        with pytest.raises(ConfigError, match="expected one of"):
            get(cp, "solver", "integrator")

    def test_percent_is_literal(self, tmp_path):
        cp = load_config(write_cfg(tmp_path, "[experiment]\nname = run 100% of %(seed)s\nseed = 1\n"))
        assert get(cp, "experiment", "name") == "run 100% of %(seed)s"
        child = override(cp, "experiment", "seed", "2")
        assert get(child, "experiment", "name") == "run 100% of %(seed)s"

    def test_file_that_is_not_utf8_is_refused_by_name(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[experiment]\nname = \u00e9t\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=rf"^cannot decode {re.escape(str(path))} as UTF-8: "):
            load_config(path)


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
        cp = load_config(write_cfg(tmp_path, SIMULATE_CFG.replace("amplitude = 0.1", "amplitude = 1.2")))
        with pytest.raises(ConfigError, match=r"^\[preset\] amplitude must lie in \(0, 1\), got 1.2$"):
            resolve_run(cp, parse_grid(cp), 0)



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
        assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
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
        assert f"# config-sha256: {hashlib.sha256(cfg.read_bytes()).hexdigest()}" in text
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

    @pytest.mark.parametrize("source", ["--seed", "[experiment] seed"])
    def test_negative_seed_names_its_source(self, tmp_path, capsys, source):
        if source == "--seed":
            args = ["--seed", -1]
            cfg = write_cfg(tmp_path, SIMULATE_CFG)
        else:
            args = []
            cfg = write_cfg(tmp_path, SIMULATE_CFG.replace("seed = 3", "seed = -1"))
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"] + args) == 2
        assert f"config error: {source} must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kind_cross_check(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        code = run_cli(["linear-analyze", "--config", cfg, "--out", tmp_path / "x"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_rolls_back(self, tmp_path, capsys):
        # the bad besov spec is detected before the run starts
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

    @pytest.mark.parametrize("key, line", [("dt", "dt = 0.1\n"), ("t_end", "t_end = 1.0\n")],
                             ids=["dt", "t_end"])
    def test_non_finite_time_is_a_config_error(self, tmp_path, capsys, key, line):
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace(line, f"{key} = inf\n"))
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"config error: [solver] {key} must be" in err and "finite" in err

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


class TestEntryPath:
    """``run_experiment`` sets up every run and reads its config file once; ``main`` parses argv."""

    def test_simulate_opens_its_config_once(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        # an audit hook stays for the process, so this one records only while the run lasts
        opened, recording = [], [True]
        sys.addaudithook(
            lambda event, args: recording[0] and event == "open" and opened.append(args[0]))
        try:
            assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        finally:
            recording[0] = False
        assert [os.fspath(path) for path in opened
                if isinstance(path, (str, os.PathLike))].count(str(cfg)) == 1

    def test_manifest_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        parsed, check_keys = cfg.read_bytes(), cli.check_keys

        def check_then_edit(cp, kind):
            # the file changes once it has been parsed
            cfg.write_text(SIMULATE_CFG.replace("seed = 3", "seed = 4"))
            return check_keys(cp, kind)

        monkeypatch.setattr(cli, "check_keys", check_then_edit)
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()
        assert manifest["seed"] == 3
        summary = (out / "summary.csv").read_text()
        assert f"# config-sha256: {hashlib.sha256(parsed).hexdigest()}" in summary

    @pytest.mark.parametrize("kind, seed, refusal", [
        ("render", None, f"unknown experiment kind 'render'; expected one of {KINDS}"),
        ("simulate", -1, "--seed must be non-negative, got -1"),
    ], ids=["kind", "seed"])
    def test_library_call_names_a_bad_kind_or_seed(self, tmp_path, capsys, kind, seed, refusal):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        assert run_experiment(kind, cfg, tmp_path / "out", seed) == 2
        assert capsys.readouterr().err == f"config error: {refusal}\n"
        assert not (tmp_path / "out").exists()

    def test_main_calls_run_experiment_by_its_module_name(self, monkeypatch):
        # the benchmark's tracer wraps cli.run_experiment and times main around it
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(args) or 7)
        argv = ["sweep", "--config", "c.ini", "--out", "o", "--seed", "5", "--workers", "2"]
        assert cli.main(argv) == 7
        assert cli.main(["simulate", "--config", "c.ini", "--out", "o"]) == 7
        assert calls == [("sweep", "c.ini", "o", 5, 2), ("simulate", "c.ini", "o", None, 1)]

    def test_percent_in_a_value_is_text(self, tmp_path):
        text = SIMULATE_CFG.replace("seed = 3", "seed = 3\nname = run 100%")
        out = tmp_path / "simulate"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
        assert "# experiment: run 100%\n" in (out / "summary.csv").read_text()
        sweep = (TestSweepCommand.SWEEP_BASE.replace("seed = 5", "seed = 5\nname = run 100%")
                 + "[sweep]\naxis = amplitude\nvalues = 0.1,0.2\n")
        out, cfg = tmp_path / "sweep", write_cfg(tmp_path, sweep, "sweep.ini")
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        assert "# experiment: run 100%\n" in (out / "sweep.csv").read_text()
        _, rows = read_csv_file(out / "sweep.csv")
        assert [row[2] for row in rows] == ["completed", "completed"]

    def test_a_name_that_spans_lines_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE_CFGS["decay-verify"])
        assert run_cli(["decay-verify", "--config", cfg, "--out", out]) == 0
        previous = directory_bytes(out)
        capsys.readouterr()
        # configparser joins an indented continuation line into the value
        text = BASE_CFGS["decay-verify"].replace("[experiment]\n", "[experiment]\nname = two\n  lines\n")
        cfg = write_cfg(tmp_path, text, "two.ini")
        assert run_cli(["decay-verify", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == "config error: [experiment] name must be one line, got 'two\\nlines'\n"
        assert directory_bytes(out) == previous

    def test_artifacts_do_not_depend_on_the_locale(self, tmp_path):
        cfg = tmp_path / "sigma.ini"
        text = BASE_CFGS["linear-analyze"].replace("[experiment]\n", "[experiment]\nname = \u03c3-scan\n")
        cfg.write_bytes(text.encode("utf-8"))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(rieszflow.__file__).resolve().parent.parent)}
        env.pop("PYTHONIOENCODING", None)
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "rieszflow.cli", "linear-analyze", "--config", str(cfg),
             "--out", str(tmp_path / "c")],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert run_cli(["linear-analyze", "--config", cfg, "--out", tmp_path / "utf8"]) == 0
        assert directory_bytes(tmp_path / "c") == directory_bytes(tmp_path / "utf8")
        assert "# experiment: \u03c3-scan\n" in (tmp_path / "c" / "asymptotics.csv").read_text("utf-8")


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

    def test_config_refused_by_the_command_keeps_the_previous_run(self, tmp_path, capsys):
        out = tmp_path / "prev"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, SIMULATE_CFG), "--out", out]) == 0
        before = directory_bytes(out)
        assert "manifest.json" in before and len(before) > 1
        # the command reads [diagnostics] besov only after the output directory was checked
        cfg = write_cfg(tmp_path, SIMULATE_CFG + "\n[diagnostics]\nbesov = 0.5:2:1\n", "bad.ini")
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2
        assert "[diagnostics] besov entry" in capsys.readouterr().err
        assert directory_bytes(out) == before

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


STREAM_CFG = """\
[experiment]
kind = simulate
seed = 4

[grid]
dim = 2
length = 50.26548245743669
modes = {modes}

[params]
s_star = 0.5

[preset]
kind = low-frequency-powerlaw
amplitude = 0.05
sigma1 = -1
cutoff = 1

[solver]
dt = 0.05
t_end = 1.0
snapshot_times = linspace:0,1,{count}
"""


class TestStreamedSimulate:
    """simulate writes each snapshot and its diagnostics as the run reaches it, keeping no state."""

    def test_traced_peak_is_flat_in_the_snapshot_count(self, tmp_path):
        peaks = {}
        # the first run fills the caches every later run reuses
        for run, count in enumerate((6, 6, 41)):
            cfg = write_cfg(tmp_path, STREAM_CFG.format(modes=64, count=count), f"s{run}.ini")
            tracemalloc.start()
            try:
                assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / f"out{run}"]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # what grows is the diagnostics rows, which stay in lists (1 to 2 kB a snapshot);
        # a snapshot is three 64x64 float64 fields
        snapshot_bytes = 3 * 64 * 64 * 8
        assert peaks[41] - peaks[6] < snapshot_bytes

    def test_snapshots_equal_those_of_a_run_that_keeps_them(self, tmp_path):
        cfg = write_cfg(tmp_path, STREAM_CFG.format(modes=32, count=6))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        cp = load_config(cfg)
        grid = parse_grid(cp)
        params, solver_cfg, state0 = resolve_run(cp, grid, 4)
        traj = integrate(grid, state0, params, solver_cfg)
        assert len(traj.snapshots) == 6
        assert sorted(p.name for p in out.glob("snap_*.bin")) == [f"snap_{i:04d}.bin" for i in range(6)]
        for i, state in enumerate(traj.snapshots):
            write_snapshot(tmp_path / "ref.bin", grid, state)
            assert (out / f"snap_{i:04d}.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
        summary = dict(read_csv_file(out / "summary.csv")[1])
        assert summary["snapshots"] == "6" and summary["final_t"] == repr(traj.snapshots[-1].t)


    @pytest.mark.parametrize("energy, forward", [("true", 3), ("false", 1)])
    def test_sink_transforms_each_field_once(self, tmp_path, monkeypatch, fft_calls, energy, forward):
        # a feeds the energy and every Besov spec through one transform; the energy adds u and a u
        made = []

        def counting_integrate(*args, sink):
            def counted(st, diag):
                before = dict(fft_calls)
                sink(st, diag)
                made.append({name: n - before[name] for name, n in fft_calls.items() if n != before[name]})
            return integrate(*args, sink=counted)

        monkeypatch.setattr(cli, "integrate", counting_integrate)
        cfg = write_cfg(tmp_path, SIMULATE_2D_CFG.replace("energy = true", f"energy = {energy}"))
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert made == [{"rfft": forward, "fft": forward}] * 6


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

    def test_lp_inspect_2d_builds_only_the_half_lattice(self, tmp_path, monkeypatch):
        extents = []
        builder = grid_module._build_lattice

        def recording_builder(axes, extent):
            extents.append(extent)
            return builder(axes, extent)

        monkeypatch.setattr(grid_module, "_build_lattice", recording_builder)
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nkind = lp-inspect\n"
            "[grid]\ndim = 2\nlength = 6.283185307179586\nmodes = 32\n"
            "[lp]\nsamples = 2\n",
        )
        out = tmp_path / "out"
        assert run_cli(["lp-inspect", "--config", cfg, "--out", out]) == 0
        assert extents == [32 // 2 + 1]
        _, report = read_csv_file(out / "partition_report.csv")
        assert float(dict(report)["quasi_orthogonality"]) < 1e-12


class TestOutOfRangeValues:
    """A value the library refuses is a config error naming its key (exit 2), not a run failure."""

    @pytest.mark.parametrize("kind, text, key", [
        ("linear-analyze", "[experiment]\nkind = linear-analyze\n"
         "[spectrum]\ns_star = 0.5,1.5\npoints = 8\ndecades = 2\n", "[spectrum] s_star = 1.5"),
        ("lp-inspect", "[experiment]\nkind = lp-inspect\n"
         "[grid]\ndim = 1\nlength = 6.283185307179586\nmodes = 32\n"
         "[lp]\nsamples = 1\nalpha_w = -0.5\n", "[lp] alpha_w = -0.5"),
        # refused before the run starts, not by the first snapshot's diagnostics
        ("simulate", SIMULATE_CFG.replace("modes = 64", "modes = 32") + "[diagnostics]\nj1 = 99\n",
         "[diagnostics] j1 = 99"),
        # decades = 0 would write an asymptotics.csv that holds only its header
        ("linear-analyze", "[experiment]\nkind = linear-analyze\n"
         "[spectrum]\ns_star = 0.5\npoints = 8\ndecades = 0\n", "[spectrum] decades must be >= 1"),
        ("decay-verify", "[experiment]\nkind = decay-verify\n"
         "[decay]\ns_star = 0.5\ndim = 3\ntimes = 1,2,3\n", "[decay] dim must be 1 or 2"),
    ], ids=["linear-analyze", "lp-inspect", "simulate", "spectrum-decades", "decay-dim"])
    def test_config_error(self, tmp_path, capsys, monkeypatch, kind, text, key):
        drawn = []
        draw = cli._smooth_sample
        monkeypatch.setattr(cli, "_smooth_sample", lambda *a, **k: drawn.append(1) or draw(*a, **k))
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli([kind, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}"), err
        assert not any(out.iterdir())
        # lp-inspect refuses alpha_w before it draws a sample
        assert drawn == []

    @pytest.mark.parametrize("kind, line, refusal", [
        ("smooth-bump", "width = 2", "[preset] width must lie in (0, 1], got 2.0"),
        ("single-mode", "mode = 200", "[preset] mode must stay below the dealias cutoff"),
        ("low-frequency-powerlaw", "cutoff = 0.1", "[preset] cutoff excludes every nonzero"),
    ], ids=["width", "mode", "cutoff"])
    def test_preset_value_refused_by_the_library(self, tmp_path, capsys, monkeypatch, kind, line,
                                                 refusal):
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
        out = tmp_path / "prev"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, SIMULATE_CFG), "--out", out]) == 0
        before, calls[:] = directory_bytes(out), []
        text = SIMULATE_CFG.replace("kind = smooth-bump", f"kind = {kind}") + line + "\n"
        cfg = write_cfg(tmp_path, text, "bad.ini")
        for target in (out, tmp_path / "fresh"):
            assert run_cli(["simulate", "--config", cfg, "--out", target]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {refusal}"), err
        assert calls == []
        assert directory_bytes(out) == before
        assert list((tmp_path / "fresh").iterdir()) == []


#: a valid config of each command
BASE_CFGS = {
    "simulate": SIMULATE_CFG,
    "linear-analyze": "[experiment]\nkind = linear-analyze\n"
                      "[spectrum]\ns_star = 0.5\npoints = 8\ndecades = 2\n",
    "decay-verify": "[experiment]\nkind = decay-verify\n"
                    "[decay]\ns_star = 0.5\ntimes = logspace:100,1000,9\n",
    "lp-inspect": "[experiment]\nkind = lp-inspect\n"
                  "[grid]\ndim = 1\nlength = 6.283185307179586\nmodes = 32\n"
                  "[lp]\nsamples = 1\n",
    "sweep": "[experiment]\nkind = sweep\n"
             "[grid]\ndim = 1\nlength = 6.283185307179586\nmodes = 32\n"
             "[params]\ns_star = 0.5\n"
             "[solver]\ndt = 0.05\nt_end = 0.1\n"
             "[preset]\nkind = smooth-bump\namplitude = 0.1\n"
             "[sweep]\naxis = dt\nvalues = 0.05\n",
}

#: the simulate-2d benchmark config at 32x32
SIMULATE_2D_CFG = """\
[experiment]
name = bench-simulate-2d
kind = simulate

[grid]
dim = 2
length = 50.26548245743669
modes = 32

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


def run_with(tmp_path, kind, cp, capsys):
    """Run ``kind`` on config ``cp`` into a fresh empty ``--out``: (exit code, stderr, out)."""
    path = tmp_path / "edited.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    out.mkdir()
    code = run_cli([kind, "--config", path, "--out", out])
    return code, capsys.readouterr().err, out


class TestKeyTable:
    """Every config key is declared once; a file holds only keys its command reads."""

    @pytest.mark.parametrize("kind", sorted(BASE_CFGS))
    def test_base_configs_run(self, tmp_path, kind):
        cfg = write_cfg(tmp_path, BASE_CFGS[kind])
        assert run_cli([kind, "--config", cfg, "--out", tmp_path / "out"]) == 0

    # any text is a name
    MALFORMED = [section_key for section_key in KEYS if section_key != ("experiment", "name")]

    @pytest.mark.parametrize("section, key", MALFORMED, ids=[f"{s}.{k}" for s, k in MALFORMED])
    def test_malformed_value_is_refused(self, tmp_path, capsys, section, key):
        kind = KEYS[section, key].kinds[0]
        cp = override(load_config(write_cfg(tmp_path, BASE_CFGS[kind])), section, key, "x")
        code, err, out = run_with(tmp_path, kind, cp, capsys)
        assert code == 2
        assert err.startswith("config error: ") and f"[{section}] {key}" in err, err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section", sorted({section for section, _ in KEYS}))
    def test_misspelt_key_is_refused_with_a_hint(self, tmp_path, capsys, section):
        key = next(k for s, k in KEYS if s == section)
        kind = KEYS[section, key].kinds[0]
        cp = override(load_config(write_cfg(tmp_path, BASE_CFGS[kind])), section, key + key[-1],
                      "1")
        code, err, out = run_with(tmp_path, kind, cp, capsys)
        assert code == 2
        assert (f"config error: [{section}] {key + key[-1]} is not a config key "
                f"(did you mean {key}?)") in err, err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind, extra, named", [
        ("simulate", "[lp]\nsamples = 2\n", "[lp] samples is not read by simulate"),
        ("sweep", "[diagnostics]\nenergy = true\n", "[diagnostics] energy is not read by sweep"),
        ("linear-analyze", "[decay]\ndim = 1\n", "[decay] dim is not read by linear-analyze"),
    ], ids=["simulate", "sweep", "linear-analyze"])
    def test_key_another_command_reads_is_refused(self, tmp_path, capsys, kind, extra, named):
        cp = load_config(write_cfg(tmp_path, BASE_CFGS[kind] + extra))
        code, err, out = run_with(tmp_path, kind, cp, capsys)
        assert code == 2 and named in err, err
        assert list(out.iterdir()) == []

    def test_four_typos_of_the_simulate_2d_config(self, tmp_path, capsys):
        text = (SIMULATE_2D_CFG.replace("snapshot_times", "snapshot_time")
                .replace("integrator = ifrk4", "integrater = exp-euler")
                .replace("energy = true", "enrgy = false")
                + "\n[solvr]\ndt = 0.05\n")
        code, err, out = run_with(tmp_path, "simulate", load_config(write_cfg(tmp_path, text)),
                                  capsys)
        assert code == 2
        for named in ("[solver] snapshot_time is not a config key (did you mean snapshot_times?)",
                      "[solver] integrater is not a config key (did you mean integrator?)",
                      "[diagnostics] enrgy is not a config key (did you mean energy?)",
                      "[solvr] is not a config section (did you mean [solver]?)",
                      "[solvr] dt is not a config key"):
            assert named in err, err
        assert list(out.iterdir()) == []

    def test_default_section_is_refused_by_name(self, tmp_path, capsys):
        # configparser would spread [DEFAULT] keys into every section
        cfg = write_cfg(tmp_path, "[DEFAULT]\nwidth = 0.5\n" + SIMULATE_CFG)
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: [DEFAULT] is not a config section; "
                       "[DEFAULT] width is not a config key\n"), err
        assert not (tmp_path / "out").exists()
        # nor does get() read [DEFAULT] keys as those of another section
        assert get(load_config(cfg), "preset", "width") == 0.25

    def test_simulate_2d_config_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_2D_CFG)
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0


class TestDeclaredChoices:
    """A run reads what its choices declare: the stepper it names, and its preset kind's own keys."""

    def test_linear_run_reports_its_stepper(self, tmp_path):
        text = SIMULATE_CFG.replace("[solver]\n", "[solver]\nintegrator = linear\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
        _, rows = read_csv_file(out / "summary.csv")
        assert dict(rows)["integrator"] == "linear"

    def test_linear_only_is_refused_and_keeps_the_previous_run(self, tmp_path, capsys):
        out = tmp_path / "prev"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, SIMULATE_CFG), "--out", out]) == 0
        before = directory_bytes(out)
        text = SIMULATE_CFG.replace("[solver]\n", "[solver]\nlinear_only = true\n")
        cfg = write_cfg(tmp_path, text, "linear_only.ini")
        for target in (out, tmp_path / "fresh"):
            assert run_cli(["simulate", "--config", cfg, "--out", target]) == 2
            assert "config error: [solver] linear_only is not a config key" in capsys.readouterr().err
        assert directory_bytes(out) == before
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("kind, line", [
        ("smooth-bump", "mode = 3"),
        ("smooth-bump", "sigma1 = -1"),
        ("single-mode", "width = 0.5"),
        ("low-frequency-powerlaw", "mode = 2"),
    ])
    def test_key_of_another_preset_kind_is_refused(self, tmp_path, capsys, kind, line):
        out = tmp_path / "prev"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, SIMULATE_CFG), "--out", out]) == 0
        before = directory_bytes(out)
        text = SIMULATE_CFG.replace("kind = smooth-bump", f"kind = {kind}") + line + "\n"
        assert run_cli(["simulate", "--config", write_cfg(tmp_path, text, "bad.ini"), "--out", out]) == 2
        key = line.split(" = ")[0]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [preset] {key} is not read by kind = {kind}"), err
        assert directory_bytes(out) == before

    def test_key_of_another_preset_kind_is_refused_before_its_value_is_read(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIMULATE_CFG + "mode = x\n")
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "config error: [preset] mode is not read by kind = smooth-bump (it reads width)\n")

    @pytest.mark.parametrize("kind", list(PRESETS))
    def test_each_kind_reads_its_own_keys(self, tmp_path, kind):
        cp = load_config(write_cfg(tmp_path, f"[preset]\nkind = {kind}\namplitude = 0.1\n"))
        assert list(parse_preset(cp)) == ["kind", "amplitude", *PRESETS[kind]]

    OWN_KEYS = [(kind, key) for kind, keys in PRESETS.items() for key in keys]

    @pytest.mark.parametrize("kind, key", OWN_KEYS, ids=[f"{k}.{key}" for k, key in OWN_KEYS])
    def test_malformed_own_key_is_refused(self, tmp_path, kind, key):
        cp = load_config(write_cfg(tmp_path, f"[preset]\nkind = {kind}\namplitude = 0.1\n{key} = x\n"))
        with pytest.raises(ConfigError, match=rf"\[preset\] {key} = 'x' is not"):
            parse_preset(cp)


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

    def test_workers_validated(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "[sweep]\naxis = dt\nvalues = 0.05\n")
        code = run_cli(["sweep", "--config", cfg, "--out", tmp_path / "o", "--workers", 0])
        assert code == 2
        assert "config error: --workers must be >= 1" in capsys.readouterr().err
        # only sweep takes --workers
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--config", write_cfg(tmp_path, SIMULATE_CFG, "sim.ini"),
                     "--out", tmp_path / "s", "--workers", 2])
        assert exc.value.code == 2

    def test_out_of_range_j1_child_does_not_integrate(self, tmp_path, monkeypatch):
        def sweep_rows(values, name):
            cfg = write_cfg(tmp_path, self.SWEEP_BASE.replace("modes = 64", "modes = 32")
                            + f"[sweep]\naxis = J1\nvalues = {values}\n", f"{name}.ini")
            assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / name]) == 0
            cols, rows = read_csv_file(tmp_path / name / "sweep.csv")
            return [dict(zip(cols, r)) for r in rows]

        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
        good, bad = sweep_rows("0,99", "both")
        # the child of j1 = 99 is refused before its integration
        assert len(calls) == 1
        assert bad["status"].startswith("error: [diagnostics] j1 = 99: "), bad["status"]
        assert bad["final_t"] == ""
        assert [good] == sweep_rows("0", "alone")

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

    def test_key_of_another_preset_kind_in_the_base_runs_no_child(self, tmp_path, capsys,
                                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "mode = 3\n[sweep]\naxis = amplitude\nvalues = 0.1,0.2\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 2
        assert ("config error: [preset] mode is not read by kind = smooth-bump"
                in capsys.readouterr().err)
        assert calls == [] and list(out.iterdir()) == []

    def test_out_of_range_preset_in_the_base_runs_no_child(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
        cfg = write_cfg(tmp_path, self.SWEEP_BASE + "width = 2\n[sweep]\naxis = amplitude\nvalues = 0.1,0.2\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == "config error: [preset] width must lie in (0, 1], got 2.0\n"
        assert calls == [] and list(out.iterdir()) == []

    def test_child_whose_preset_is_refused_is_an_error_row(self, tmp_path):
        # mode 10 fits the base grid's box (3 * 10 < 64) but not a 16-mode child's
        base = self.SWEEP_BASE.replace("kind = smooth-bump", "kind = single-mode") + "mode = 10\n"
        cfg = write_cfg(tmp_path, base + "[sweep]\naxis = grid\nvalues = 64,16\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        cols, rows = read_csv_file(out / "sweep.csv")
        status = {r[0]: r[cols.index("status")] for r in rows}
        assert status == {"64": "completed", "16": "error: [preset] mode must stay below the dealias "
                                                  "cutoff (3 mode < N_1), got 10"}

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


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_reference_rows():
    """The README's config reference table: "`[section] key`" -> its default, read-by and value cells."""
    text = README.read_text()
    reference = text[text.index("### Config reference"):text.index("### Artifacts")]
    rows = {}
    for line in reference.splitlines():
        if line.startswith("| `["):
            name, *cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[name] = cells
    return rows


@pytest.mark.skipif(not README.is_file(), reason="no README.md next to tests/")
class TestReadme:
    """The README's config reference and example config agree with the code."""

    def test_config_reference_lists_every_key(self):
        rows = readme_reference_rows()
        assert len(rows) == len(KEYS)
        for (section, key), row in KEYS.items():
            default, read_by, _ = rows[f"`[{section}] {key}`"]
            assert read_by == ("all" if row.kinds == KINDS else ", ".join(row.kinds)), key
            if row.default is REQUIRED:
                assert default == "required", key
            elif row.default is None:
                assert default and default != "required", key
            else:
                assert default.startswith(f"`{row.default}`"), key

    @pytest.mark.parametrize("name, choices", [
        ("[solver] integrator", INTEGRATORS),
        ("[preset] kind", PRESETS),
        ("[sweep] axis", SWEEP_AXES),
    ])
    def test_choice_rows_name_the_table_choices(self, name, choices):
        value = readme_reference_rows()[f"`{name}`"][2]
        assert re.findall(r"`([^`]+)`", value) == list(choices), value

    def test_preset_rows_name_the_kinds_that_read_them(self):
        rows = readme_reference_rows()
        for key in {key for keys in PRESETS.values() for key in keys}:
            readers = [kind for kind, keys in PRESETS.items() if key in keys]
            value = rows[f"`[preset] {key}`"][2]
            assert re.findall(r"`([^`]+)`", value) == readers, value

    def test_library_quick_start_runs(self, capsys):
        text = README.read_text()
        section = text[text.index("## Library quick start"):text.index("## Command line")]
        run, sink = re.findall(r"```python\n(.*?)```", section, re.S)
        namespace = {}
        exec(run, namespace)
        stats = namespace["traj"].stats
        assert (stats.steps, len(stats.step_sizes), stats.propagator_builds) == (414, 33, 33)
        assert f"steps={stats.steps}," in capsys.readouterr().out
        exec(sink, namespace)
        # a sink of one's own: the trajectory keeps no snapshot
        assert namespace["traj"].snapshots == [] and namespace["traj"].diagnostics == []
        assert len(namespace["peaks"]) == 33

    def test_example_simulate_config_runs(self, tmp_path):
        text = README.read_text()
        example = text[text.index("Example `simulate` config:"):]
        ini = example[example.index("```ini\n") + len("```ini\n"):example.index("```\n\n")]
        cfg = write_cfg(tmp_path, ini)
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0


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
