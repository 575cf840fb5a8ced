"""Flat INI-style configuration parsing for the command-line harness.

A run is described by a declarative key/value file with sections named
after the things they configure ([grid], [params], [preset], [solver],
[lp], [diagnostics], [spectrum], [decay], [sweep]) plus an optional
[experiment] section carrying the run name and default seed.  There is
no programmatic configuration; everything a run needs is in the file.

Values are plain scalars, comma lists, or schedule strings.  A schedule
is either an explicit comma list of floats, ``linspace:start,stop,n``
or ``logspace:start,stop,n`` (log-spaced between the two positive
endpoints).
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import RieszParams, SpectralGrid, make_grid
from .solver import INTEGRATORS, PRESETS, SolverConfig

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "load_config",
    "config_digest",
    "parse_schedule",
    "parse_float_list",
    "parse_int_list",
    "parse_entries",
    "parse_grid",
    "parse_params",
    "parse_solver_config",
    "parse_preset",
    "resolve_run",
    "override",
]

KINDS = ("simulate", "linear-analyze", "decay-verify", "lp-inspect", "sweep")

#: sweep axis -> the (section, key) each child run overrides
SWEEP_AXES = {
    "s_star": ("params", "s_star"),
    "amplitude": ("preset", "amplitude"),
    "J1": ("diagnostics", "j1"),
    "grid": ("grid", "modes"),
    "dt": ("solver", "dt"),
}


class ConfigError(ValueError):
    """A configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved description of one harness invocation."""

    name: str
    kind: str
    config_path: str
    out_dir: str
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def load_config(path: str | Path) -> configparser.ConfigParser:
    """Read an INI file, raising :class:`ConfigError` with diagnostics."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cp


def config_digest(path: str | Path) -> str:
    """Hex sha256 of the raw config file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _raw(cp: configparser.ConfigParser, section: str, key: str, default=None) -> str:
    if not cp.has_section(section):
        if default is not None:
            return default
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in section [{section}]")
    return cp.get(section, key)


def get_str(cp, section, key, default=None) -> str:
    return _raw(cp, section, key, default).strip()


def get_float(cp, section, key, default=None) -> float:
    raw = _raw(cp, section, key, None if default is None else repr(default))
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def get_int(cp, section, key, default=None) -> int:
    raw = _raw(cp, section, key, None if default is None else repr(default))
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def get_bool(cp, section, key, default: bool) -> bool:
    raw = get_str(cp, section, key, "true" if default else "false").lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


def get_choice(cp, section, key, choices, default=None) -> str:
    val = get_str(cp, section, key, default)
    if val not in choices:
        raise ConfigError(f"[{section}] {key} = {val!r}; expected one of {tuple(choices)}")
    return val


def parse_float_list(text: str, *, what: str = "list") -> tuple[float, ...]:
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise ConfigError(f"empty {what}")
    try:
        return tuple(float(tok) for tok in items)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc


def parse_int_list(text: str, *, what: str = "list") -> tuple[int, ...]:
    values = parse_float_list(text, what=what)
    for v in values:
        if not v.is_integer():
            raise ConfigError(f"{what} = {text.strip()!r}: {v!r} is not an integer")
    return tuple(int(v) for v in values)


def parse_entries(text: str, form: str, build, *, what: str) -> list:
    """``build(*fields)`` of each comma-separated entry of colon fields spelled ``form``.

    A wrong field count, or a ``ValueError`` from ``build``, is a :class:`ConfigError`
    naming the entry.
    """
    entries = []
    for tok in text.split(","):
        fields = [s.strip() for s in tok.split(":")]
        if len(fields) != form.count(":") + 1:
            raise ConfigError(f"{what} entry {tok!r}; expected {form}")
        try:
            entries.append(build(*fields))
        except ValueError as exc:
            raise ConfigError(f"{what} entry {tok!r}: {exc}") from exc
    return entries


def parse_schedule(text: str, *, what: str = "schedule") -> tuple[float, ...]:
    """Parse a time schedule: comma list, linspace:a,b,n, or logspace:a,b,n."""
    text = text.strip()
    for kind in ("linspace", "logspace"):
        if text.startswith(kind + ":"):
            args = parse_float_list(text[len(kind) + 1 :], what=what)
            if len(args) != 3:
                raise ConfigError(f"{what}: {kind} needs start,stop,count, got {text!r}")
            a, b, n = args[0], args[1], int(args[2])
            if n < 1 or n != args[2]:
                raise ConfigError(f"{what}: count must be a positive integer, got {args[2]}")
            if kind == "linspace":
                return tuple(float(t) for t in np.linspace(a, b, n))
            if a <= 0 or b <= 0:
                raise ConfigError(f"{what}: logspace endpoints must be positive")
            return tuple(float(t) for t in np.geomspace(a, b, n))
    return parse_float_list(text, what=what)


def parse_grid(cp: configparser.ConfigParser) -> SpectralGrid:
    dim = get_int(cp, "grid", "dim")
    if dim not in (1, 2):
        raise ConfigError(f"[grid] dim must be 1 or 2, got {dim}")
    lengths = parse_float_list(get_str(cp, "grid", "length"), what="[grid] length")
    modes = parse_int_list(get_str(cp, "grid", "modes"), what="[grid] modes")
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(modes) == 1:
        modes = modes * dim
    if len(lengths) != dim or len(modes) != dim:
        raise ConfigError(f"[grid] length and modes need one entry, or one per axis of dim = {dim}")
    try:
        return make_grid(dim=dim, lengths=lengths, modes=modes)
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc


def parse_params(cp: configparser.ConfigParser, dim: int) -> RieszParams:
    has_alpha = cp.has_option("params", "alpha")
    has_sstar = cp.has_option("params", "s_star")
    if has_alpha == has_sstar:
        raise ConfigError("[params] needs exactly one of alpha or s_star")
    coefficients = {key: get_float(cp, "params", key, 1.0) for key in ("lam", "kappa", "rho_bar")}
    try:
        if has_alpha:
            return RieszParams(dim=dim, alpha=get_float(cp, "params", "alpha"), **coefficients)
        return RieszParams.from_s_star(dim=dim, s_star=get_float(cp, "params", "s_star"),
                                       **coefficients)
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from exc


def parse_solver_config(cp: configparser.ConfigParser) -> SolverConfig:
    dt = get_float(cp, "solver", "dt")
    t_end = get_float(cp, "solver", "t_end")
    integrator = get_choice(cp, "solver", "integrator", INTEGRATORS, "ifrk4")
    dealias = get_float(cp, "solver", "dealias", 2.0 / 3.0)
    floor = get_float(cp, "solver", "positivity_floor", 0.01)
    linear_only = get_bool(cp, "solver", "linear_only", False)
    raw_times = get_str(cp, "solver", "snapshot_times", "")
    times = parse_schedule(raw_times, what="snapshot_times") if raw_times else (t_end,)
    try:
        return SolverConfig(dt=dt, t_end=t_end, integrator=integrator, dealias=dealias,
                            snapshot_times=times, positivity_floor=floor,
                            linear_only=linear_only)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc


def parse_preset(cp: configparser.ConfigParser) -> dict:
    """Initial-data preset keys, validated: the keyword arguments of ``perturbation_presets``."""
    kind = get_choice(cp, "preset", "kind", PRESETS)
    out = {
        "kind": kind,
        "amplitude": get_float(cp, "preset", "amplitude"),
        "sigma1": get_float(cp, "preset", "sigma1", -0.5),
        "cutoff": get_float(cp, "preset", "cutoff", 1.0),
        "mode": get_int(cp, "preset", "mode", 1),
        "width": get_float(cp, "preset", "width", 0.25),
    }
    if not (0.0 < out["amplitude"] < 1.0):
        raise ConfigError(f"[preset] amplitude must lie in (0, 1), got {out['amplitude']}")
    return out


def resolve_run(cp: configparser.ConfigParser,
                grid: SpectralGrid) -> tuple[RieszParams, SolverConfig, dict]:
    """Params, solver config and initial-data preset of a run on ``grid``."""
    return parse_params(cp, grid.dim), parse_solver_config(cp), parse_preset(cp)


def override(cp: configparser.ConfigParser, section: str, key: str,
             value: str) -> configparser.ConfigParser:
    """A copy of ``cp`` with ``[section] key = value``.

    Setting ``[params] alpha`` or ``s_star`` removes the other spelling
    of the interaction exponent, as ``[params]`` takes exactly one.
    """
    child = configparser.ConfigParser()
    child.read_dict({name: dict(cp.items(name, raw=True)) for name in cp.sections()})
    if not child.has_section(section):
        child.add_section(section)
    child.set(section, key, value)
    if section == "params" and key in ("alpha", "s_star"):
        child.remove_option(section, "s_star" if key == "alpha" else "alpha")
    return child
