"""Flat INI-style configuration parsing for the command-line harness.

A run is described by one declarative key/value file; there is no
programmatic configuration.  :data:`KEYS` declares every key the file
may hold: how its text is read (type, range or choices), its default,
and the commands that read it; a default the library declares is read
from there.  :func:`get` reads a value through it, and
:func:`check_keys` refuses a section or key that the invoked command
does not read.  A file is read as UTF-8, and a ``%`` in it is literal.

Values are plain scalars, comma lists, or schedule strings.  A schedule
is either an explicit comma list of floats, ``linspace:start,stop,n``
or ``logspace:start,stop,n`` (log-spaced between the two positive
endpoints).
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import inspect
import io
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .grid import FieldState, RieszParams, SpectralGrid, make_grid
from .littlewood_paley import BesovSpec, check_wu_range
from .solver import INTEGRATORS, PRESETS, SolverConfig, perturbation_presets
from .spectrum import asymptotic_check, linear_decay_quadrature

__all__ = [
    "ConfigError",
    "KEYS",
    "check_keys",
    "get",
    "load_config",
    "read_config",
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


class ConfigError(ValueError):
    """A configuration file is missing, malformed, or inconsistent."""


def _parser() -> configparser.ConfigParser:
    """A config of literal values; no header names "", so check_keys refuses a [DEFAULT] section."""
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="",
                                     interpolation=None)


def read_config(path: str | Path) -> tuple[configparser.ConfigParser, str]:
    """The config in the file at ``path``, read once as UTF-8, and the hex sha256 of its bytes."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode {path} as UTF-8: {exc}") from exc
    cp = _parser()
    try:
        # newline=None reads line ends as a text-mode open() does
        cp.read_file(io.StringIO(text, newline=None), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cp, hashlib.sha256(data).hexdigest()


def load_config(path: str | Path) -> configparser.ConfigParser:
    """The config in the file at ``path``, raising :class:`ConfigError` with diagnostics."""
    return read_config(path)[0]


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


def _typed(convert, noun: str):
    """``convert(text)``; its ValueError or KeyError is "[section] key = 'text' is not {noun}"."""
    def parse(text: str, *, what: str):
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ConfigError(f"{what} = {text!r} is not {noun}") from None
    return parse


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
_number = _typed(float, "a number")
_integer = _typed(int, "an integer")
_boolean = _typed(lambda text: _BOOLEANS[text.lower()], "a boolean")
_text = _typed(str, "text")


def _choice(*choices: str):
    def parse(text: str, *, what: str) -> str:
        if text not in choices:
            raise ConfigError(f"{what} = {text!r}; expected one of {choices}")
        return text
    return parse


def _ranged(parse, ok, rule: str):
    """``parse``, then refuse a value for which ``ok`` is false: "[section] key must {rule}"."""
    def ranged(text: str, *, what: str):
        value = parse(text, what=what)
        if not ok(value):
            raise ConfigError(f"{what} must {rule}, got {value!r}")
        return value
    return ranged


def _dissipation_orders(text: str, *, what: str) -> tuple[float, ...]:
    """Comma list of ``alpha_w``, each inside the p = 2 range of the Wu bracket."""
    orders = parse_float_list(text, what=what)
    for alpha_w in orders:
        try:
            check_wu_range(2, alpha_w)
        except ValueError as exc:
            raise ConfigError(f"{what} = {alpha_w}: {exc}") from exc
    return orders


_besov = partial(parse_entries, form="s:p:r:flavor",
                 build=lambda s, p, r, flavor: BesovSpec(float(s), float(p), float(r), flavor))
_pairs = partial(parse_entries, form="sigma1:sigma", build=lambda s1, s: (float(s1), float(s)))
_dimension = _ranged(_integer, lambda d: d in (1, 2), "be 1 or 2")

#: sweep axis -> the (section, key) each child run overrides, and how [sweep] values are read
SWEEP_AXES = {
    "s_star": ("params", "s_star", parse_float_list),
    "amplitude": ("preset", "amplitude", parse_float_list),
    "J1": ("diagnostics", "j1", parse_int_list),
    "grid": ("grid", "modes", parse_int_list),
    "dt": ("solver", "dt", parse_float_list),
}

#: default of a key a run cannot do without
REQUIRED = object()


def _default(home, name: str) -> str:
    """The default of parameter ``name`` of the function or dataclass ``home``, as config text."""
    value = inspect.signature(home).parameters[name].default
    return value if isinstance(value, str) else repr(value)


class Key(NamedTuple):
    """A key: ``parse(text, what="[section] key")``, default text (None: computed), its readers."""

    parse: Callable[..., object]
    default: object
    kinds: tuple[str, ...]


_RUN = ("simulate", "sweep")

KEYS: dict[tuple[str, str], Key] = {
    ("experiment", "kind"): Key(_choice(*KINDS), None, KINDS),
    # an indented continuation line joins a line break into the value, which would split CSV headers
    ("experiment", "name"): Key(_ranged(_text, lambda name: "\n" not in name, "be one line"), None, KINDS),
    ("experiment", "seed"): Key(_ranged(_integer, lambda s: s >= 0, "be non-negative"), "0", KINDS),
    # every command puts a [grid] it is given into its artifact headers
    ("grid", "dim"): Key(_dimension, REQUIRED, KINDS),
    ("grid", "length"): Key(parse_float_list, REQUIRED, KINDS),
    ("grid", "modes"): Key(parse_int_list, REQUIRED, KINDS),
    ("params", "alpha"): Key(_number, None, _RUN),
    ("params", "s_star"): Key(_number, None, _RUN),
    ("params", "lam"): Key(_number, _default(RieszParams, "lam"), _RUN),
    ("params", "kappa"): Key(_number, _default(RieszParams, "kappa"), _RUN),
    ("params", "rho_bar"): Key(_number, _default(RieszParams, "rho_bar"), _RUN),
    ("preset", "kind"): Key(_choice(*PRESETS), REQUIRED, _RUN),
    ("preset", "amplitude"): Key(_number, REQUIRED, _RUN),
    # each kind's own keys, typed and defaulted by their defaults in PRESETS
    **{("preset", key): Key(_integer if isinstance(default, int) else _number, repr(default), _RUN)
       for keys in PRESETS.values() for key, default in keys.items()},
    ("solver", "dt"): Key(_number, REQUIRED, _RUN),
    ("solver", "t_end"): Key(_number, REQUIRED, _RUN),
    ("solver", "integrator"): Key(_choice(*INTEGRATORS), _default(SolverConfig, "integrator"), _RUN),
    ("solver", "dealias"): Key(_number, _default(SolverConfig, "dealias"), _RUN),
    ("solver", "positivity_floor"): Key(_number, _default(SolverConfig, "positivity_floor"), _RUN),
    ("solver", "snapshot_times"): Key(parse_schedule, None, _RUN),
    ("diagnostics", "j1"): Key(_integer, "0", ("simulate",)),
    ("diagnostics", "energy"): Key(_boolean, "true", ("simulate",)),
    ("diagnostics", "besov"): Key(_besov, None, ("simulate",)),
    ("spectrum", "s_star"): Key(parse_float_list, "0.25,0.5,0.75", ("linear-analyze",)),
    ("spectrum", "xi_min"): Key(_number, "1e-4", ("linear-analyze",)),
    ("spectrum", "xi_max"): Key(_number, "1e4", ("linear-analyze",)),
    ("spectrum", "points"): Key(_ranged(_integer, lambda n: n >= 2, "be >= 2"), "200",
                                ("linear-analyze",)),
    ("spectrum", "decades"): Key(_ranged(_integer, lambda n: n >= 1, "be >= 1"),
                                 _default(asymptotic_check, "decades"), ("linear-analyze",)),
    ("decay", "s_star"): Key(parse_float_list, "0.25,0.75", ("decay-verify",)),
    ("decay", "dim"): Key(_dimension, _default(linear_decay_quadrature, "dim"), ("decay-verify",)),
    ("decay", "cutoff"): Key(_number, _default(linear_decay_quadrature, "cutoff"), ("decay-verify",)),
    ("decay", "times"): Key(parse_schedule, "logspace:100,10000,25", ("decay-verify",)),
    ("decay", "pairs"): Key(_pairs, None, ("decay-verify",)),
    ("lp", "samples"): Key(_ranged(_integer, lambda n: n >= 1, "be >= 1"), "20", ("lp-inspect",)),
    ("lp", "alpha_w"): Key(_dissipation_orders, "0.25,0.75", ("lp-inspect",)),
    ("sweep", "axis"): Key(_choice(*SWEEP_AXES), REQUIRED, ("sweep",)),
    # read by the axis's parser in SWEEP_AXES
    ("sweep", "values"): Key(_text, REQUIRED, ("sweep",)),
}


def get(cp: configparser.ConfigParser, section: str, key: str):
    """``[section] key`` read through :data:`KEYS`; an absent or empty key gives its default."""
    row = KEYS[section, key]
    text = cp.get(section, key, fallback="").strip() or row.default
    if text is REQUIRED:
        raise ConfigError(f"missing key {key!r} in section [{section}]" if cp.has_section(section)
                          else f"missing section [{section}]")
    return None if text is None else row.parse(text, what=f"[{section}] {key}")


def _hint(name: str, known) -> str:
    close = difflib.get_close_matches(name, known, n=1)
    return f" (did you mean {close[0]}?)" if close else ""


def check_keys(cp: configparser.ConfigParser, kind: str) -> None:
    """Refuse every section and key of ``cp`` that the command ``kind`` does not read."""
    problems = []
    for section in cp.sections():
        known = [key for name, key in KEYS if name == section]
        if not known:
            sections = [f"[{name}]" for name, _ in KEYS]
            problems.append(f"[{section}] is not a config section{_hint(f'[{section}]', sections)}")
        for key in cp.options(section):
            if key not in known:
                problems.append(f"[{section}] {key} is not a config key{_hint(key, known)}")
            elif kind not in KEYS[section, key].kinds:
                problems.append(f"[{section}] {key} is not read by {kind}")
    if problems:
        raise ConfigError("; ".join(problems))


def parse_grid(cp: configparser.ConfigParser) -> SpectralGrid:
    dim, lengths, modes = (get(cp, "grid", key) for key in ("dim", "length", "modes"))
    # one entry stands for every axis
    lengths, modes = (entries * dim if len(entries) == 1 else entries for entries in (lengths, modes))
    if len(lengths) != dim or len(modes) != dim:
        raise ConfigError(f"[grid] length and modes need one entry, or one per axis of dim = {dim}")
    try:
        return make_grid(dim=dim, lengths=lengths, modes=modes)
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc


def parse_params(cp: configparser.ConfigParser, dim: int) -> RieszParams:
    alpha, s_star = get(cp, "params", "alpha"), get(cp, "params", "s_star")
    if (alpha is None) == (s_star is None):
        raise ConfigError("[params] needs exactly one of alpha or s_star")
    coefficients = {key: get(cp, "params", key) for key in ("lam", "kappa", "rho_bar")}
    try:
        if s_star is None:
            return RieszParams(dim=dim, alpha=alpha, **coefficients)
        return RieszParams.from_s_star(dim=dim, s_star=s_star, **coefficients)
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from exc


def parse_solver_config(cp: configparser.ConfigParser) -> SolverConfig:
    values = {key: get(cp, "solver", key) for section, key in KEYS if section == "solver"}
    values["snapshot_times"] = values["snapshot_times"] or (values["t_end"],)
    try:
        return SolverConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc


def parse_preset(cp: configparser.ConfigParser) -> dict:
    """The keywords of ``perturbation_presets``.

    ``kind``, ``amplitude`` and the kind's own keys in :data:`~rieszflow.solver.PRESETS`
    are read through :data:`KEYS`; any other ``[preset]`` key given is passed on as its
    text, for ``perturbation_presets`` to refuse by name.
    """
    kind = get(cp, "preset", "kind")
    typed = {key: get(cp, "preset", key) for key in ["kind", "amplitude", *PRESETS[kind]]}
    return {**{key: cp.get("preset", key) for key in cp.options("preset")}, **typed}


def resolve_run(cp: configparser.ConfigParser, grid: SpectralGrid,
                seed: int) -> tuple[RieszParams, SolverConfig, FieldState]:
    """Params, solver config and initial state of a run on ``grid``, its preset drawn with ``seed``."""
    params, config, preset = parse_params(cp, grid.dim), parse_solver_config(cp), parse_preset(cp)
    try:
        return params, config, perturbation_presets(grid=grid, seed=seed, **preset)
    except ValueError as exc:
        raise ConfigError(f"[preset] {exc}") from exc


def override(cp: configparser.ConfigParser, section: str, key: str,
             value: str) -> configparser.ConfigParser:
    """A copy of ``cp`` with ``[section] key = value``.

    Setting ``[params] alpha`` or ``s_star`` removes the other spelling
    of the interaction exponent, as ``[params]`` takes exactly one.
    """
    child = _parser()
    child.read_dict({name: dict(cp.items(name)) for name in cp.sections()})
    child.read_dict({section: {key: value}})
    if section == "params" and key in ("alpha", "s_star"):
        child.remove_option(section, "s_star" if key == "alpha" else "alpha")
    return child
