"""In-memory span recorder for the traced benchmark run.

The tracer replaces each public layer function with a wrapper in the
namespace where its caller looks the name up (``rieszflow.cli.integrate``,
``rieszflow.solver.propagator``, ``numpy.fft.fftn``, ...).  A wrapper
records one span ``[name, start, end, parent, extra]`` per call; the
parent is the innermost open span, so the spans of one pass form a tree
under the pass's root span.  Spans stay in memory and are written out
when the benchmark ends.  The wrappers are installed only for the
duration of a traced pass.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "pass"

_FFT = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
        "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")

#: span name -> (module, attribute) pairs to wrap under that name
TARGETS = {
    "fft": [("numpy.fft", name) for name in _FFT],
    "solver.integrate": [("rieszflow.cli", "integrate"), ("rieszflow.solver", "integrate")],
    "spectrum.propagator": [("rieszflow.solver", "propagator")],
    "grid.apply_multiplier": [("rieszflow.grid", "apply_multiplier")],
    "grid.lp_norm": [(mod, "lp_norm") for mod in (
        "rieszflow.littlewood_paley", "rieszflow.diagnostics", "rieszflow.solver", "rieszflow.cli")],
    "littlewood_paley.besov_norm": [(mod, "besov_norm") for mod in (
        "rieszflow.littlewood_paley", "rieszflow.diagnostics", "rieszflow.cli")],
    "littlewood_paley.dyadic_block": [(mod, "dyadic_block") for mod in (
        "rieszflow.littlewood_paley", "rieszflow.diagnostics", "rieszflow.cli")],
    "littlewood_paley.chemin_lerner_norm": [("rieszflow.littlewood_paley", "chemin_lerner_norm")],
    "diagnostics.energy_functionals": [("rieszflow.diagnostics", "energy_functionals"),
                                       ("rieszflow.cli", "energy_functionals")],
    "diagnostics.lyapunov_block": [("rieszflow.diagnostics", "lyapunov_block")],
    "diagnostics.residual": [("rieszflow.diagnostics", "density_equation_residual"),
                             ("rieszflow.diagnostics", "z_equation_residual")],
    "snapshots.write": [("rieszflow.cli", "write_snapshot"), ("rieszflow.snapshots", "write_snapshot")],
    "snapshots.read": [("rieszflow.snapshots", "read_snapshot")],
    "cli.main": [("rieszflow.cli", "main")],
    "cli.run_experiment": [("rieszflow.cli", "run_experiment")],
}


def _fft_extra(args, out):
    """(points transformed, bytes computed as input plus output array sizes)."""
    a = np.asarray(args[0])
    return a.size, a.nbytes + out.nbytes


def _file_bytes(args, out):
    return os.path.getsize(args[0])


EXTRA = {"fft": _fft_extra, "snapshots.write": _file_bytes, "snapshots.read": _file_bytes}

#: per-layer metric name -> unit, in report order
UNITS = {
    "fft.calls": "count", "fft.busy_s": "s", "fft.points": "count", "fft.bytes_computed": "bytes",
    "solver.integrate.calls": "count", "solver.integrate.self_s": "s", "solver.steps": "count",
    "solver.fft_per_step": "calls/step", "solver.fft_floor_ratio": "ratio",
    "spectrum.propagator.calls": "count", "spectrum.propagator.busy_s": "s",
    "grid.apply_multiplier.calls": "count", "grid.apply_multiplier.self_s": "s",
    "grid.lp_norm.calls": "count", "grid.lp_norm.busy_s": "s",
    "littlewood_paley.besov_norm.calls": "count", "littlewood_paley.besov_norm.self_s": "s",
    "littlewood_paley.dyadic_block.calls": "count", "littlewood_paley.dyadic_block.busy_s": "s",
    "littlewood_paley.chemin_lerner_norm.busy_s": "s", "littlewood_paley.fft_per_norm": "calls/norm",
    "diagnostics.energy_functionals.calls": "count", "diagnostics.energy_functionals.self_s": "s",
    "diagnostics.lyapunov_block.calls": "count", "diagnostics.lyapunov_block.self_s": "s",
    "diagnostics.residual.busy_s": "s",
    "snapshots.write.calls": "count", "snapshots.write.busy_s": "s", "snapshots.write.bytes": "bytes",
    "snapshots.read.calls": "count", "snapshots.read.busy_s": "s", "snapshots.read.bytes": "bytes",
    "cli.run_experiment.busy_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Records spans around the layer calls of traced passes."""

    def __init__(self):
        self.passes: list[list] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self._spans))
        self._spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                span[4] = extra(args, out)
            return out

        return traced

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for module, attr in targets:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, fn):
        """Run ``fn`` as one traced pass under a root span; keep its spans."""
        self._spans, self._stack = [], []
        self.install()
        root = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(root)
            self.uninstall()
            self.passes.append(self._spans)

    def write(self, path) -> None:
        """Write every recorded span as gzipped JSON lines [pass, id, parent, name, start, end, extra]."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["pass", "id", "parent", "name", "start_s", "end_s", "extra"],
                                 "clock": "perf_counter, relative to the pass's root span"}) + "\n")
            for k, spans in enumerate(self.passes):
                t0 = spans[0][1]
                for i, (name, start, end, parent, extra) in enumerate(spans):
                    fh.write(json.dumps([k, i, parent, name, start - t0, end - t0, extra]) + "\n")


def layer_metrics(spans: list, steps: int, artifact_bytes: int) -> dict:
    """Per-layer counts and times of one traced pass.

    ``calls`` and ``busy_s`` count only spans with no ancestor of the same
    name, so recursive calls (``dyadic_block`` on a vector field) count
    once.  A span's self time is its duration minus its children's.
    """
    n = len(spans)
    child = [0.0] * n
    ancestors: list = [frozenset()] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            ancestors[i] = ancestors[parent] | {spans[parent][0]}

    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    extra: dict = defaultdict(int)
    # FFT calls and FFT time under an integrate or besov_norm span
    fft_calls_in: dict = defaultdict(int)
    fft_busy_in: dict = defaultdict(float)
    for i, (name, start, end, parent, x) in enumerate(spans):
        duration = end - start
        self_s[name] += duration - child[i]
        if name in ancestors[i]:
            continue
        calls[name] += 1
        busy[name] += duration
        if name == "fft" and x:
            extra["fft.points"] += x[0]
            extra["fft.bytes"] += x[1]
            for owner in ancestors[i] & {"solver.integrate", "littlewood_paley.besov_norm"}:
                fft_calls_in[owner] += 1
                fft_busy_in[owner] += duration
        else:
            extra[name] += x

    def ratio(num, den):
        return num / den if den else 0.0

    c, b, s = calls.__getitem__, busy.__getitem__, self_s.__getitem__
    steps_taken = steps * c("solver.integrate")
    return {
        "fft.calls": c("fft"),
        "fft.busy_s": b("fft"),
        "fft.points": extra["fft.points"],
        "fft.bytes_computed": extra["fft.bytes"],
        "solver.integrate.calls": c("solver.integrate"),
        "solver.integrate.self_s": s("solver.integrate"),
        "solver.steps": steps_taken,
        "solver.fft_per_step": ratio(fft_calls_in["solver.integrate"], steps_taken),
        "solver.fft_floor_ratio": ratio(b("solver.integrate"), fft_busy_in["solver.integrate"]),
        "spectrum.propagator.calls": c("spectrum.propagator"),
        "spectrum.propagator.busy_s": b("spectrum.propagator"),
        "grid.apply_multiplier.calls": c("grid.apply_multiplier"),
        "grid.apply_multiplier.self_s": s("grid.apply_multiplier"),
        "grid.lp_norm.calls": c("grid.lp_norm"),
        "grid.lp_norm.busy_s": b("grid.lp_norm"),
        "littlewood_paley.besov_norm.calls": c("littlewood_paley.besov_norm"),
        "littlewood_paley.besov_norm.self_s": s("littlewood_paley.besov_norm"),
        "littlewood_paley.dyadic_block.calls": c("littlewood_paley.dyadic_block"),
        "littlewood_paley.dyadic_block.busy_s": b("littlewood_paley.dyadic_block"),
        "littlewood_paley.chemin_lerner_norm.busy_s": b("littlewood_paley.chemin_lerner_norm"),
        "littlewood_paley.fft_per_norm": ratio(fft_calls_in["littlewood_paley.besov_norm"],
                                                c("littlewood_paley.besov_norm")),
        "diagnostics.energy_functionals.calls": c("diagnostics.energy_functionals"),
        "diagnostics.energy_functionals.self_s": s("diagnostics.energy_functionals"),
        "diagnostics.lyapunov_block.calls": c("diagnostics.lyapunov_block"),
        "diagnostics.lyapunov_block.self_s": s("diagnostics.lyapunov_block"),
        "diagnostics.residual.busy_s": b("diagnostics.residual"),
        "snapshots.write.calls": c("snapshots.write"),
        "snapshots.write.busy_s": b("snapshots.write"),
        "snapshots.write.bytes": extra["snapshots.write"],
        "snapshots.read.calls": c("snapshots.read"),
        "snapshots.read.busy_s": b("snapshots.read"),
        "snapshots.read.bytes": extra["snapshots.read"],
        "cli.run_experiment.busy_s": b("cli.run_experiment"),
        "cli.self_s": s("cli.main") + s("cli.run_experiment"),
        "cli.artifact_bytes": artifact_bytes,
    }
