"""One benchmark process: set up a workload, time its passes, check every output.

``run.py`` starts this script with the BLAS/OpenMP thread counts pinned
to 1 and passes ``--spawned-at``, its ``time.monotonic()`` reading just
before the spawn, so the set-up time includes interpreter start and the
imports.  The script prints one JSON object on its last stdout line.

    python3 bench/worker.py --workload decay-1d --seed 1 --seconds 5 \\
        --workdir .bench_work/x --spawned-at 0 [--setup-only | --trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def reference_s() -> float:
    """Wall time of a fixed numpy/Python kernel that does not use rieszflow.

    The kernel mixes what the workloads spend their time on: small 1D
    FFTs, 256x256 FFTs and interpreted Python.  Dividing the median pass
    time by the median kernel time of the same run cancels most of the
    speed drift of a shared machine, which moves both alike.
    """
    rng = np.random.default_rng(0)
    x1 = rng.standard_normal(4096)
    x2 = rng.standard_normal((256, 256))
    t0 = time.perf_counter()
    for _ in range(600):
        np.fft.ifft(np.fft.fft(x1))
    for _ in range(40):
        np.fft.ifftn(np.fft.fftn(x2))
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - t0


def run_passes(wl, seconds: float, tracer=None) -> dict:
    """Time passes for about ``seconds``; with a tracer, every second pass is traced.

    Each pass is checked right after it ends, outside the timed region.
    An exception in a pass or in its check fails every operation of the
    pass.  The reference kernel runs once before the first pass and
    after every pass, outside the passes' timing; a first, unrecorded
    call warms its FFT plans.
    """
    wall, traced_wall, layers, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    reference_s()
    refs = [reference_s()]
    while True:
        traced = tracer is not None and len(wall) > len(traced_wall)
        t0 = time.perf_counter()
        try:
            out = tracer.call(wl.run_pass) if traced else wl.run_pass()
        except Exception as exc:
            out, found = None, [(None, f"pass raised {type(exc).__name__}: {exc}")]
        elapsed = time.perf_counter() - t0
        (traced_wall if traced else wall).append(elapsed)
        refs.append(reference_s())
        if out is not None:
            try:
                found = wl.check(out)
            except Exception as exc:
                found = [(None, f"check raised {type(exc).__name__}: {exc}")]
            if traced:
                layers.append(spans.layer_metrics(tracer.passes[-1], wl.steps_per_pass,
                                                  wl.artifact_bytes(out)))
            wl.discard(out)
        attempted += wl.ops_per_pass
        ops = {op for op, _ in found}
        failed += wl.ops_per_pass if None in ops else len(ops)
        problems.extend(msg for _, msg in found)
        # stop when another pass like this one would end after the deadline
        if (time.perf_counter() - start + elapsed + refs[-1] > seconds
                and (tracer is None or traced_wall)):
            break
    result = {"pass_s": wall, "reference_s": refs,
              "attempted": attempted, "failed": failed, "problems": problems[:20]}
    if tracer is not None:
        result["traced_pass_s"] = traced_wall
        result["layers"] = {name: statistics.median_low(row[name] for row in layers)
                            for name in layers[0]} if layers else {}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_FILE", default=None,
                        help="trace every second pass and write the spans to this file")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if not args.setup_only:
            tracer = spans.Tracer() if args.trace else None
            result.update(run_passes(wl, args.seconds, tracer))
            result.update(
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                points=wl.points,
                steps_per_pass=wl.steps_per_pass,
                snapshots_per_pass=wl.snapshots_per_pass,
                numpy=np.__version__,
            )
            if tracer is not None:
                tracer.write(args.trace)
                result["layer_units"] = spans.UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
