"""rieszflow benchmark: one command, three workloads, one JSON result line.

    python3 bench/run.py --workload {decay-1d,simulate-2d,analyze-2d} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/``.
Each invocation starts its worker processes one after another, each
with one BLAS/OpenMP thread: with ``--trace 0``, two set-up-only
workers, the measuring worker and two more set-up-only workers
(``setup_s`` is the median of the five set-ups) and the end-to-end
metrics; with ``--trace 1``, one worker
that alternates untraced and traced passes and reports the per-layer
metrics.  Human-readable lines come first; the last stdout line is the
JSON result.  Per-run records and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decay-1d", "simulate-2d", "analyze-2d")
THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_ONLY_RUNS = 4
#: every run ends well inside 180 s, whatever --seconds says
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_record() -> dict:
    """CPU model and cache sizes, read from /proc and /sys."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"model": model, "caches": caches}


def spawn(args, workdir: Path, deadline: float, extra=()) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, **THREAD_VARS)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
           "--workdir", str(workdir), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<46} {value!r:>24} {unit:<10} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: 1D N=256 / 2D 32x32, for the smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rieszflow" / "__init__.py").is_file():
        print(f"error: no rieszflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"spans-{tag}.ndjson.gz"
    try:
        setups = []
        if args.trace:
            main_run = spawn(args, work / "main", deadline, ["--trace", str(trace_file)])
        else:
            # half the set-up-only workers before the measuring one and half
            # after, so the set-ups sample the machine at both ends of the run
            for k in range(SETUP_ONLY_RUNS):
                if k == SETUP_ONLY_RUNS // 2:
                    main_run = spawn(args, work / "main", deadline)
                setups.append(spawn(args, work / f"setup{k}", deadline, ["--setup-only"])["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    setups.append(main_run["setup_s"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": main_run["numpy"], "cpu": cpu_record(), "threads": THREAD_VARS,
        "setup_s": setups, "pass_s": main_run["pass_s"], "reference_s": main_run["reference_s"],
    }
    passes = main_run["pass_s"]
    wall = statistics.median(passes)
    reference = statistics.median(main_run["reference_s"])
    attempted, failed = main_run["attempted"], main_run["failed"]
    print(f"rieszflow benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    print(f"  run record: {json.dumps({k: v for k, v in record.items() if not k.endswith('_s')})}")
    for msg in main_run["problems"]:
        print(f"  output check failed: {msg}")

    if args.trace:
        traced = main_run["traced_pass_s"]
        record["traced_pass_s"] = traced
        metrics = dict(main_run["layers"])
        metrics["trace.overhead_frac"] = statistics.median(traced) / wall - 1.0
        units = main_run["layer_units"]
        print(f"  per-layer metrics, median over {len(traced)} traced passes "
              f"({len(passes)} untraced); spans in {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": wall / reference,
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"  end-to-end metrics, {len(passes)} passes, {len(setups)} set-ups")
    for name, value in metrics.items():
        report(name, value, units[name])
    if not args.trace:
        print("  not gated (raw times drift with the load on a shared machine):")
        report("wall_s", wall, "s", f"(median; min {min(passes)!r}, max {max(passes)!r})")
        report("reference_s", reference, "s", "(median)")
        report("snapshots_per_s", main_run["snapshots_per_pass"] / wall, "1/s")
        if main_run["steps_per_pass"]:
            report("mode_steps_per_s", main_run["points"] * main_run["steps_per_pass"] / wall, "1/s")
        report("failed_frac", failed / attempted, "fraction", f"({failed}/{attempted})")

    record["metrics"] = metrics
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
