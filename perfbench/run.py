#!/usr/bin/env python3
"""relaytomo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,sweep,scaled} --seed N \\
        --seconds S --trace {0,1} [--tiny]

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
is a separate run that wraps each layer and reports per-layer metrics.
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it, and .perfbench_out/result-*.json, hold
the environment, output digests and per-metric sample summaries.
See perfbench/README.md for the workloads and metrics.
"""

import os
import sys

# Set before numpy is imported here or in a CLI subprocess: numpy's
# OpenBLAS would otherwise size its pool for up to 64 threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cli", "sweep", "scaled")


def environment() -> dict:
    """Where the numbers come from: code identity, machine and thread caps."""
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "relaytomo").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs that still run every stage (smoke test)")
    args = ap.parse_args(argv)

    if not (SRC / "relaytomo" / "__init__.py").is_file():
        print(f"benchmark: no relaytomo package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import commands
    import inverse
    from metrics import END_TO_END, PER_LAYER, Outcome

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    started = time.perf_counter()
    dump = OUT / f"spans-{tag}.json"
    try:
        if args.workload == "cli":
            run = commands.trace(SRC, work, args.tiny, dump) if args.trace \
                else commands.measure(SRC, work, args.seconds, args.tiny)
        else:
            run = inverse.trace(args.workload, args.seed, args.tiny, dump) if args.trace \
                else inverse.measure(args.workload, args.seed, args.seconds, args.tiny)
    except Exception as exc:  # the run failed as a whole; report it, do not hide it
        run = Outcome()
        run.operation(args.workload, [f"{type(exc).__name__}: {exc}"])
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    catalog = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in catalog if name not in run.metrics]
    if missing:
        run.operation("metrics", [f"not measured: {', '.join(missing)}"])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        "problems": run.problems[:50],
        **run.details,
    }
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": float(run.metrics[name]), "unit": unit}
                    for name, unit in catalog.items() if name in run.metrics},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**detail, "result": result}, indent=2) + "\n")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
