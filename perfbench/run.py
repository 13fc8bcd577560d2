"""Benchmark of the mixtask pipeline; run from the repository root.

    python3 perfbench/run.py --workload toy-full --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, times passes for --seconds, checks
every pass's outputs, and prints a full JSON report line followed by the
result line: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. The library is imported
from ./src; without it the benchmark exits with code 2. Scratch files go to
./.perfbench/ (the run's work directory is removed at exit; spans and the
report stay). See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def limit_blas_threads() -> None:
    """Run BLAS/OpenMP on one thread; must run before numpy is imported.

    The model's matrices are small: a second BLAS thread barely shortens a
    pass, but it makes every pass wait on a second, shared core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads_in_use() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def machine(nproc: int, load_at_start: tuple) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
        "loadavg_start": list(load_at_start),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    if not (SRC / "mixtask" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import mixtask

    if not Path(mixtask.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: mixtask imported from {mixtask.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work,
                               spans_path=OUT / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["machine"] = machine(nproc, load_at_start)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(report))
    if report["metrics"] is None:
        print("perfbench: no pass succeeded; see the report above", file=sys.stderr)
        return 1
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in report["metrics"].items()
            if name != "fail_ratio"
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
