"""One pass of a workload in a fresh process; run.py starts it.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py --t0 <monotonic start> --import-only
    python3 perfbench/child.py --t0 <monotonic start> --workload ns-budget \
        --seed 1 --trace 0 --out <pass directory>

``--t0`` is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so set-up time covers interpreter start plus the
import of aoisched. An import-only run prints one JSON line with the set-up
time and the numerical environment. A workload pass runs the workload's
commands through ``aoisched.cli.main`` and writes ``record.json`` (times,
peak memory, exit codes and, when traced, the per-layer metrics) plus each
command's captured output into the pass directory.
"""

import time  # first, so the import below is timed from a cheap start

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback

import aoisched.cli as cli

IMPORTED = time.monotonic()

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script dir)


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, read through its own API."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ} or "unset (library default)",
        "aoisched": os.path.dirname(cli.__file__),
    }


def run_pass(argvs: list[list[str]], traced: bool, out: str) -> dict:
    """Run the CLI argument lists in order; outputs go to ``out``."""
    main = cli.main
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(cli.main, "cli.main")
    exit_codes = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except Exception:  # a crashed command fails its operations
                traceback.print_exc()
                code = -1
        exit_codes.append(code)
        with open(os.path.join(out, f"cmd{i}.stdout"), "w") as handle:
            handle.write(stdout.getvalue())
        with open(os.path.join(out, f"cmd{i}.stderr"), "w") as handle:
            handle.write(stderr.getvalue())
    sweep_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "sweep_s": sweep_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # CPU time of the whole process; above sweep_s when BLAS threads run
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit_codes": exit_codes,
    }
    if tracer is not None:
        from tracer import layer_metrics, price_points

        record["layers"] = layer_metrics(tracer.spans)
        record["price_points"] = price_points(tracer.spans)
        record["layers_seen"] = sorted({span[0] for span in tracer.spans})
        record["missing_sites"] = tracer.missing_sites
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    setup_s = IMPORTED - args.t0
    if args.import_only:
        print(json.dumps({"setup_s": setup_s, **environment()}))
        return 0
    argvs = workloads.commands(args.workload, args.seed, args.out)
    record = run_pass(argvs, bool(args.trace), args.out)
    record["setup_s"] = setup_s
    with open(os.path.join(args.out, "record.json"), "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
