"""One benchmark process: set up a workload, time it, check it, maybe trace it.

Started by ``run.py`` in a fresh interpreter per run, so peak RSS and import
time belong to one workload.  Writes one JSON result file; all of its own
printing goes to stderr.

    python3 perfbench/worker.py --workload value_process --seed 2024 \
        --seconds 10 --trace 0 --size full --spawned-at <epoch s> --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _blas_threads():
    """Thread count of every OpenBLAS loaded into this process, by library."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _cpu_s():
    t = os.times()
    return t.user + t.system


def run(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, out_dir, args.seed, args.size)
    wl.setup()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        wl.cleanup()
        return {"setup_s": setup_s}

    samples, outputs = [], []
    stop = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        outputs.append(wl.op(len(outputs)))
        samples.append(time.perf_counter() - t0)
        if time.perf_counter() >= stop:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "samples_s": samples, "peak_rss_mb": peak_rss_mb,
              "paths_per_op": wl.paths_per_op}
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            outputs.append(wl.op(len(outputs)))
        finally:
            traced_s = time.perf_counter() - t0
            cpu_s = _cpu_s() - cpu0
            tracer.uninstall()
        metrics = layer_metrics(tracer)
        metrics["proc.cpu_s"] = cpu_s
        metrics["trace.overhead_s"] = traced_s - statistics.median(samples)
        result.update(traced_s=traced_s, layers=metrics, fired=tracer.fired(),
                      bindings=tracer.bindings())
        trace_file = os.path.join(out_dir, f"spans-{args.workload}-{args.size}"
                                  f"-seed{args.seed}.json")
        with open(trace_file, "w") as fh:
            json.dump(tracer.dump(), fh)
        result["spans_file"] = os.path.relpath(trace_file, ROOT)

    check = result["check"] = wl.check(outputs)
    if args.trace:
        missing = sorted(set(wl.expected_spans) - set(result["fired"]))
        check["problems"] += [f"span {name} never fired" for name in missing]
        check["failed"] += len(missing)
    wl.cleanup()
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sys.stderr):
        warnings.simplefilter("always")
        result = run(args)
        if not args.setup_only:
            result["env"] = environment()
    seen = {}
    for w in caught:
        key = f"{w.category.__name__}: {w.message} ({os.path.basename(w.filename)}:{w.lineno})"
        seen[key] = seen.get(key, 0) + 1
    result["warnings"] = [{"warning": k, "count": n} for k, n in seen.items()]
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
