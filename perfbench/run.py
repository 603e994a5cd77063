"""kernelval benchmark: time, check and optionally trace one workload.

    python3 perfbench/run.py --workload table2_put --seed 2024 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --smoke    # tiny sizes, seconds

Each run starts fresh worker processes: two that only set up (for the
set-up time median) and one that sets up, runs the workload's operation in a
closed loop for ``--seconds``, checks the outputs and, with ``--trace 1``,
runs one more operation with every layer wrapped in spans.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code
0 means the run completed, whether or not its checks passed; 2 means it
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("table2_put", "value_process", "bound_audit")
SETUP_PROBES = 2  # set-up-only processes per run, beside the measuring one
DEADLINE_S = 170.0  # one run must end within 180 s


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(args, extra, deadline):
    """Run one worker process; returns its result document."""
    result = os.path.join(HERE, "out", f"result-{args.workload}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", "smoke" if args.smoke else "full",
           "--spawned-at", repr(time.time()), "--result", result] + extra
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker for {args.workload} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker for {args.workload} exited with code {code}")
    with open(result) as fh:
        doc = json.load(fh)
    os.remove(result)
    return doc


def run_workload(args):
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    setups = [_worker(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    doc = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  deadline)
    setups.append(doc["setup_s"])
    check = doc["check"]
    spec = _spec()
    if args.trace:
        layers = dict(doc["layers"])
        layers["proc.blas_threads"] = max(doc["env"]["blas"]["threads"].values(), default=0)
        manifest = check.get("manifest_payoff_evaluations", 0)
        layers["manifest.payoff_evaluations"] = manifest
        layers["market.payoff.evals_minus_manifest"] = (
            layers["market.payoff.evals"] - manifest if manifest else 0)
        wanted = spec["per_layer"]
        values = layers
    else:
        wall = statistics.median(doc["samples_s"])
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["peak_rss_mb"],
            "err_t1_pct": check["err_t1_pct"],
            "pass_ratio": 1.0 - check["failed"] / check["attempted"],
            "paths_per_s": doc["paths_per_op"] / wall,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": "smoke" if args.smoke else "full", "seconds": args.seconds,
        "samples_s": doc["samples_s"], "setup_samples_s": setups,
        "check": check, "env": doc["env"], "warnings": doc["warnings"],
        "metrics": metrics,
    }
    if args.trace:
        record.update(fired=doc["fired"], bindings=doc["bindings"],
                      spans_file=doc["spans_file"], traced_s=doc["traced_s"])
    path = os.path.join(HERE, "out", f"{args.workload}-{record['size']}"
                        f"-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    """Human-readable lines, then the one-line result."""
    w = record["workload"]
    n = len(record["samples_s"])
    print(f"# {w}: {n} timed operation(s), median reported; seed {record['seed']}; "
          f"result file perfbench/out/{w}-{record['size']}-seed{record['seed']}"
          f"-trace{record['trace']}.json")
    for name, m in record["metrics"].items():
        print(f"{w} {name} = {m['value']!r} {m['unit']}")
    check = record["check"]
    for problem in check["problems"]:
        print(f"{w} CHECK FAILED: {problem}")
    for wr in record["warnings"]:
        print(f"{w} warning x{wr['count']}: {wr['warning']}")
    return {"correct": check["failed"] == 0, "attempted": check["attempted"],
            "failed": check["failed"],
            "metrics": record["metrics"]}


def main(argv=None):
    p = argparse.ArgumentParser(description="kernelval benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = p.parse_args(argv)
    # so that the worker is killed and waited for (see _worker) on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in (os.path.join("src", "kernelval", "__init__.py"),
                   os.path.join("configs", "bs2.cfg"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        args.workload = name
        try:
            lines.append(report(run_workload(args)))
        except (RuntimeError, OSError, KeyError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
