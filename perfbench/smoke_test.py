"""Smoke test of the benchmark: every workload at tiny sizes, timed and traced.

Runs the same code path, checks and tracing as the full benchmark in about
a minute.  Run with ``python3 -m pytest perfbench/smoke_test.py`` or
``python3 perfbench/smoke_test.py``; the repository's own test suite does not
collect it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--smoke", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    return [json.loads(line) for line in out.stdout.splitlines()
            if line.startswith("{")]


def _names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_timed_smoke():
    results = _run(0)
    assert len(results) == 3
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == _names("end_to_end")
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_smoke():
    results = _run(1)
    for res in results:
        assert res["correct"], "a check failed or an expected span never fired"
        assert list(res["metrics"]) == _names("per_layer")
        assert res["metrics"]["krr.fit.calls"]["value"] >= 1


if __name__ == "__main__":
    test_timed_smoke()
    test_traced_smoke()
    print("smoke ok")
