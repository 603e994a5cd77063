"""SHA-256 of every file the eight kernelval commands write on each config.

    PYTHONPATH=src python3 tools/artifact_digests.py configs/bs2.cfg a.cfg > a.txt

For each config path given (``configs/bs2.cfg`` if none), runs each command
at ``--threads`` 1 and 2 into a temporary directory (``value`` into a copy
of ``fit``'s, whose estimators it reads) and prints
``<config>  exit <code>  <threads>/<command>`` and
``<config>  <sha256>  <threads>/<command>/<file>`` lines, where ``<config>``
is the config's file name; ``manifest.json`` is hashed without its
``git_commit`` (nor that of the ``fit`` record a ``value`` manifest
carries).  Run it in two checkouts and ``diff`` the outputs.  The commands'
own output goes to stderr.
"""

import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile

from kernelval.cli import main

COMMANDS = ("simulate", "fit", "value", "grid-search", "table2", "figures",
            "nested-mc", "diagnostics")


def _digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.json":
        doc = json.loads(data)
        for record in (doc, doc.get("fit") or {}):  # value carries fit's record
            record.pop("git_commit", None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(config):
    label = os.path.basename(config)
    with tempfile.TemporaryDirectory() as tmp:
        for threads in ("1", "2"):
            for command in COMMANDS:
                out = os.path.join(tmp, threads, command)
                if command == "value":
                    shutil.copytree(os.path.join(tmp, threads, "fit"), out)
                with contextlib.redirect_stdout(sys.stderr):
                    code = main([command, "--config", config, "--out", out,
                                 "--threads", threads])
                print(f"{label}  exit {code}  {threads}/{command}", flush=True)
                for name in sorted(os.listdir(out) if os.path.isdir(out) else []):
                    print(f"{label}  {_digest(os.path.join(out, name))}  "
                          f"{threads}/{command}/{name}", flush=True)


if __name__ == "__main__":
    for config in sys.argv[1:] or ["configs/bs2.cfg"]:
        run(config)
