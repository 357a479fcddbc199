#!/usr/bin/env python3
"""Print the sha256 of every same-behaviour reference, one `<mode> <sha256>`
line per run, so two versions of the solver can be compared with one diff of
this script's output.

The runs: scripts/trace_digest.py in its default mode and in each mode of
its MODES list, then scripts/fuzz_sweep.py plain (`sweep`) and with
--nudge --certify (`sweep-nudge-certify`). Each run is its own process,
with OpenBLAS on one thread, one run at a time; a run that fails stops the
script. Together they take several minutes, most of it in the two sweeps.

Usage: python3 scripts/same_behaviour.py > references.txt
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS))

from trace_digest import MODES  # noqa: E402

# (mode, script, arguments)
RUNS = [("default", "trace_digest.py", []),
        *((flag[2:], "trace_digest.py", [flag]) for flag, _ in MODES),
        ("sweep", "fuzz_sweep.py", []),
        ("sweep-nudge-certify", "fuzz_sweep.py", ["--nudge", "--certify"])]


def main():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    for mode, script, args in RUNS:
        proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                              env=env, capture_output=True, check=False)
        if proc.returncode:
            sys.exit(f"{script} {' '.join(args)} failed (exit "
                     f"{proc.returncode})\n{proc.stderr.decode()}")
        print(mode, hashlib.sha256(proc.stdout).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
