"""The byte contract: every file the CLI writes on tools/cli_digest.py's
command matrix hashes to the checked-in listing tools/cli_digest.txt.

The listing was made with numpy 2.4.6 and OpenBLAS 0.3.31 (Haswell
kernel), and measured the same at 1 and 2 BLAS threads. Another numpy,
BLAS build or CPU kernel may round a last bit differently and fail this
test with no change to the code. A change that means to move an output
regenerates the listing from a checkout root,

    OPENBLAS_NUM_THREADS=1 python tools/cli_digest.py > tools/cli_digest.txt

and says so in CHANGES.md. The run takes about 3.5-5 s on a 2-core host.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_outputs_match_checked_in_digest():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, os.path.join("tools", "cli_digest.py")], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    with open(os.path.join(ROOT, "tools", "cli_digest.txt")) as f:
        want = f.read().splitlines()
    got = run.stdout.splitlines()
    # only the lines that differ, so the failure names the outputs that moved
    moved = ([f"- {line}" for line in want if line not in got]
             + [f"+ {line}" for line in got if line not in want])
    if moved:
        pytest.fail("CLI outputs moved:\n" + "\n".join(moved), pytrace=False)
    assert got == want, "the listing's order changed"
