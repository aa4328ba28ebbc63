"""A run thread inside ``print`` survives ``sys.stdout`` being swapped.

``print()`` holds a borrowed reference to ``sys.stdout``.  pytest's
capture and ``contextlib.redirect_stdout`` swap ``sys.stdout`` while runs
may be printing, and each run start re-installs the router's proxy; if
that proxy could be freed by a swap, the run thread would write through
freed memory.  The script below abandons a run that prints forever, then
swaps ``sys.stdout`` and re-installs the proxy 300 times.  It runs in a
subprocess under the debug allocator, which poisons freed memory, so a
use-after-free ends the process with a signal instead of passing by luck.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import io
import sys
import time

from repro.laminar.execution.streaming import Enactment, StdoutRouter


def work():
    while True:
        print("tick")


Enactment(sink=lambda line: None).start(work)
for _ in range(300):
    sys.stdout = io.StringIO()
    StdoutRouter.instance().install()
    time.sleep(0.001)
"""


def test_swapping_stdout_under_a_printing_run_does_not_crash():
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONMALLOC="debug", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
