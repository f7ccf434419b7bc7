"""The benchmark's tracer patches program entry points by name.

``perfbench/tracing.py`` wraps methods through ``cls.__dict__[attr]``,
so renaming or removing a patched name raises ``KeyError`` only when
the benchmark runs.  Registering and installing the tracer in a fresh
interpreter here makes such a rename fail the unit suite instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.tracing import Tracer, install, register
tracer = Tracer()
register(tracer)
install(tracer)
"""


def test_tracer_installs_on_every_patched_name():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
