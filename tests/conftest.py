"""Shared set-up for tests that start a fresh interpreter on this checkout."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """Run ``python *args`` with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    """Run ``python -m zerosound *args`` in a fresh process."""
    return run_python("-m", "zerosound", *args)
