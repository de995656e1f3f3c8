"""Every script in demos/ runs to completion against the package in src/,
prints nothing to stderr and leaves the repository's files as they were."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# What running Python leaves behind on its own, not what a demo writes.
CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _file_listing():
    listing = set()
    for folder, subfolders, files in os.walk(ROOT):
        subfolders[:] = [name for name in subfolders if name not in CACHES]
        listing.update(os.path.relpath(os.path.join(folder, name), ROOT)
                       for name in files)
    return listing


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    before = _file_listing()
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert _file_listing() == before
