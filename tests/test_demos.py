"""Every demo script runs to completion against the package, and every
public name resolves.

Nothing else executes the demos, so an API change that breaks one would
otherwise go unnoticed. Demo 05 runs both bootstrap baselines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import survcbps as sc

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_every_public_name_resolves_once():
    """A stale __all__ entry still passes `import survcbps` but breaks
    `from survcbps import *`, which no demo runs."""
    assert len(sc.__all__) == len(set(sc.__all__))
    assert [name for name in sc.__all__ if not hasattr(sc, name)] == []
    namespace = {}
    exec("from survcbps import *", namespace)
    assert set(sc.__all__) <= set(namespace)
