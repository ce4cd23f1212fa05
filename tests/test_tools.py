"""The per-layer cost tool still runs against the package.

``tools/layer_costs.py`` wraps solver names looked up at call time
(``solve_inner_dual``, ``_mean_jacobian``, ``fit_pel``);
a solver refactor that renames one would break it without failing any
other test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_costs_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, "tools/layer_costs.py", "--sizes", "60x5",
         "--reps", "0", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert "error" not in row
    for key in ("curvatures", "fits", "hessians", "inner_calls", "outer_steps"):
        assert row[key] > 0, key
    # memory as a library caller sees it
    for key in ("minflt", "traced_peak_mb"):
        assert row[key] >= 0, key
