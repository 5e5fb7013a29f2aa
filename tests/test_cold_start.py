"""Cold start: importing mvlab, the heat-ball path and ``mvlab report`` load
no scipy module; each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvlab

GOLDEN = Path(__file__).resolve().parent / "golden"


def fresh_run(code):
    """Run ``code`` in a fresh interpreter on this mvlab; returns its stdout
    and the scipy modules it loaded."""
    src = os.path.dirname(os.path.dirname(mvlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return out, json.loads(last)


def test_import_loads_no_scipy():
    assert fresh_run("import mvlab, mvlab.cli") == ("", [])


@pytest.mark.parametrize("code", [
    "print(HeatKernel(FlowGeometry.hyperbolic(3)).tau_max(0.7))",
    "h3 = FlowGeometry.hyperbolic(3)\n"
    "print(mvp.mv_heat_ball(HeatKernel(h3), make_field('exp-radial', h3), 0.8)[1])",
    "print(mvp.jhat_quantity(HeatKernel(FlowGeometry.euclidean(2)), 0.5)[0])",
], ids=["tau_max_h3", "mv_heat_ball_h3", "jhat_e2"])
def test_heat_ball_path_loads_no_scipy(code):
    out, loaded = fresh_run("from mvlab import FlowGeometry, HeatKernel, make_field\n"
                            "from mvlab import mv_parabolic as mvp\n" + code)
    assert float(out) > 0.0 and loaded == []


def test_report_loads_no_scipy():
    golden = GOLDEN / "verify_parabolic.json"
    out, loaded = fresh_run(
        "import mvlab.cli\n"
        f"argv = ['report', '--in', {str(golden)!r}, '--format', 'json']\n"
        "assert mvlab.cli.main(argv) == 0")
    assert out == golden.read_text(encoding="utf-8").rstrip("\n") and loaded == []
