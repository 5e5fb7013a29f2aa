"""Cold start: importing mvlab, the heat-ball path, the reduced-distance
sweeps, the parabolic, mcf and ricci suites, the track sweeps, the J sweep of
the Gaussian translate, hyperbolic Green's functions and their radii and
``mvlab report`` load no scipy module; each case runs in a fresh interpreter.
Only the lazy stand-ins listed in ``SCIPY_STAND_INS`` import scipy at all,
only the functions listed in ``QUADPACK_CALLERS`` call QUADPACK, and no
function calls Brent's root finder (``BRENT_CALLERS`` is empty)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvlab

GOLDEN = Path(__file__).resolve().parent / "golden"

# (module, function) of every scipy import in mvlab: each imports its routine
# on first use, so scipy stays off every path that does not call one
SCIPY_STAND_INS = {("quad", "_quad"), ("quad", "brentq"), ("reduced", "_rk45")}
# (module, function) of every call of the QUADPACK and Brent stand-ins:
# no kernel, track, parabolic or Ricci-flow path integrates with scipy, and
# nothing solves with it (`regions.brentq` stays bound for the benchmark's tracer)
QUADPACK_CALLERS = {("regions", "ball_integrate"),
                    ("mv_elliptic", "sphere_ball_relation_residual"),
                    ("mv_elliptic", "iterated_weight_identity"),
                    ("reduced", "reduced_volume"), ("reduced", "l_length")}
BRENT_CALLERS = set()


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--quantity", q, "--geometry", g]
    for q in ("jhat", "ihat") for g in ("shrinking-s3", "shrinking-s2", "gaussian")
] + [["verify", "--suite", "ricci", "--geometry", "gaussian"]] + [
    ["verify", "--suite", s] for s in ("ricci", "parabolic", "mcf")  # ricci: all three geometries
] + [
    ["sweep", "--quantity", q, "--geometry", "mcf-sphere"] for q in ("jbar", "ibar")
], ids=" ".join)
def test_reduced_sweeps_and_suite_load_no_scipy(argv):
    out, loaded = fresh_run(f"import mvlab.cli\nassert mvlab.cli.main({argv!r}) == 0")
    assert out and loaded == []


def test_gaussian_translate_sweep_loads_no_scipy():
    # its sphere mean is a numpy series, not scipy.special's Bessel function
    argv = ["sweep", "--quantity", "J", "--geometry", "euclidean3", "--field",
            "gaussian-translate", "--rmin", "0.1", "--rmax", "3", "--steps", "9"]
    out, loaded = fresh_run(f"import mvlab.cli\nassert mvlab.cli.main({argv!r}) == 0")
    assert len(out.splitlines()) == 10 and loaded == []


def test_hyperbolic_green_loads_no_scipy():
    # below k d = 1 the H4 Green's function is a closed-form recurrence
    out, loaded = fresh_run("from mvlab import FlowGeometry, GreenKernel\n"
                            "print(GreenKernel(FlowGeometry.hyperbolic(4)).value(0.3))")
    assert float(out) > 0.0 and loaded == []


@pytest.mark.parametrize("kernel", [
    "GreenKernel(FlowGeometry.hyperbolic(2))", "GreenKernel(FlowGeometry.hyperbolic(4))",
    "SubGreenKernel(FlowGeometry.euclidean(5), k=1.0)"], ids=["h2", "h4", "sub_green_e5"])
def test_green_radius_loads_no_scipy(kernel):
    # a closed form on H2, the kernel's Newton on H4 and the sub-Green E5
    out, loaded = fresh_run("from mvlab import FlowGeometry, GreenKernel, SubGreenKernel\n"
                            "from mvlab.regions import level_radius\n"
                            f"print(level_radius({kernel}, 0.7))")
    assert float(out) > 0.0 and loaded == []


def scipy_imports(path):
    """(function, module imported) of each scipy import in a source file; the
    function is "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            found.extend((where, m) for m in names if m.split(".")[0] == "scipy")
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_scipy_is_imported_by_the_stand_ins_only():
    src = Path(mvlab.__file__).resolve().parent
    sites = {(path.stem, where) for path in sorted(src.glob("*.py"))
             for where, _ in scipy_imports(path)}
    assert sites == SCIPY_STAND_INS


def solver_calls(path, names=("integrate_1d", "brentq")):
    """{name: {outermost function}} of the calls of each named solver in a
    source file, methods under their own name."""
    found = {name: set() for name in names}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where or (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else "")
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in found):
                found[child.func.id].add(where)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_solvers_are_called_from_the_listed_functions_only():
    src = Path(mvlab.__file__).resolve().parent
    calls = {path.stem: solver_calls(path) for path in sorted(src.glob("*.py"))}
    assert {(mod, fn) for mod, c in calls.items() for fn in c["integrate_1d"]} == QUADPACK_CALLERS
    assert {(mod, fn) for mod, c in calls.items() for fn in c["brentq"]} == BRENT_CALLERS


def test_report_loads_no_scipy():
    golden = GOLDEN / "verify_parabolic.json"
    out, loaded = fresh_run(
        "import mvlab.cli\n"
        f"argv = ['report', '--in', {str(golden)!r}, '--format', 'json']\n"
        "assert mvlab.cli.main(argv) == 0")
    assert out == golden.read_text(encoding="utf-8").rstrip("\n") and loaded == []
