"""The benchmark's tracer installs on this package and puts every binding
back: a refactor that drops a name the tracer patches fails here, not only
in the benchmark's own selftests."""

import importlib.util
import inspect
import sys
from pathlib import Path

import mvlab
import mvlab.cli  # noqa: F401  (the tracer wraps cli.main)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every mvlab module and class, by identity."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "mvlab" or modname.startswith("mvlab."):
            for attr, val in vars(mod).items():
                out[modname, attr] = id(val)
                if inspect.isclass(val):
                    for cattr, cval in vars(val).items():
                        out[modname, attr, cattr] = id(cval)
    return out


def test_tracer_install_uninstall_round_trip():
    before = _bindings()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(mvlab)
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_traced_verify_prints_the_untraced_bytes(capsys):
    """The tracer wraps `run_suite` and `build_battery` by name: a traced
    `verify` prints the same report and times the suites layer."""
    assert mvlab.cli.main(["verify", "--suite", "mcf"]) == 0
    untraced = capsys.readouterr().out
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(mvlab)
        assert mvlab.cli.main(["verify", "--suite", "mcf"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
    assert tracer.self_s["suites"] > 0.0


def test_traced_shot_counts_every_solve(monkeypatch):
    """The tracer counts shots by wrapping `mvlab.reduced.solve_ivp`: an
    S3 `ell_cm` lands in two shots, and the tracer sees both and their
    right-hand side evaluations."""
    from mvlab.geometry import FlowGeometry
    field = mvlab.reduced.ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
    nfev, solve_ivp = [], mvlab.reduced.solve_ivp

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol
    with monkeypatch.context() as patch:
        patch.setattr(mvlab.reduced, "solve_ivp", counted)
        untraced = field.ell_cm(0.7, 0.2)
    assert len(nfev) == 2
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(mvlab)
        assert field.ell_cm(0.7, 0.2) == untraced
    finally:
        tracer.uninstall()
    assert tracer.counts["reduced.shots"] == 2
    assert tracer.counts["reduced.rhs_evals"] == sum(nfev) > 0
