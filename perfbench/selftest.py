"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

They check the seeded inputs, that traced passes on fresh state repeat
their work counts exactly, that each counter moves on the workloads it
belongs to, and that the tracer puts back every name it replaced.
"""

import inspect
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mvlab  # noqa: E402
import mvlab.cli  # noqa: E402,F401
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402
from mvlab.sweeps import SweepReport  # noqa: E402


def small_s3_inputs(seed):
    """The reduced-s3 inputs cut to one radius, so a pass takes seconds."""
    inp = wl.reduced_s3_inputs(seed)
    inp.update(radii=inp["radii"][:1], theta_taus=inp["theta_taus"][:2],
               ell_points=inp["ell_points"][:2], sweep_steps=2)
    return inp


def grids(inp):
    """Every grid among the inputs of a workload, by key."""
    out = {key: val for key, val in inp.items()
           if isinstance(val, list) and isinstance(val[0], float)}
    if "ell_points" in inp:
        out["ell_taus"] = [t for _, t in inp["ell_points"]]
    return out


def traced_passes(name, inp, count=2):
    _, make_oracles, workload = wl.WORKLOADS[name]
    exp = make_oracles(inp)
    tracer, outputs, out = tr.Tracer(max_spans=0), wl.Outputs(), []
    for _ in range(count):
        tracer.install(mvlab)
        tracer.reset()
        try:
            wall, ops = worker.run_pass(workload, mvlab, inp, exp, outputs, tracer)
        finally:
            tracer.uninstall()
        assert all(ok for _, _, ok, *_ in ops), [op for op in ops if not op[2]]
        out.append(worker.layer_metrics(tracer.counts, tracer.self_s, wall))
    return out


@pytest.fixture(scope="module")
def layers():
    return {
        "reduced-s3": traced_passes("reduced-s3", small_s3_inputs(7)),
        "heat-balls": traced_passes("heat-balls", wl.heat_balls_inputs(7)),
        "green-balls": traced_passes("green-balls", wl.green_balls_inputs(7)),
    }


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_seeded_increasing_grids(name):
    make_inputs = wl.WORKLOADS[name][0]
    a, b, c = make_inputs(1), make_inputs(1), make_inputs(2)
    assert a == b
    grids_a, grids_c = grids(a), grids(c)
    assert grids_a
    for key, grid in grids_a.items():
        SweepReport(name=key, grid=grid, values=[0.0] * len(grid),
                    errors=[0.0] * len(grid))
        assert all(isinstance(x, float) for x in grid)
    assert any(grids_a[k] != grids_c[k] for k in grids_a)


def test_s3_inputs_stay_in_compact_range():
    for seed in range(20):
        inp = wl.reduced_s3_inputs(seed)
        assert all(0.8 <= r <= 2.3 for r in inp["radii"])
        taus = inp["theta_taus"] + inp["sweep_taus"] + [t for _, t in inp["ell_points"]]
        assert all(0.05 <= t <= 0.3 for t in taus)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_exact_counts_repeat_on_fresh_state(layers, name):
    first, second = layers[name]
    for key in worker.EXACT_COUNTS:
        assert first[key] == second[key], key


MOVES = {
    "reduced-s3": ("reduced.shots", "reduced.rhs_evals", "reduced.ell_calls",
                   "kernels.evals", "regions.regions_built", "regions.root_solves",
                   "regions.root_fevals", "regions.profile_calls",
                   "regions.integrals", "quad.de_calls", "quad.de_nodes",
                   "quad.adaptive_calls", "quad.adaptive_nodes"),
    "heat-balls": ("kernels.evals", "regions.regions_built", "regions.root_solves",
                   "regions.root_fevals", "regions.profile_calls",
                   "regions.integrals", "quad.de_calls", "quad.de_nodes",
                   "quad.adaptive_calls", "quad.adaptive_nodes"),
    "green-balls": ("kernels.evals", "regions.regions_built", "regions.root_solves",
                    "regions.root_fevals", "regions.integrals",
                    "quad.adaptive_calls", "quad.adaptive_nodes"),
}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_counters_move_where_expected(layers, name):
    counts = layers[name][0]
    for key in MOVES[name]:
        assert counts[key] > 0, key
    if name != "reduced-s3":
        reduced = {k: v for k, v in counts.items() if k.startswith("reduced.")}
        assert reduced and all(v == 0 for v in reduced.values()), reduced
    if name == "green-balls":
        assert counts["quad.de_nodes"] == 0 and counts["regions.profile_calls"] == 0


def bindings():
    """Every attribute of every mvlab module and class, by identity."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "mvlab" or modname.startswith("mvlab."):
            for attr, val in vars(mod).items():
                out[modname, attr] = id(val)
                if inspect.isclass(val):
                    for cattr, cval in vars(val).items():
                        out[modname, attr, cattr] = id(cval)
    return out


def test_tracer_restores_every_binding():
    before = bindings()
    tracer = tr.Tracer()
    tracer.install(mvlab)
    assert bindings() != before
    tracer.uninstall()
    assert bindings() == before


def test_best_of_run_takes_each_operation_at_its_best():
    import run

    def op(name, seconds, segment):
        return [name, seconds, True, None, None, segment]

    passes = [{"wall_s": 1.0, "ops": [op("a", 0.2, 0.5), op("b", 0.3, 0.4)]},
              {"wall_s": 0.9, "ops": [op("a", 0.3, 0.4), op("b", 0.1, 0.3)]}]
    latency, pass_s = run.best_of_run(passes)
    assert latency == [0.2, 0.3, 0.1, 0.3]    # both passes, to pool 100 samples
    # segments 0.4 + 0.3, and tails 0.1 and 0.2
    assert pass_s == pytest.approx(0.8)
    passes[1]["ops"].reverse()
    with pytest.raises(RuntimeError):
        run.best_of_run(passes)
