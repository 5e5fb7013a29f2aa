"""One benchmark process: set up mvlab, then run passes of one workload.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  With
``--setup-only`` it times the set-up and exits; otherwise it runs whole
passes until the next one would overrun ``--seconds`` (at least one pass)
and prints one JSON line with every pass, every operation and, with
``--trace 1``, the per-layer numbers of the traced passes.

Set-up is timed first, before numpy or anything else of the benchmark is
imported, so that it includes everything ``import mvlab`` pays.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

JOBS_REPS = 3          # run_suite repetitions per --jobs setting
TRACE_DIR = os.path.join(".perfbench", "trace")


def time_setup():
    """Import mvlab (CLI included), as every ``mvlab`` command does."""
    t0 = time.perf_counter()
    import mvlab
    import mvlab.cli  # noqa: F401  (also loads suites, mv_elliptic, mv_parabolic)
    return mvlab, time.perf_counter() - t0


def time_build(workload, mv, inp, exp):
    """Run a pass up to its first operation, which builds its state."""
    gen = workload(mv, inp, exp, None)
    t0 = time.perf_counter()
    next(gen)
    seconds = time.perf_counter() - t0
    gen.close()
    return seconds


def run_pass(workload, mv, inp, exp, outputs, tracer=None):
    """One pass; returns (wall seconds, [[name, seconds, passed, resid, error,
    segment]]).

    ``seconds`` times the operation alone; ``segment`` runs from the end of
    the previous operation (or the start of the pass) to the end of this one,
    so it also holds the state the pass builds before the operation.
    """
    ops = []
    root = tracer.enter("pass") if tracer else None
    t0 = time.perf_counter()
    mark = t0
    for name, thunk in workload(mv, inp, exp, outputs):
        frame = tracer.enter(f"op:{name}") if tracer else None
        t = time.perf_counter()
        try:
            passed, resid = thunk()
            error = None
        except Exception as exc:  # a raising operation is a failed one
            passed, resid, error = False, None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if tracer:
            tracer.exit(frame, "bench")
        now = time.perf_counter()
        ops.append([name, dt, bool(passed), resid, error, now - mark])
        mark = now
    wall = time.perf_counter() - t0
    if tracer:
        tracer.exit(root, "bench")
    return wall, ops


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counts, self_s, wall):
    """Per-layer numbers of one traced pass."""
    c = counts
    misses = c["reduced.ell_calls"] - c["reduced.memo_hits"]
    return {
        "reduced.shots": c["reduced.shots"],
        "reduced.rhs_evals": c["reduced.rhs_evals"],
        "reduced.shoot_s": self_s["shoot"],
        "reduced.shoot_frac": ratio(self_s["shoot"], wall),
        "reduced.self_s": self_s["reduced"],
        "reduced.ell_calls": c["reduced.ell_calls"],
        "reduced.memo_hit_ratio": ratio(c["reduced.memo_hits"], c["reduced.ell_calls"]),
        "reduced.shots_per_miss": ratio(c["reduced.miss_shots"], misses),
        "kernels.evals": c["kernels.evals"],
        "kernels.self_s": self_s["kernels"],
        "regions.regions_built": c["regions.regions_built"],
        "regions.root_solves": c["regions.root_solves"],
        "regions.root_fevals": c["regions.root_fevals"],
        "regions.profile_calls": c["regions.profile_calls"],
        "regions.root_cache_hit_ratio": ratio(c["regions.profile_cache_hits"],
                                              c["regions.profile_calls"]),
        "regions.integrals": c["regions.integrals"],
        "regions.self_s": self_s["regions"],
        "quad.de_calls": c["quad.de_calls"],
        "quad.de_nodes": c["quad.de_nodes"],
        "quad.adaptive_calls": c["quad.adaptive_calls"],
        "quad.adaptive_nodes": c["quad.adaptive_nodes"],
        "quad.self_s": self_s["quad"],
        "mv_elliptic.self_s": self_s["mv_elliptic"],
        "mv_parabolic.self_s": self_s["mv_parabolic"],
        "suites.self_s": self_s["suites"],
        "sweeps.self_s": self_s["sweeps"],
        "cli.self_s": self_s["cli"],
    }


EXACT_COUNTS = ("reduced.shots", "reduced.rhs_evals", "regions.root_fevals",
                "quad.de_nodes", "quad.adaptive_nodes")


def jobs2_speedup(mv):
    """Wall time of the parabolic (heat-ball) suite at --jobs 1 over --jobs 2."""
    walls = {1: [], 2: []}
    for rep in range(JOBS_REPS):
        for jobs in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            report = mv.suites.run_suite("parabolic", jobs=jobs)
            walls[jobs].append(time.perf_counter() - t0)
            if not report.passed:
                raise RuntimeError(f"parabolic suite failed at jobs={jobs}")
    return statistics.median(walls[1]) / statistics.median(walls[2])


def environment(mv):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "MVLAB_JOBS", "PYTHONHASHSEED")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mvlab": mv.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in pins}}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    mv, import_s = time_setup()
    import workloads as wl
    make_inputs, make_oracles, workload = wl.WORKLOADS[args.workload]
    inp = make_inputs(args.seed)
    exp = make_oracles(inp)
    setup_s = import_s + time_build(workload, mv, inp, exp)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    outputs = wl.Outputs()
    passes = []
    last = {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install(mv)
            tracer.reset()
        try:
            wall, ops = run_pass(workload, mv, inp, exp, outputs,
                                 tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": wall, "ops": ops}
        if traced:
            record["layers"] = layer_metrics(tracer.counts, tracer.self_s, wall)
        passes.append(record)
        last[traced] = wall
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        estimate = last.get(next_traced, wall)
        elapsed = time.perf_counter() - start
        if elapsed + estimate > args.seconds and (not args.trace or len(passes) >= 2):
            break

    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "inputs": inp, "setup_s": setup_s, "passes": passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "environment": environment(mv)}
    if args.trace:
        untraced = [q["wall_s"] for q in passes if not q["traced"]]
        traced = [q for q in passes if q["traced"]]
        # counts repeat exactly from pass to pass; times are medians
        layers = {k: v if isinstance(v, int) else
                  statistics.median(q["layers"][k] for q in traced)
                  for k, v in traced[0]["layers"].items()}
        layers["cli.sweep_csv_identical"] = outputs.identical["sweep"]
        layers["cli.verify_json_identical"] = outputs.identical["verify"]
        layers["trace.overhead_frac"] = (
            statistics.median(q["wall_s"] for q in traced)
            / statistics.median(untraced) - 1.0)
        layers["suites.jobs2_speedup"] = jobs2_speedup(mv)
        out["layers"] = layers
        out["exact_counts_repeat"] = all(
            q["layers"][k] == traced[0]["layers"][k]
            for q in traced for k in EXACT_COUNTS)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        out["trace_file"] = {"path": path, "spans": len(tracer.spans),
                             "dropped": tracer.dropped}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
