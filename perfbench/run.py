"""mvlab benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload reduced-s3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(perfbench/worker.py) on one thread, in a closed loop: the next operation
starts when the previous one has returned.  With ``--trace 0`` the run
reports the end-to-end metrics, measured with tracing off; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics; BENCHMARK.json declares both lists.  Throughput and
latency are each operation's best over the run's untraced passes (see
``best_of_run``); set-up is the median of fresh processes.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (inputs,
environment, sample counts, per-operation latencies) is written under
``.perfbench/results``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reduced-s3", "heat-balls", "green-balls")
SETUP_PROBES = 8         # fresh processes timing set-up, besides the worker
DEADLINE_S = 175.0       # the whole run, probes included
LATENCY_SAMPLES = 100    # latencies pooled for op_ms.p50 and op_ms.p90
RESULTS_DIR = Path(".perfbench") / "results"
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "MVLAB_JOBS": "1", "PYTHONHASHSEED": "0"}


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child(args, extra, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_of_run(passes):
    """Each operation at its best over the passes of a run.

    Every pass repeats the same operations on the same inputs, so operation
    i of one pass is operation i of every other.  Returns the latencies, in
    seconds, of each operation's k fastest runs, k being the least number
    that pools LATENCY_SAMPLES latencies (or every pass, if fewer), and the
    best pass time: the sum of each operation's best segment (the operation
    and the state built before it) and the best time from the last
    operation to the end of the pass.
    """
    names = [op[0] for op in passes[0]["ops"]]
    if any([op[0] for op in p["ops"]] != names for p in passes):
        raise RuntimeError("passes of one run differ in their operations")
    k = min(len(passes), -(-LATENCY_SAMPLES // len(names)))
    cols = list(zip(*(p["ops"] for p in passes)))
    latency = [t for col in cols for t in sorted(op[1] for op in col)[:k]]
    tail = min(p["wall_s"] - sum(op[5] for op in p["ops"]) for p in passes)
    return latency, sum(min(op[5] for op in col) for col in cols) + tail


def end_to_end(setup_samples, result):
    passes = [p for p in result["passes"] if not p["traced"]]
    latency, pass_s = best_of_run(passes)
    lat_ms = [1000.0 * s for s in latency]
    ops = [op for p in result["passes"] for op in p["ops"]]
    failed = sum(1 for op in ops if not op[2])
    resid = [op[3] for op in ops if op[3] is not None and op[3] == op[3]]
    return {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": len(passes[0]["ops"]) / pass_s,
        "op_ms.p50": percentile(lat_ms, 50.0),
        "op_ms.p90": percentile(lat_ms, 90.0),
        "ok_frac": 1.0 - failed / len(ops),
        "resid_max": max(resid),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = Path("src")
    if not (src / "mvlab" / "__init__.py").is_file():
        sys.exit("error: run from the root of an mvlab checkout (src/mvlab not found)")
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    def probe_setup():
        if not args.trace:
            for _ in range(SETUP_PROBES // 2):
                setup_samples.append(
                    child(args, ["--setup-only"], env, remaining())["setup_s"])

    # set-up is probed on both sides of the worker, so that its median
    # samples the machine over the whole run
    setup_samples = []
    probe_setup()
    result = child(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                   env, remaining())
    setup_samples.append(result["setup_s"])
    probe_setup()

    ops = [op for q in result["passes"] for op in q["ops"]]
    failures = [op for op in ops if not op[2]]
    declared = json.loads(Path("BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    values = result["layers"] if args.trace else end_to_end(setup_samples, result)
    metrics = {m["name"]: values[m["name"]] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    by_op = defaultdict(list)
    for q in result["passes"]:
        if not q["traced"]:
            for name, seconds, *_ in q["ops"]:
                by_op[name].append(1000.0 * seconds)
    record = {k: v for k, v in result.items() if k != "passes"}
    record.update({
        "setup_samples_s": setup_samples,
        "passes": [{"traced": q["traced"], "wall_s": q["wall_s"], "ops": len(q["ops"])}
                   for q in result["passes"]],
        "ops_per_pass": len(result["passes"][0]["ops"]),
        "latency_samples": sum(len(v) for v in by_op.values()),
        "op_ms_median_by_name": {k: statistics.median(v) for k, v in by_op.items()},
        # the throughput of a typical pass, beside the best-of-run metric
        "points_per_s_median_pass": statistics.median(
            len(q["ops"]) / q["wall_s"] for q in result["passes"] if not q["traced"]),
        "failures": failures,
        "fail_frac": len(failures) / len(ops),
        "metrics": metrics,
    })
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} attempted={len(ops)} failed={len(failures)} "
          f"passes={len(result['passes'])} record={path}")
    print(json.dumps({
        "correct": not failures, "attempted": len(ops), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
