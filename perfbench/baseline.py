"""Record a BENCH_<n>.json: every workload over seeds 1 to 10, one command.

    python3 perfbench/baseline.py --out perfbench/BENCH_0.json

Runs ``run.py`` once per workload and seed with tracing off, and once per
workload with tracing on (seed 1), all at the ``run_seconds`` of BENCHMARK.json.
For each end-to-end metric it writes every run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The traced runs
give the per-layer numbers.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    path = Path(".perfbench") / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(path.read_text())


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        metrics, runs = {}, []
        for seed in SEEDS:
            result, record = run(wl, seed, seconds, 0)
            if not result["correct"]:
                sys.exit(f"{wl} seed {seed}: {result['failed']} operations failed")
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})
                metrics[name]["values"].append(m["value"])
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "passes": len(record["passes"]),
                         "ops_per_pass": record["ops_per_pass"],
                         "latency_samples": record["latency_samples"]})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        traced, record = run(wl, SEEDS[0], seconds, 1)
        out["workloads"][wl] = {
            "end_to_end": {k: dict(summary(v["values"]), unit=v["unit"])
                           for k, v in metrics.items()},
            "runs": runs,
            "per_layer": {"seed": SEEDS[0], "correct": traced["correct"],
                          "exact_counts_repeat": record["exact_counts_repeat"],
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
            "environment": record["environment"],
        }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for wl, data in out["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{wl} {name}: median {s['median']:.5g} {s['unit']}, "
                  f"spread {s['spread']:.3f}")


if __name__ == "__main__":
    main()
