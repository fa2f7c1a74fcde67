"""Run one workload over several seeds and summarise each metric.

    python3 bench/seeds.py --workload reach --seeds 1-10 --seconds 20 > summary.json

For every end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, the spread the benchmark's bounds are checked
against. It also keeps each run's printed report and outcome histograms,
so a summary of the parent commit serves as the baseline of a change.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    metrics, runs = {}, []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=400, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((ROOT / ".bench_runs" /
                             f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        for name, m in result["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "outcomes": record["outcomes"], "census": record["census"],
                     "report": record["report"]})
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}"
                                          for k, m in result["metrics"].items()),
              file=sys.stderr, flush=True)
    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "meta": record["meta"],
               "metrics": {k: {"unit": v["unit"], **summarise(v["values"])}
                           for k, v in metrics.items()},
               "runs": runs}
    for name, m in summary["metrics"].items():
        print(f"{name:24s} median {m['median']:.6g} {m['unit']:6s} "
              f"spread {m.get('spread', 0.0):.3f}", file=sys.stderr)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
