"""Alternated benchmark pairs of a parent checkout and this one.

Pair k (k = 1..N) runs, for every named workload W in turn,

    python bench/run.py --workload W --seed k --seconds S --trace 0

once in the parent checkout and once in this one, each from its own root,
the parent first in odd pairs and this checkout first in even ones, so a
drift of the machine's speed favours neither side.  Then, one block per
workload, for every end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and
quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the
pairs the change won in the metric's better direction, and whether the
gap between the medians exceeds the parent's quartile spread q3 - q1.  A
gain counts when the change wins at least 9 of 10 pairs and the gap
exceeds that spread.  A metric whose parent spread exceeds its ``bound``
(a fraction of the parent's median) is marked "unresolved": its runs
spread too widely to tell a change within the bound from noise.

It also prints each side's median of the per-class latency lines of the
runs' reports (``witness_ms_p50``, ``trajectory_ms_p50``,
``converge_ms_p50``, ``validate_ms_p50``, ``level_ms_p50``: whichever the
workload has).  They stand outside the gain rule; they show which op
class moved a pooled metric such as reach's ``ops_per_s``.

``--record`` also writes all of it to ``BENCH_<short sha>.json`` at the
root of this checkout, named after its HEAD commit (``--record DIR``
writes it in DIR): per workload, each metric's medians, quartiles, pairs
won, gain and "unresolved" flags, and each side's per-class medians; with
them the seeds, the seconds per run and the machine (nproc, CPU, Python
and numpy versions).  Commit the change first, so that the name is the
commit whose code was measured.

Run from anywhere; PARENT_ROOT is the root of a checkout of the parent
commit (``git archive`` of it will do), holding its ``bench/`` and
``src/``:

    python tools/bench_pairs.py PARENT_ROOT [--workload W ...] [--pairs N] [--seconds S]
                                            [--record [DIR]]

``--workload`` may be given more than once, and ``all`` names every
workload of ``BENCHMARK.json``.  The defaults are atlas_validate, 10
pairs and 20 s.  ``bench/`` is only
run, and each run leaves its record under its own checkout's
``.bench_runs/``.  Per-pair values go to standard error as they come.
"""

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def class_latencies(report: str) -> dict:
    """{name: value} of the per-class median lines of a bench/run.py
    report: the names ending in _ms_p50, other than the pooled
    latency_ms_p50."""
    out = {}
    for line in report.splitlines():
        words = line.split()
        if len(words) > 1 and words[0].endswith("_ms_p50") and words[0] != "latency_ms_p50":
            out[words[0]] = float(words[1])
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The metrics {name: value} of one bench/run.py run in the checkout,
    and its per-class latencies (class_latencies)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{proc.stdout}{proc.stderr}")
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    return metrics, class_latencies("\n".join(lines[:-1]))


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, pairs won, the gain rule, and whether the
    parent's quartile spread exceeds the bound (relative to its median),
    for one metric's paired values (parent[k] and change[k] from pair k)."""
    sign = 1.0 if better == "lower" else -1.0
    out = {"won": sum(sign * (p - c) > 0.0 for p, c in zip(parent, change)),
           "pairs": len(parent)}
    for side, values in (("parent", parent), ("change", change)):
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    gap = sign * (out["parent"]["median"] - out["change"]["median"])
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    out["gain"] = out["won"] >= 0.9 * out["pairs"] and gap > spread
    out["unresolved"] = spread > bound * abs(out["parent"]["median"])
    return out


def workloads(names: list, declared: list) -> list:
    """The workloads that --workload names, in order, each once: ``all``
    stands for every declared one, and none named means atlas_validate."""
    out = []
    for name in names or ["atlas_validate"]:
        out += declared if name == "all" else [name]
    return list(dict.fromkeys(out))


def report(workload: str, runs: dict, classes: dict, metrics: list, pairs: int,
           seconds: float) -> dict:
    """Print one workload's block: every metric's medians, quartiles,
    pairs won and the gain rule, then the per-class medians.  Returns
    them as {"metrics": {name: compare's dict}, "classes": {name:
    {"parent": median, "change": median}}}."""
    print(f"{workload}, {pairs} alternated pairs of {seconds:g} s, median [q1, q3]:")
    out = {"metrics": {}, "classes": {}}
    for m in metrics:
        name = m["name"]
        r = compare([run[name] for run in runs["parent"]],
                    [run[name] for run in runs["change"]], m["better"], m["bound"])
        out["metrics"][name] = r
        p, c = r["parent"], r["change"]
        print(f"  {name:16s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"won {r['won']}/{r['pairs']}  gain {'yes' if r['gain'] else 'no'}"
              + ("  unresolved" if r["unresolved"] else ""))
    names = sorted(set().union(*classes["parent"], *classes["change"]))
    if names:
        print("per-class medians (outside the gain rule):")
    for name in names:
        medians = [statistics.median(run[name] for run in classes[side] if name in run)
                   for side in ("parent", "change")]
        print(f"  {name:18s} parent {medians[0]:.4g}  change {medians[1]:.4g}")
        out["classes"][name] = dict(zip(("parent", "change"), medians))
    return out


def short_sha() -> str:
    """The short hash of this checkout's HEAD commit."""
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def machine() -> dict:
    """nproc, the CPU model, and the Python and numpy versions, as
    bench/run.py records them for its runs."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    meta = run.metadata(0)
    return {key: meta[key] for key in ("nproc", "cpu", "python", "numpy")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--record", type=Path, nargs="?", const=ROOT, metavar="DIR")
    args = ap.parse_args(argv)
    if not (args.parent_root / "bench" / "run.py").is_file():
        print(f"no bench/run.py under {args.parent_root}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    declared = [w["name"] for w in bench["workloads"]]
    names = workloads(args.workload, declared)
    unknown = [name for name in names if name not in declared]
    if unknown:
        print(f"unknown workload {unknown[0]}; declared: {', '.join(declared)}", file=sys.stderr)
        return 2
    runs = {name: {"parent": [], "change": []} for name in names}
    classes = {name: {"parent": [], "change": []} for name in names}
    for seed in range(1, args.pairs + 1):
        order = [("parent", args.parent_root), ("change", ROOT)]
        for name in names:
            for side, root in (order if seed % 2 else order[::-1]):
                values, latencies = run_once(root, name, seed, args.seconds)
                runs[name][side].append(values)
                classes[name][side].append(latencies)
            print(f"pair {seed} {name}: " + "  ".join(
                f"{m['name']} {runs[name]['parent'][-1][m['name']]:.4g} -> "
                f"{runs[name]['change'][-1][m['name']]:.4g}" for m in metrics),
                file=sys.stderr, flush=True)
    summaries = {name: report(name, runs[name], classes[name], metrics, args.pairs, args.seconds)
                 for name in names}
    if args.record:
        sha = short_sha()
        path = args.record / f"BENCH_{sha}.json"
        path.write_text(json.dumps({"commit": sha, "seeds": list(range(1, args.pairs + 1)),
                                    "seconds": args.seconds, "machine": machine(),
                                    "workloads": summaries}, indent=1) + "\n")
        print(f"record {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
