"""Benchmark of toric_regions: one workload per run, in a fresh process.

    python3 bench/run.py --workload atlas_validate --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root; it imports the package from ``src/``.
The load is a closed loop: one client, one thread, one op at a time.
``--seconds`` sets the size of the run's op list, so that the parent
commit and a change time identical inputs; at the seed commit the timed
loop lasts about that long. Op times are scaled to a reference machine
speed (see ``calibration.py``); the raw wall times are printed next to them.
``setup_s`` is wall time: the median of several set-ups in fresh processes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs the
same ops untraced in a child process, then traced in this one, and prints
the per-layer metrics and the tracing overhead. The last line of standard
output is the result object; a record of the run, with its metadata, its
outcome histograms and, when traced, its first spans, goes to
``.bench_runs/``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
# A run stops taking ops once this much wall time has passed; the ops it
# skips count as failed.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Program:
    """The package modules, imported from the checkout's ``src/``."""

    MODULES = ("errors", "fan_geometry", "tdi_rhs", "region_construction", "dynamics")

    def __init__(self):
        sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("toric_regions")
        origin = Path(pkg.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"toric_regions imported from {origin}, not from {SRC}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"toric_regions.{name}"))


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list, q in 1..99."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workload: str, seed: int, seconds: float):
    """Import the program, generate the inputs and build the objects the
    ops need. Returns (workload, ops, wall seconds taken).

    numpy, the program's one dependency, is loaded before the clock starts.
    Its import is page-fault bound and swings by tens of percent from one
    minute to the next on a shared machine, and it is not the program's
    cost."""
    importlib.import_module("numpy")
    t0 = time.perf_counter()
    program = Program()
    w = wl.WORKLOADS[workload](seed, seconds, program)
    w.setup()
    ops = w.ops()
    return w, ops, time.perf_counter() - t0


class Timings:
    """Per-op wall and reference-speed latencies of one run, by op class."""

    def __init__(self, kinds, wall_s, scale):
        self.wall = {}
        self.ref = {}
        for kind, dt, s in zip(kinds, wall_s, scale):
            self.wall.setdefault(kind, []).append(dt * 1e3)
            self.ref.setdefault(kind, []).append(dt * s * 1e3)
        self.wall_busy = sum(wall_s)
        self.ref_busy = sum(dt * s for dt, s in zip(wall_s, scale))
        self.count = len(wall_s)

    @staticmethod
    def pooled(table, kinds=None):
        return sorted(v for kind, vs in table.items() if kinds is None or kind in kinds
                      for v in vs)


def run_ops(w, ops, tracer, deadline):
    """Closed loop over the ops; a calibration sample precedes each op and
    the output checks run outside the timed region."""
    hist = Counter()
    kinds, wall_s, cal, failures = [], [], [], []
    clock = time.perf_counter
    for k, op in enumerate(ops):
        if clock() > deadline:
            hist["timeout"] += len(ops) - k
            failures += [(o.label, "timeout") for o in ops[k:]]
            break
        cal.append(calibration.sample())
        tracer.op_id = k
        tracer.enabled = tracer.installed
        t0 = clock()
        try:
            result = op.call()
            exc = None
        except Exception as e:  # the op's outcome is judged below
            result, exc = None, e
        dt = clock() - t0
        tracer.enabled = False
        kinds.append(op.kind)
        wall_s.append(dt)
        if exc is not None:
            outcome, bad = wl.exception_outcome(exc, w.program.errors)
        else:
            outcome, bad = w.judge(op, result)
        hist[outcome] += 1
        if bad:
            failures.append((op.label, outcome))
    return hist, Timings(kinds, wall_s, calibration.scales(cal)), failures


def child(args, *extra):
    """Run this script in a fresh process; returns its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {extra} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(seed: int) -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref_file = ROOT / ".git" / sha[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else sha
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def report(lines, name, value, unit, note=""):
    lines.append(f"{name:24s} {value:14.6f} {unit:6s} {note}".rstrip())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only set up and print the set-up time (one set-up sample)")
    ap.add_argument("--no-setup-samples", action="store_true",
                    help="skip the set-up samples (the untraced half of a traced run)")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if args.workload == "all":
        return run_all(args)

    w, ops, setup_wall = set_up(args.workload, args.seed, args.seconds)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_wall}))
        return 0

    untraced = None
    tracer = tracing.Tracer()
    if args.trace:
        untraced = child(args, "--trace", "0", "--no-setup-samples")
        tracer.install()

    hist, timings, failures = run_ops(w, ops, tracer, started + DEADLINE_S)
    failed = len(failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    census_hist, _, census_failures = run_ops(w, w.census(), tracer, float("inf"))
    census_failed = len(census_failures)

    setup_samples = []
    if not args.trace and not args.no_setup_samples:
        setup_samples = [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]

    attempted = len(ops)
    census_n = sum(census_hist.values())
    meta = metadata(args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}",
             "meta " + json.dumps(meta),
             f"timed ops: attempted {attempted}, failed {failed}, "
             f"busy {timings.wall_busy:.3f} s wall, {timings.ref_busy:.3f} s at reference speed"]
    lines += [f"  outcome {o:40s} {n}" for o, n in sorted(hist.items())]
    lines += [f"  failed  {label} -> {o}" for label, o in failures[:20]]
    lines.append(f"defect census: attempted {census_n}, failed {census_failed}")
    lines += [f"  census  {o:40s} {n}" for o, n in sorted(census_hist.items())]

    ops_per_s = timings.count / timings.ref_busy if timings.ref_busy else 0.0
    metrics = {}
    named = []
    if args.trace:
        base = untraced["metrics"]["ops_per_s"]["value"]
        for name, (value, unit) in tracer.metrics().items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.ops_per_s_untraced"] = {"value": base, "unit": "1/s"}
        metrics["trace.ops_per_s_traced"] = {"value": ops_per_s, "unit": "1/s"}
        metrics["trace.overhead_ratio"] = {
            "value": base / ops_per_s - 1.0 if ops_per_s else 0.0, "unit": "ratio"}
        if tracer.absent:
            lines.append("absent layers: " + ", ".join(tracer.absent))
    else:
        ref = Timings.pooled(timings.ref, w.latency_kinds)
        wall = Timings.pooled(timings.wall, w.latency_kinds)
        values = {
            "latency_ms_p50": (percentile(ref, 50), percentile(wall, 50)),
            "latency_ms_p90": (percentile(ref, 90), percentile(wall, 90)),
            "ops_per_s": (ops_per_s, timings.count / timings.wall_busy),
            "setup_s": (statistics.median(setup_samples) if setup_samples else 0.0, None),
            "peak_rss_mb": (peak_rss_mb, None),
        }
        for name, unit in END_TO_END:
            value, wall_value = values[name]
            metrics[name] = {"value": value, "unit": unit}
            note = f"wall {wall_value:.6g}" if wall_value is not None else ""
            if name.startswith("latency"):
                note += f", n={len(ref)}"
            report(named, name, value, unit, note)
    report(named, "error_rate", failed / attempted, "ratio", f"{failed}/{attempted}")
    report(named, "census_error_rate", census_failed / census_n if census_n else 0.0,
           "ratio", f"{census_failed}/{census_n}")
    for kind, names in w.aliases.items():
        vs = sorted(timings.ref.get(kind, []))
        for name in names:
            q = 90 if name.endswith("p90") else 50
            report(named, name, percentile(vs, q) if vs else 0.0, "ms", f"n={len(vs)}")
    for name, (value, unit, n) in w.extra_metrics().items():
        report(named, name, value, unit, f"n={n}")
    lines.append("metrics" + (" (traced run)" if args.trace else ""))
    lines += ["  " + s for s in named]
    if args.trace:
        lines += [f"  {name:56s} {m['value']:14.4f} {m['unit']}"
                  for name, m in metrics.items()]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "meta": meta, "result": result, "outcomes": dict(hist), "failures": failures,
              "census": dict(census_hist), "report": named,
              "setup_samples": setup_samples,
              "latencies_ms": {"ref": timings.ref, "wall": timings.wall}}
    if args.trace:
        record["spans"] = tracer.spans
        record["absent"] = tracer.absent
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    lines.append(f"record {out.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 2, check=False)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        res = json.loads(out[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
