"""Level-function and hull figures of the benchmark's level fans.

For every fan of ``LEVEL_FANS`` in ``bench/workloads.py`` it queries 12
fixed levels, and for the level census fan its 16 census levels, each
spread evenly over the band (3, 4).  Each query is the benchmark's: the
start point (N, M) scaled to the level, fed to ``phi_level`` over the
band.  It prints one JSON line per query

    {"gens": [[p, q], ...], "group": "fan" or "census", "level": l,
     "phi": <float.hex of phi_level> or <error class>, "probes": n}

where n counts the query's ``_hull`` requests.  The hull cache is cleared
before each query, so n does not depend on query order.  It prints one
line per fan and delta = 3, 3.5 and 4

    {"gens": [[p, q], ...], "delta": d, "vertices": n, "caps": c, "hull": <digest>}

for ``conv_hull`` of the region built with ``validate=False``: n vertices,
c of its edges caps, and a sha256 of its vertices and caps, bit for bit.  An error is the class name of a package
error, or "bare:<class>" for an exception that is not one.  ``bench/`` is
only read.

Run from anywhere, against the package under SRC_DIR (default: the
``src`` directory next to this file's parent):

    python tools/level_outcomes.py [SRC_DIR] > levels.jsonl

Running it on two source trees and comparing the outputs with ``diff``
shows every level and every hull that changed.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAN_LEVELS = 12  # fixed levels per level fan
HULL_DELTAS = (3.0, 3.5, 4.0)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _error(exc: Exception, package) -> str:
    if isinstance(exc, package.errors.ToricRegionsError):
        return type(exc).__name__
    return f"bare:{type(exc).__name__}"


def hull_digest(hull) -> str:
    """Short hash of a hull's vertices and caps, bit for bit."""
    h = hashlib.sha256()
    for x, y in hull:
        h.update(f"{x.hex()} {y.hex()};".encode())
    for k, cap in sorted(hull.caps.items()):
        h.update(f"{k}:{' '.join(float(c).hex() for c in cap)};".encode())
    return h.hexdigest()[:16]


def level_record(gens, group: str, level: float, package, workloads) -> dict:
    """phi_level of the fan's start point scaled to the level, with the
    number of hulls it requested from a cleared cache."""
    rc, fg = package.region_construction, package.fan_geometry
    lo, hi = workloads.LEVEL_BAND
    cx, cy = workloads.start_point_exponents(gens)
    hull, requests = rc._hull, []
    hull.cache_clear()
    rc._hull = lambda fan, delta: requests.append(delta) or hull(fan, delta)
    try:
        phi = rc.phi_level(fg.LogPoint(level * cx, level * cy), fg.Fan(gens), lo, hi).hex()
    except Exception as exc:
        phi = _error(exc, package)
    finally:
        rc._hull = hull
    return {"gens": [list(g) for g in gens], "group": group, "level": level, "phi": phi,
            "probes": len(requests)}


def hull_record(gens, delta: float, package) -> dict:
    rc, fg = package.region_construction, package.fan_geometry
    try:
        hull = rc.conv_hull(rc.construct_region(fg.Fan(gens), delta, validate=False))
        vertices, caps, digest = len(hull), len(hull.caps), hull_digest(hull)
    except Exception as exc:
        vertices, caps, digest = None, None, _error(exc, package)
    return {"gens": [list(g) for g in gens], "delta": delta, "vertices": vertices,
            "caps": caps, "hull": digest}


def records(package, workloads):
    lo, hi = workloads.LEVEL_BAND
    queries = [(gens, "fan", FAN_LEVELS) for gens in workloads.LEVEL_FANS.values()]
    queries.append((workloads.LEVEL_DEFECT_FAN, "census", workloads.LEVEL_CENSUS))
    for gens, group, n in queries:
        for k in range(n):
            yield level_record(gens, group, lo + (hi - lo) * (k + 0.5) / n, package, workloads)
        for delta in HULL_DELTAS:
            yield hull_record(gens, delta, package)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else ROOT / "src"
    if not (src / "toric_regions").is_dir():
        print(f"no toric_regions package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    package = importlib.import_module("toric_regions")
    for rec in records(package, _workloads()):
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
