"""Regenerate the frozen input catalogs under ``data/``.

    python3 bench/make_catalogs.py

The atlas catalog draws fans per (mode, b) stratum from ``ATLAS_SEED``;
the reach catalog draws in-region targets per (fan, r-class) from
``REACH_SEED`` by rejection against each fan's region at delta = 3. Both
record the outcome the current program gives each entry; ``workloads.py``
times the entries that end in a documented way and runs the rest as the
defect census. The committed catalogs were made at the commit that added
the benchmark; regenerating them changes the benchmark's inputs.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from toric_regions import dynamics as dy  # noqa: E402
from toric_regions import errors  # noqa: E402
from toric_regions import fan_geometry as fg  # noqa: E402
from toric_regions import region_construction as rc  # noqa: E402

ATLAS_SEED = 2006_08735
ATLAS_FANS_PER_STRATUM = 16
REACH_SEED = 2006_08736
REACH_TARGETS_PER_CLASS = 16


def atlas_outcome(gens, delta) -> str:
    try:
        region = rc.construct_region(fg.Fan(gens), delta)
    except Exception as exc:  # every outcome is recorded, none is fatal
        return wl.exception_outcome(exc, errors)[0]
    ok = all(r["passed"] for r in region.report.values())
    inside = rc.region_contains(region, fg.LogPoint(0.0, 0.0)) == "inside"
    return "validated" if ok and inside else "check:report"


def make_atlas() -> dict:
    rng = random.Random(ATLAS_SEED)
    fans = []
    for mode, b in wl.ATLAS_STRATA:
        seen = set()
        for _ in range(ATLAS_FANS_PER_STRATUM * 20):
            if len(seen) == ATLAS_FANS_PER_STRATUM:
                break
            gens = wl.draw_fan(rng, mode, b)
            key = frozenset(gens)
            if key in seen:
                continue
            seen.add(key)
            fans.append({"mode": mode, "b": b, "gens": [list(g) for g in gens],
                         "outcomes": [atlas_outcome(gens, d) for d in wl.ATLAS_DELTAS]})
    return {"generator_seed": ATLAS_SEED, "deltas": list(wl.ATLAS_DELTAS), "fans": fans}


def witness_outcome(fan, region, X, Y) -> str:
    try:
        traj = dy.reach_witness(fg.PosPoint(1.0, 1.0), fg.LogPoint(X, Y), fan,
                                wl.REACH_DELTA, region)
    except Exception as exc:  # every outcome is recorded, none is fatal
        return wl.exception_outcome(exc, errors)[0]
    return "arrived" if traj.worst_violation <= 1e-9 else "check:violation"


def make_reach() -> dict:
    rng = random.Random(REACH_SEED)
    out = {}
    for name, gens in wl.REACH_FANS.items():
        fan = fg.Fan(gens)
        region = rc.construct_region(fan, wl.REACH_DELTA)
        xs = [a.X for a in region.anchors.values()]
        ys = [a.Y for a in region.anchors.values()]
        box = (min(xs), max(xs), min(ys), max(ys))
        quota = {c: REACH_TARGETS_PER_CLASS for c in wl.R_CLASSES}
        targets = []
        for _ in range(200_000):
            if not any(quota.values()):
                break
            X = round(rng.uniform(box[0], box[1]), 6)
            Y = round(rng.uniform(box[2], box[3]), 6)
            cls = wl.r_class(X, Y, gens, wl.REACH_DELTA)
            if cls is None or not quota[cls]:
                continue
            if rc.region_contains(region, fg.LogPoint(X, Y), band=1e-6) != "inside":
                continue
            quota[cls] -= 1
            targets.append({"X": X, "Y": Y, "r_class": cls,
                            "seed_outcome": witness_outcome(fan, region, X, Y)})
        out[name] = {"gens": [list(g) for g in gens], "targets": targets}
    return {"generator_seed": REACH_SEED, "delta": wl.REACH_DELTA, "fans": out}


def main():
    for name, make in (("atlas_catalog.json", make_atlas), ("reach_targets.json", make_reach)):
        data = make()
        with open(HERE / "data" / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print(f"wrote data/{name}")


if __name__ == "__main__":
    main()
