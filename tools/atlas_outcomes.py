"""Outcome of every case of the benchmark's fan atlas, one JSON line each.

For each (fan, delta) case of ``bench/data/atlas_catalog.json`` it runs
``construct_region`` with the default validation and prints

    {"gens": [[p, q], ...], "delta": d, "seed": <seed outcome>,
     "outcome": <outcome now>, "site": <function or null>}

Outcomes use the benchmark's labels: "validated", "DeltaTooSmall:<check>",
the class name of any other package error, or "bare:<class>" for an
exception that is not a package error.  "site" names the function in
which such a bare exception was raised.  The catalog is only read.

Run from anywhere, against the package under SRC_DIR (default: the
``src`` directory next to this file's parent):

    python tools/atlas_outcomes.py [SRC_DIR] > outcomes.jsonl

Running it on two source trees and comparing the outputs with ``diff``
shows every case whose outcome changed; counting "bare:" outcomes gives
the defect census.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "bench" / "data" / "atlas_catalog.json"


def case_record(gens, delta: float, seed: str, package) -> dict:
    """Run one atlas case with the imported ``toric_regions`` package."""
    rc, fg = package.region_construction, package.fan_geometry
    site = None
    try:
        # With validation on, a returned region passed every check.
        rc.construct_region(fg.Fan(gens), delta)
        outcome = "validated"
    except package.errors.DeltaTooSmall as exc:
        outcome = f"DeltaTooSmall:{exc.check}"
    except package.errors.ToricRegionsError as exc:
        outcome = type(exc).__name__
    except Exception as exc:  # a leak: record where it came from
        outcome = f"bare:{type(exc).__name__}"
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        site = tb.tb_frame.f_code.co_name
    return {"gens": [list(g) for g in gens], "delta": delta, "seed": seed,
            "outcome": outcome, "site": site}


def records(package):
    with open(CATALOG, encoding="utf-8") as fh:
        catalog = json.load(fh)
    for fan in catalog["fans"]:
        gens = [tuple(g) for g in fan["gens"]]
        for delta, seed in zip(catalog["deltas"], fan["outcomes"]):
            yield case_record(gens, delta, seed, package)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else ROOT / "src"
    if not (src / "toric_regions").is_dir():
        print(f"no toric_regions package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    package = importlib.import_module("toric_regions")
    for rec in records(package):
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
