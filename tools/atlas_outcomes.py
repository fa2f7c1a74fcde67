"""Outcome and check figures of every case of the benchmark's fan atlas.

For each fan of ``bench/data/atlas_catalog.json``, at each catalog delta
and at delta = 300, it builds the region with ``validate=False``, runs
``validate_region`` on it, and prints one JSON line

    {"gens": [[p, q], ...], "delta": d, "seed": <seed outcome or null>,
     "outcome": <outcome now>, "site": <function or null>,
     "checks": {<check>: [<passed>, <worst>, <witness or null>], ...} or null,
     "pieces": <digest of the piece endpoints> or null,
     "samples": <digest of the validation samples> or null}

Outcomes use the benchmark's labels: "validated", "DeltaTooSmall:<check>"
(the first failed check, as ``construct_region`` reports it), the class
name of any other package error, or "bare:<class>" for an exception that
is not a package error.  "site" names the function in which such a bare
exception was raised.  "samples" digests every X and Y of
``sample_boundary(boundary, 512)``.  "checks", "pieces" and "samples" are
null when no region was built or its validation raised.  The catalog holds no seed outcome for
delta = 300.  The catalog is only read.

Run from anywhere, against the package under SRC_DIR (default: the
``src`` directory next to this file's parent):

    python tools/atlas_outcomes.py [SRC_DIR] > outcomes.jsonl

Floats are printed exactly, so running it on two source trees and
comparing the outputs with ``diff`` shows every case whose outcome, check
verdict, worst value, witness point, boundary or boundary sample changed;
counting "bare:" outcomes gives the defect census.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "bench" / "data" / "atlas_catalog.json"
EXTRA_DELTA = 300.0  # beyond the catalog's deltas; no seed outcome
SAMPLES = 512  # boundary samples digested per case, as many as the battery takes


def pieces_digest(boundary) -> str:
    """Short hash of every piece's endpoints, bit for bit."""
    h = hashlib.sha256()
    for piece in boundary.pieces:
        for pt in (piece.start, piece.end):
            h.update(f"{pt.X.hex()} {pt.Y.hex()};".encode())
    return h.hexdigest()[:16]


def samples_digest(boundary, package) -> str:
    """Short hash of every X and Y of ``sample_boundary``'s arrays
    (X, Y, piece index), bit for bit."""
    X, Y, _ = package.region_construction.sample_boundary(boundary, SAMPLES)
    h = hashlib.sha256()
    for x, y in zip(X.tolist(), Y.tolist()):
        h.update(f"{x.hex()} {y.hex()};".encode())
    return h.hexdigest()[:16]


def case_record(gens, delta: float, seed: str | None, package) -> dict:
    """Run one atlas case with the imported ``toric_regions`` package."""
    rc, fg = package.region_construction, package.fan_geometry
    site = checks = digest = samples = None
    try:
        boundary = rc.construct_region(fg.Fan(gens), delta, validate=False)
        report = rc.validate_region(boundary)
        checks = {name: [res["passed"], res["worst"], res.get("witness")]
                  for name, res in report.items()}
        digest = pieces_digest(boundary)
        samples = samples_digest(boundary, package)
        bad = [name for name, res in report.items() if not res["passed"]]
        outcome = f"DeltaTooSmall:{bad[0]}" if bad else "validated"
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
            "outcome": outcome, "site": site, "checks": checks, "pieces": digest,
            "samples": samples}


def records(package):
    with open(CATALOG, encoding="utf-8") as fh:
        catalog = json.load(fh)
    for fan in catalog["fans"]:
        gens = [tuple(g) for g in fan["gens"]]
        for delta, seed in zip(catalog["deltas"] + [EXTRA_DELTA], fan["outcomes"] + [None]):
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
