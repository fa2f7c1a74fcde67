"""Outcome and check figures of every case of the benchmark's fan atlas.

For each fan of ``bench/data/atlas_catalog.json``, at each catalog delta
and at delta = 300, it builds the region with ``validate=False``, runs
``validate_region`` on it, and prints one JSON line

    {"gens": [[p, q], ...], "delta": d, "seed": <seed outcome or null>,
     "outcome": <outcome now>, "site": <function or null>,
     "checks": {<check>: [<passed>, <worst>, <witness or null>], ...} or null,
     "pieces": <digest of the piece endpoints> or null,
     "samples": <digest of the validation samples> or null,
     "contains": <digest of containment labels> or null}

Outcomes use the benchmark's labels: "validated", "DeltaTooSmall:<check>"
(the first failed check, as ``construct_region`` reports it), the class
name of any other package error, or "bare:<class>" for an exception that
is not a package error.  "site" names the function in which such a bare
exception was raised.  "samples" digests every X and Y of
``sample_boundary(boundary, 512)``.  "contains" digests the containment
labels of a seeded probe set (see ``contains_probes``), each computed by
one ``region_contains`` call; a package error while labelling reads
"raised:<class>".  "checks", "pieces", "samples" and
"contains" are null when no region was built or its validation raised.
The catalog holds no seed outcome for delta = 300.  The catalog is only
read.

Run from anywhere, against the package under SRC_DIR (default: the
``src`` directory next to this file's parent):

    python tools/atlas_outcomes.py [SRC_DIR] > outcomes.jsonl

Floats are printed exactly, so running it on two source trees and
comparing the outputs with ``diff`` shows every case whose outcome, check
verdict, worst value, witness point, boundary, boundary sample or
containment label changed;
counting "bare:" outcomes gives the defect census.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "bench" / "data" / "atlas_catalog.json"
EXTRA_DELTA = 300.0  # beyond the catalog's deltas; no seed outcome
SAMPLES = 512  # boundary samples digested per case, as many as the battery takes
PROBE_SEED = 2020  # seeds every case's probe jitter and box points alike
PROBE_SAMPLES = 64  # sample_boundary total of the containment probes


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


def contains_probes(boundary, package):
    """Arrays (X, Y, band) of the containment probes: the S^uc points and the
    chord points at band 1e-7 and (1,1) at 1e-9, as the battery classifies
    them; ``sample_boundary(boundary, PROBE_SAMPLES)`` and the same points
    jittered by up to 1e-7 in each coordinate, at 1e-7; and PROBE_SAMPLES
    points in the box of the piece ends widened by 1, at 1e-9."""
    rc = package.region_construction
    rng = np.random.default_rng(PROBE_SEED)
    pts = [(ip.log.X, ip.log.Y) for ip in rc.intersection_points(boundary.fan, boundary.delta)]
    pts += [(pt.X, pt.Y) for pt in rc._chord_points(boundary)]
    pts.append((0.0, 0.0))
    X, Y, _ = rc.sample_boundary(boundary, PROBE_SAMPLES)
    jitter = rng.uniform(-1e-7, 1e-7, size=(2, len(X)))
    ends = np.array([(e.X, e.Y) for pc in boundary.pieces for e in (pc.start, pc.end)])
    box = rng.uniform(ends.min(axis=0) - 1.0, ends.max(axis=0) + 1.0, size=(PROBE_SAMPLES, 2))
    px, py = np.array(pts).T
    band = np.concatenate([np.full(len(pts) - 1, 1e-7), [1e-9], np.full(2 * len(X), 1e-7),
                           np.full(PROBE_SAMPLES, 1e-9)])
    return (np.concatenate([px, X, X + jitter[0], box[:, 0]]),
            np.concatenate([py, Y, Y + jitter[1], box[:, 1]]), band)


def contains_digest(boundary, package) -> str:
    """Short hash of the containment label of every probe of
    ``contains_probes``, each by one ``region_contains`` call."""
    rc, LogPoint = package.region_construction, package.fan_geometry.LogPoint
    try:
        X, Y, band = contains_probes(boundary, package)
        labels = [rc.region_contains(boundary, LogPoint(x, y), b)
                  for x, y, b in zip(X.tolist(), Y.tolist(), band.tolist())]
    except package.errors.ToricRegionsError as exc:
        return f"raised:{type(exc).__name__}"
    return hashlib.sha256(",".join(labels).encode()).hexdigest()[:16]


def case_record(gens, delta: float, seed: str | None, package) -> dict:
    """Run one atlas case with the imported ``toric_regions`` package."""
    rc, fg = package.region_construction, package.fan_geometry
    site = checks = digest = samples = contains = None
    try:
        boundary = rc.construct_region(fg.Fan(gens), delta, validate=False)
        report = rc.validate_region(boundary)
        checks = {name: [res["passed"], res["worst"], res.get("witness")]
                  for name, res in report.items()}
        digest = pieces_digest(boundary)
        samples = samples_digest(boundary, package)
        contains = contains_digest(boundary, package)
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
            "samples": samples, "contains": contains}


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
