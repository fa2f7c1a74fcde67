"""The benchmark's two defect censuses as a correctness gate.

The level census queries phi_level at 16 levels spread evenly over the
band (3, 4), at the start point (N, M) of the all-negative fan
{(-2,1),(-3,1),(-3,2)}.  A level is "match" when phi is within 1e-6 of
it and hull(phi + 1e-9) contains the point while hull(phi - 1e-9) does
not strictly contain it, "mismatch" when only the bracket holds, and
"bracket" when the bracket fails.  The reach census asks reach_witness
from (1, 1) for every axis-fan target of bench/data/reach_targets.json
whose frozen seed outcome is a failure: "arrived" when the witness ends
within 1e-6 of the target, else the class name of the package error.

Each outcome must be the one recorded in census_outcomes.jsonl, so a
level match or a reach target lost or won fails the test until the
record is rewritten:

    PYTHONPATH=src python tests/test_censuses.py > tests/census_outcomes.jsonl
"""

import json
import sys
from pathlib import Path

from toric_regions.dynamics import reach_witness
from toric_regions.errors import ToricRegionsError
from toric_regions.fan_geometry import Fan, LogPoint, PosPoint
from toric_regions.region_construction import (
    choose_start_points,
    compute_slope_classes,
    construct_region,
    conv_hull,
    hull_contains,
    intersection_points,
    phi_level,
)

HERE = Path(__file__).resolve().parent
REACH = json.loads((HERE.parent / "bench" / "data" / "reach_targets.json").read_text())
LEVEL_FAN = ((-2, 1), (-3, 1), (-3, 2))
LEVELS = [3.0 + (k + 0.5) / 16 for k in range(16)]
AXIS_TARGETS = [(t["X"], t["Y"]) for t in REACH["fans"]["axis"]["targets"]
                if t["seed_outcome"] != "arrived"]


def level_outcome(fan: Fan, level: float) -> str:
    nm = choose_start_points(intersection_points(fan, 1.0), compute_slope_classes(fan).mode)[0]
    pt = LogPoint(level * nm.cx, level * nm.cy)
    try:
        phi = phi_level(pt, fan, 3.0, 4.0)
    except ToricRegionsError as exc:
        return type(exc).__name__

    def hull(delta):
        return conv_hull(construct_region(fan, delta, validate=False))

    if not hull_contains(hull(phi + 1e-9), pt) or hull_contains(hull(phi - 1e-9), pt,
                                                                rel_tol=-1e-9):
        return "bracket"
    return "match" if abs(phi - level) <= 1e-6 else "mismatch"


def reach_outcome(fan: Fan, region, X: float, Y: float) -> str:
    try:
        traj = reach_witness(PosPoint(1.0, 1.0), LogPoint(X, Y), fan, REACH["delta"], region)
    except ToricRegionsError as exc:
        return type(exc).__name__
    end = traj.points[-1]
    return "arrived" if max(abs(end.X - X), abs(end.Y - Y)) <= 1e-6 else "missed"


def outcomes() -> list[dict]:
    fan = Fan(LEVEL_FAN)
    records = [{"census": "level", "gens": [list(g) for g in LEVEL_FAN], "level": level,
                "outcome": level_outcome(fan, level)} for level in LEVELS]
    gens = REACH["fans"]["axis"]["gens"]
    fan = Fan([tuple(g) for g in gens])
    region = construct_region(fan, REACH["delta"])
    records += [{"census": "reach", "gens": gens, "X": X, "Y": Y,
                 "outcome": reach_outcome(fan, region, X, Y)} for X, Y in AXIS_TARGETS]
    return records


def test_censuses_match_the_record():
    recorded = [json.loads(line) for line in
                (HERE / "census_outcomes.jsonl").read_text().splitlines()]
    assert len(LEVELS) == len(AXIS_TARGETS) == 16
    now = outcomes()
    assert [{k: v for k, v in r.items() if k != "outcome"} for r in recorded] == [
        {k: v for k, v in r.items() if k != "outcome"} for r in now]
    moved = [(r, n["outcome"]) for r, n in zip(recorded, now) if r != n]
    assert not moved, f"(record, now): {moved}"


if __name__ == "__main__":
    for rec in outcomes():
        print(json.dumps(rec))
