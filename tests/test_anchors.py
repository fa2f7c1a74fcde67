"""Witnesses to the anchors of every atlas region at delta = 3.

For each fan of the benchmark's frozen atlas catalog whose region
validates at delta = 3, reach_witness runs from (1, 1) to every point of
``region.anchors`` (the start points, the chain ends and the closure
points, all on the boundary).  Each must arrive or raise WitnessFailed;
a bare exception or another package error fails the test, and so does
any outcome that moved from the one recorded in anchor_outcomes.jsonl,
until the record is rewritten:

    PYTHONPATH=src python tests/test_anchors.py > tests/anchor_outcomes.jsonl

Outcomes are "arrived" or "WitnessFailed:<leg>".  The record holds 2,422
arrivals and no failed route over 158 fans.
"""

import json
from pathlib import Path

from toric_regions.dynamics import reach_witness
from toric_regions.errors import ToricRegionsError, WitnessFailed
from toric_regions.fan_geometry import Fan, PosPoint
from toric_regions.region_construction import construct_region

HERE = Path(__file__).resolve().parent
CATALOG = json.loads((HERE.parent / "bench" / "data" / "atlas_catalog.json").read_text())
DELTA = 3.0


def anchor_outcomes() -> list[dict]:
    """One record per fan that validates at DELTA: its anchors' outcomes."""
    records = []
    for entry in CATALOG["fans"]:
        fan = Fan([tuple(g) for g in entry["gens"]])
        try:
            region = construct_region(fan, DELTA)
        except ToricRegionsError:
            continue
        outcomes = {}
        for name, anchor in region.anchors.items():
            try:
                reach_witness(PosPoint(1.0, 1.0), anchor, fan, DELTA, region)
                outcomes[name] = "arrived"
            except WitnessFailed as exc:
                outcomes[name] = f"WitnessFailed:{exc.leg}"
        records.append({"gens": entry["gens"], "outcomes": outcomes})
    return records


def test_anchor_witnesses_match_the_record():
    recorded = [json.loads(line) for line in
                (HERE / "anchor_outcomes.jsonl").read_text().splitlines()]
    now = anchor_outcomes()
    assert [r["gens"] for r in now] == [r["gens"] for r in recorded]
    moved = [(r["gens"], name, outcome, n["outcomes"].get(name))
             for r, n in zip(recorded, now) for name, outcome in r["outcomes"].items()
             if n["outcomes"].get(name) != outcome]
    assert now == recorded, f"(gens, anchor, recorded, now): {moved}"


if __name__ == "__main__":
    for rec in anchor_outcomes():
        print(json.dumps(rec))
