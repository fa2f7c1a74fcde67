"""Witnesses and flows from the anchors of every atlas region.

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

At delta = 100 and 300, where (N,M) lies past log x = 709, every anchor
of every region that validates there must arrive.  And the all-rates-one
embedded field ("origin_11") is integrated from a seeded sample of the
delta = 3 anchors, many of them at stiff starts: each run must end, or
raise a ToricRegionsError.
"""

import json
import random
from pathlib import Path

import pytest

from toric_regions.dynamics import (
    FieldStrategy,
    embedded_system_for_target,
    integrate,
    reach_witness,
)
from toric_regions.errors import ToricRegionsError, WitnessFailed
from toric_regions.fan_geometry import Fan, PosPoint
from toric_regions.region_construction import construct_region

HERE = Path(__file__).resolve().parent
CATALOG = json.loads((HERE.parent / "bench" / "data" / "atlas_catalog.json").read_text())
DELTA = 3.0
FLOW_SAMPLE = 200  # delta = 3 anchors whose flow the flow gate integrates
FLOW_T_END = 0.5


def validated_regions(delta: float):
    """(gens, fan, region) of each catalog fan whose region validates at delta."""
    for entry in CATALOG["fans"]:
        fan = Fan([tuple(g) for g in entry["gens"]])
        try:
            yield entry["gens"], fan, construct_region(fan, delta)
        except ToricRegionsError:
            continue


def anchor_outcomes() -> list[dict]:
    """One record per fan that validates at DELTA: its anchors' outcomes."""
    records = []
    for gens, fan, region in validated_regions(DELTA):
        outcomes = {}
        for name, anchor in region.anchors.items():
            try:
                reach_witness(PosPoint(1.0, 1.0), anchor, fan, DELTA, region)
                outcomes[name] = "arrived"
            except WitnessFailed as exc:
                outcomes[name] = f"WitnessFailed:{exc.leg}"
        records.append({"gens": gens, "outcomes": outcomes})
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


@pytest.mark.parametrize("delta, anchors, sample", [(100.0, 1854, 120), (300.0, 1798, 40)])
def test_anchor_witnesses_arrive_at_large_delta(delta, anchors, sample):
    # A seeded sample: a witness takes about 13 ms at delta = 100 and 33
    # ms at 300, where its legs are long, so all of them take minutes.
    targets = [(gens, fan, region, name, anchor)
               for gens, fan, region in validated_regions(delta)
               for name, anchor in region.anchors.items()]
    assert len(targets) == anchors
    failed = []
    for gens, fan, region, name, anchor in random.Random(0).sample(targets, sample):
        try:
            reach_witness(PosPoint(1.0, 1.0), anchor, fan, delta, region)
        except WitnessFailed as exc:
            failed.append((gens, name, exc.leg))
    assert failed == []


def test_anchor_flows_end_or_raise_documented():
    # The field's steps are capped by its stiffness, the log step and
    # t_end alone, not by dt.  A bare exception from any run fails here.
    starts = [(fan, anchor) for _, fan, region in validated_regions(DELTA)
              for anchor in region.anchors.values()]
    assert len(starts) == 2422
    for fan, anchor in random.Random(0).sample(starts, FLOW_SAMPLE):
        field = FieldStrategy(embedded_system_for_target(fan, DELTA, "origin_11"))
        try:
            traj = integrate(field, anchor, fan, DELTA, t_end=FLOW_T_END)
        except ToricRegionsError:
            continue
        assert traj.termination in ("t_end", "stopped", "stalled", "max_steps")


if __name__ == "__main__":
    for rec in anchor_outcomes():
        print(json.dumps(rec))
