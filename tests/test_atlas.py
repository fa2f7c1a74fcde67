"""The fan atlas as a correctness gate.

Every fan of the benchmark's frozen atlas catalog, at each catalog delta
and at delta = 300, either yields a region that passes the whole
validation battery or raises a documented ToricRegionsError, and its
outcome is the one recorded in atlas_outcomes.jsonl.  A bare exception
escaping the package fails the test, and so does any moved outcome, a
region lost or a region won, until the record is rewritten:

    python tools/atlas_outcomes.py | PYTHONPATH=src python tests/test_atlas.py \
        > tests/atlas_outcomes.jsonl

Outcomes are labelled as tools/atlas_outcomes.py labels them: "validated",
"DeltaTooSmall:<first failed check>", or the class name of another
package error.
"""

import json
import sys
from pathlib import Path

import pytest

from toric_regions.errors import DeltaTooSmall, ToricRegionsError
from toric_regions.fan_geometry import Fan
from toric_regions.region_construction import construct_region

HERE = Path(__file__).resolve().parent
CATALOG = json.loads((HERE.parent / "bench" / "data" / "atlas_catalog.json").read_text())
DELTAS = CATALOG["deltas"] + [300.0]
FANS = [tuple(map(tuple, fan["gens"])) for fan in CATALOG["fans"]]


@pytest.fixture(scope="module")
def recorded() -> dict:
    """{gens: {delta: outcome}} from atlas_outcomes.jsonl."""
    lines = (HERE / "atlas_outcomes.jsonl").read_text().splitlines()
    return {tuple(map(tuple, rec["gens"])): {float(d): o for d, o in rec["outcomes"].items()}
            for rec in map(json.loads, lines)}


def test_record_covers_the_atlas(recorded):
    assert list(recorded) == FANS
    assert all(list(outcomes) == DELTAS for outcomes in recorded.values())


@pytest.mark.parametrize("gens", FANS, ids=lambda gens: ";".join(f"{p},{q}" for p, q in gens))
def test_fan_validates_or_raises_documented(gens, recorded):
    outcomes = {}
    for delta in DELTAS:
        try:
            construct_region(Fan(gens), delta)
            outcomes[delta] = "validated"
        except DeltaTooSmall as exc:
            outcomes[delta] = f"DeltaTooSmall:{exc.check}"
        except ToricRegionsError as exc:
            outcomes[delta] = type(exc).__name__
    moved = {d: (recorded[gens][d], o) for d, o in outcomes.items() if o != recorded[gens][d]}
    assert not moved, f"(recorded, now) by delta: {moved}"


if __name__ == "__main__":
    # Fold tools/atlas_outcomes.py's records on stdin into one line per fan.
    fans = {}
    for rec in map(json.loads, sys.stdin):
        fans.setdefault(json.dumps(rec["gens"]), {})[str(rec["delta"])] = rec["outcome"]
    for gens, outcomes in fans.items():
        print(f'{{"gens": {gens}, "outcomes": {json.dumps(outcomes)}}}')
