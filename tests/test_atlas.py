"""The fan atlas as a correctness gate.

Every fan of the benchmark's frozen atlas catalog, at each catalog delta
and at delta = 300, either yields a region that passes the whole
validation battery or raises a documented ToricRegionsError.  A bare
exception escaping the package fails the test.
"""

import json
from pathlib import Path

import pytest

from toric_regions.errors import ToricRegionsError
from toric_regions.fan_geometry import Fan
from toric_regions.region_construction import construct_region

CATALOG = json.loads((Path(__file__).resolve().parent.parent
                      / "bench" / "data" / "atlas_catalog.json").read_text())
DELTAS = CATALOG["deltas"] + [300.0]


@pytest.mark.parametrize("gens", [tuple(map(tuple, fan["gens"])) for fan in CATALOG["fans"]],
                         ids=lambda gens: ";".join(f"{p},{q}" for p, q in gens))
def test_fan_validates_or_raises_documented(gens):
    for delta in DELTAS:
        try:
            region = construct_region(Fan(gens), delta)
        except ToricRegionsError:
            continue
        failed = [name for name, res in region.report.items() if not res["passed"]]
        assert not failed, f"delta={delta}: {failed}"
