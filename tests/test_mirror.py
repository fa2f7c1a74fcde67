"""Mirror equivariance of the regions over the fan atlas.

Swapping x and y maps the line (p, q) of a fan to (q, p) and the inclusion
at (X, Y) to its mirror at (Y, X) (see TestSwapSymmetry in test_tdi_rhs.py).
The minimal invariant region of the mirrored fan is therefore the mirror
image of the fan's region, so wherever both validate they must label every
point and its swap alike.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from toric_regions.errors import ToricRegionsError
from toric_regions.fan_geometry import Fan, LogPoint
from toric_regions.region_construction import construct_region, region_contains

HERE = Path(__file__).resolve().parent
CATALOG = json.loads((HERE.parent / "bench" / "data" / "atlas_catalog.json").read_text())
FANS = [[tuple(g) for g in fan["gens"]] for fan in CATALOG["fans"]]
PROBES = 400  # seeded probes per case, in the box of the piece ends widened by 1


def _labels(region, X, Y, band: float) -> list[str]:
    """region_contains' label of each point (X[j], Y[j]) at band."""
    return [region_contains(region, LogPoint(x, y), band) for x, y in zip(X.tolist(), Y.tolist())]


def _region(gens, delta):
    """The validated region of the fan, or None where the package raises."""
    try:
        return construct_region(Fan(gens), delta)
    except ToricRegionsError:
        return None


@pytest.mark.parametrize("delta", [0.5, 3.0, 300.0])
def test_mirrored_fan_gives_the_mirrored_region(delta):
    rng = np.random.default_rng(int(delta * 10))
    compared, moved = 0, []
    for gens in FANS:
        here = _region(gens, delta)
        there = _region([(q, p) for p, q in gens], delta) if here else None
        if there is None:
            continue
        ends = np.array([(e.X, e.Y) for pc in here.pieces for e in (pc.start, pc.end)])
        X, Y = rng.uniform(ends.min(axis=0) - 1.0, ends.max(axis=0) + 1.0, size=(PROBES, 2)).T
        if _labels(here, X, Y, 1e-9) != _labels(there, Y, X, 1e-9):
            moved.append(gens)
        compared += 1
    assert not moved, f"regions that are not mirrored at delta={delta}: {moved}"
    assert compared > 100
