"""δ and subfan nesting of the regions over the fan atlas.

Two monotonicity laws follow from the definitions.  A larger δ widens
every strip, so every value of the inclusion grows, and the minimal
invariant region can only grow: P(δa) ⊆ P(δb) for δa < δb.  A subfan's
inclusion lies inside the fan's (TestSubfanMonotonicity in
test_tdi_rhs.py), so P(fan) is invariant for the subfan too and holds its
r >= 2 set: P(subfan) ⊆ P(fan).

The probes of the smaller region are its boundary samples and seeded
points inside it; one labelled outside the larger region at band 1e-7
breaks the law.  δ nesting is checked over consecutive atlas deltas
wherever both regions build, and each break records whether each side
validates.  Subfan nesting is checked for each atlas fan with one
generator removed, at δ = 1, 3 and 30, where both regions validate.

The known breaks are recorded in nesting_breaks.jsonl.  A new break fails
the test, and so does a recorded one that is gone, until the record is
rewritten:

    PYTHONPATH=src python tests/test_nesting.py > tests/nesting_breaks.jsonl
"""

import json
from pathlib import Path

import numpy as np

from toric_regions.errors import ToricRegionsError
from toric_regions.fan_geometry import Fan, LogPoint
from toric_regions.region_construction import (
    construct_region,
    region_contains,
    sample_boundary,
    validate_region,
)

HERE = Path(__file__).resolve().parent
CATALOG = json.loads((HERE.parent / "bench" / "data" / "atlas_catalog.json").read_text())
FANS = [[tuple(g) for g in fan["gens"]] for fan in CATALOG["fans"]]
DELTAS = [*CATALOG["deltas"], 300.0]
SUBFAN_DELTAS = (1.0, 3.0, 30.0)
SAMPLES = 128  # boundary samples of the smaller region
DRAWS = 32  # seeded draws in the box of its piece ends; those inside are probes


def _region(gens, delta: float):
    """The fan's region at delta, unvalidated, or None where the
    construction raises."""
    try:
        return construct_region(Fan(gens), delta, validate=False)
    except ToricRegionsError:
        return None


def _labels(region, X, Y, band: float) -> list[str]:
    """region_contains' label of each point (X[j], Y[j]) at band."""
    return [region_contains(region, LogPoint(x, y), band) for x, y in zip(X.tolist(), Y.tolist())]


def _validates(region) -> bool:
    return all(res["passed"] for res in validate_region(region).values())


def _sticks_out(small, big, rng) -> bool:
    """Does a probe of small lie outside big?"""
    X, Y, _ = sample_boundary(small, SAMPLES)
    ends = np.array([(e.X, e.Y) for pc in small.pieces for e in (pc.start, pc.end)])
    PX, PY = rng.uniform(ends.min(axis=0), ends.max(axis=0), size=(DRAWS, 2)).T
    inside = np.array(_labels(small, PX, PY, 1e-9)) == "inside"
    X, Y = np.concatenate([X, PX[inside]]), np.concatenate([Y, PY[inside]])
    return "outside" in _labels(big, X, Y, 1e-7)


def delta_breaks() -> tuple[int, list[dict]]:
    """The consecutive-delta pairs checked, and the breaks among them."""
    rng = np.random.default_rng(15)
    pairs, breaks = 0, []
    for gens in FANS:
        regions = [_region(gens, delta) for delta in DELTAS]
        for k in range(len(DELTAS) - 1):
            small, big = regions[k:k + 2]
            if small is None or big is None:
                continue
            pairs += 1
            if _sticks_out(small, big, rng):
                breaks.append({"law": "delta", "gens": gens, "deltas": DELTAS[k:k + 2],
                               "validated": [_validates(small), _validates(big)]})
    return pairs, breaks


def subfan_breaks() -> tuple[int, list[dict]]:
    """The (subfan, fan, delta) cases checked where both regions build, and
    the breaks among them where both validate."""
    rng = np.random.default_rng(16)
    built = {}  # (generator set, delta) -> region or None: subfans repeat
    pairs, breaks = 0, []

    def region(gens, delta):
        key = frozenset(gens), delta
        if key not in built:
            built[key] = _region(gens, delta)
        return built[key]

    for delta in SUBFAN_DELTAS:
        for gens in FANS:
            if len(gens) < 3 or region(gens, delta) is None:
                continue
            big = region(gens, delta)
            for k, added in enumerate(gens):
                sub = gens[:k] + gens[k + 1:]
                small = region(sub, delta)
                if small is None:
                    continue
                pairs += 1
                # Only a break needs the verdicts: the law holds where both validate.
                if _sticks_out(small, big, rng) and _validates(small) and _validates(big):
                    breaks.append({"law": "subfan", "gens": sub, "added": added,
                                   "delta": delta})
    return pairs, breaks


def _jsonable(records: list[dict]) -> list[dict]:
    return json.loads(json.dumps(records))


def _recorded(law: str) -> list[dict]:
    return [rec for rec in map(json.loads, (HERE / "nesting_breaks.jsonl").read_text()
                               .splitlines()) if rec["law"] == law]


def test_delta_nesting_breaks_match_the_record():
    pairs, breaks = delta_breaks()
    assert pairs > 900
    assert _jsonable(breaks) == _recorded("delta")


def test_subfan_nesting_breaks_match_the_record():
    pairs, breaks = subfan_breaks()
    assert pairs > 1000
    assert _jsonable(breaks) == _recorded("subfan")


if __name__ == "__main__":
    for rec in delta_breaks()[1] + subfan_breaks()[1]:
        print(json.dumps(rec))
