"""The benchmark's three workloads: seeded inputs, timed operations and the
checks of their outputs.

Every input comes from the run's ``--seed`` through this file. The atlas
cases and the reach targets are drawn from frozen catalogs under ``data/``
that ``make_catalogs.py`` wrote once, with their own generator seeds, so
the parent commit and a change run identical inputs.

Each catalog entry keeps the outcome the seed commit gave it. Entries on
which the seed commit failed (a bare exception on an atlas case, a
``WitnessFailed`` on an in-region target) are not timed: they form the
run's defect census, which runs after the timed loop and reports its own
outcome histogram, so those known defects stay in view.
"""

import json
import math
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# -- the fan atlas ------------------------------------------------------

ATLAS_DELTAS = (0.5, 1.0, 3.0, 10.0, 30.0, 100.0)
# Primitive generators with |p|, |q| <= 3, by slope class.
S1 = ((-1, 1), (-1, 2), (-1, 3), (-2, 1), (-2, 3), (-3, 1), (-3, 2))  # slope < 0
S2 = ((1, 2), (1, 3), (2, 3))                                         # 0 < slope < 1
S3 = ((1, 1), (2, 1), (3, 1), (3, 2))                                 # slope >= 1
AXIS = ((1, 0), (0, 1))
# (mode, b) strata; the standard mode needs one generator of each class.
ATLAS_STRATA = ([("standard", b) for b in range(3, 7)]
                + [("all_positive", b) for b in range(2, 7)]
                + [("all_negative", b) for b in range(2, 7)])


def draw_fan(rng: random.Random, mode: str, b: int) -> tuple:
    """A fan of b generators of the given slope mode."""
    if mode == "all_positive":
        return tuple(rng.sample(S2 + S3, b))
    if mode == "all_negative":
        return tuple(rng.sample(S1, b))
    gens = [rng.choice(S1), rng.choice(S2), rng.choice(S3)]
    rest = [g for g in S1 + S2 + S3 + AXIS if g not in gens]
    return tuple(gens + rng.sample(rest, b - 3))


# -- fans of the level and reach workloads ------------------------------

WORKED = ((-1, 1), (1, 2), (2, 1))
REACH_DELTA = 3.0
REACH_FANS = {
    "worked": WORKED,
    "axis": ((-1, 1), (1, 2), (2, 1), (1, 0)),
    "all_positive": ((1, 2), (2, 1)),
    "all_negative": ((-1, 2), (-2, 1)),
}
LEVEL_BAND = (3.0, 4.0)
LEVEL_FANS = {
    "worked": WORKED,
    "axis": ((-1, 1), (1, 2), (2, 1), (1, 0)),
    "all_positive": ((1, 2), (2, 1), (1, 1)),
    "all_negative": ((-1, 2), (-2, 1)),
}
# On this fan the seed commit's phi_level misses most levels and, near
# 3.13-3.18, breaks the bracket check: its queries form the level census.
LEVEL_DEFECT_FAN = ((-2, 1), (-3, 1), (-3, 2))
LEVEL_CENSUS = 16
R_CLASSES = ("strip", "gap", "full")


def r_class(X: float, Y: float, gens, delta: float) -> str:
    """Strip count of a log point by the benchmark's own arithmetic:
    'full' (r >= 2), 'strip' (r = 1) or 'gap' (r = 0); None within 1e-6 of
    a strip boundary."""
    r = 0
    for p, q in gens:
        s = abs(q * Y - p * X)
        w = delta * math.hypot(p, q)
        if abs(s - w) <= 1e-6:
            return None
        r += s < w
    return "full" if r >= 2 else ("strip" if r == 1 else "gap")


def start_point_exponents(gens) -> tuple:
    """Unit-delta exponents (cx, cy) of the start point (N, M).

    The pairwise boundary-curve intersections are (cx, cy) * delta with an
    integer determinant per generator pair; (N, M) maximises the larger
    coordinate, a y-maximum winning an x/y tie, then the point nearest the
    diagonal.
    """
    pts = []
    for i, (pi, qi) in enumerate(gens):
        for pj, qj in gens[i + 1:]:
            det = pi * qj - pj * qi
            wi, wj = math.hypot(pi, qi), math.hypot(pj, qj)
            for si in (1, -1):
                for sj in (1, -1):
                    pts.append(((qi * wj * sj - qj * wi * si) / det,
                                (pi * wj * sj - pj * wi * si) / det))
    xmax = max(p[0] for p in pts)
    ymax = max(p[1] for p in pts)
    if ymax >= xmax - 1e-9:
        cands = [p for p in pts if p[1] >= ymax - 1e-9]
    else:
        cands = [p for p in pts if p[0] >= xmax - 1e-9]
    return min(cands, key=lambda p: abs(p[0] - p[1]))


# -- shared plumbing ----------------------------------------------------


class Op:
    """One timed operation: its class, a label and a zero-argument call."""

    __slots__ = ("kind", "label", "call", "data")

    def __init__(self, kind, label, call, data=None):
        self.kind = kind
        self.label = label
        self.call = call
        self.data = data


def exception_outcome(exc, errors) -> tuple:
    """(outcome label, failed) for an exception an op raised.

    Documented rejections complete the op; a non-package exception, or a
    WitnessFailed / StepCollapse on a valid input, fails it.
    """
    if isinstance(exc, errors.DeltaTooSmall):
        return f"DeltaTooSmall:{exc.check}", False
    if isinstance(exc, (errors.WitnessFailed, errors.StepCollapse)):
        return type(exc).__name__, True
    if isinstance(exc, errors.ToricRegionsError):
        return type(exc).__name__, False
    return f"bare:{type(exc).__name__}", True


def load_catalog(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def is_defect(outcome: str) -> bool:
    """A frozen seed outcome that counts as a failed op."""
    return outcome.startswith("bare:") or outcome in ("WitnessFailed", "StepCollapse")


class Workload:
    """Base: a workload builds its ops from the seed, sets up the program
    objects they need, and judges each op's result outside the timed region."""

    name = ""
    # Per-class latency figures printed next to the declared metrics.
    aliases = {}
    # Op classes pooled into latency_ms_p50 / _p90; None pools them all.
    latency_kinds = None

    def __init__(self, seed: int, seconds: float, program):
        self.program = program  # the imported package modules
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self):
        """Build the program objects the ops need (timed as set-up)."""

    def ops(self) -> list:
        raise NotImplementedError

    def census(self) -> list:
        return []

    def judge(self, op, result) -> tuple:
        """(outcome label, failed) for an op that returned."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        return {}


def _target_ops(seconds: float, rate: float) -> int:
    """Op count for a run: the seed commit does about ``rate`` such ops
    per second on a 2-core Xeon."""
    return max(1, round(seconds * rate))


def _without_replacement(rng: random.Random, items: list):
    """Endless draws: each pass is a fresh seeded permutation of items, so a
    run sees as many distinct items as its length allows."""
    while True:
        yield from rng.sample(items, len(items))


def _radical_inverse(j: int) -> float:
    """Base-2 van der Corput point: j's binary digits mirrored after the
    point, so consecutive j spread evenly over [0, 1)."""
    x, f = 0.0, 0.5
    while j:
        x += f * (j & 1)
        j >>= 1
        f *= 0.5
    return x


def _interleave(*streams) -> list:
    """Merge lists so each is spread evenly over the result."""
    keyed = [((k + 0.5) / len(s), j, item)
             for j, s in enumerate(streams) for k, item in enumerate(s)]
    return [item for _, _, item in sorted(keyed, key=lambda t: (t[0], t[1]))]


# -- atlas_validate -----------------------------------------------------


class AtlasValidate(Workload):
    """construct_region(fan, delta) with the default validation battery."""

    name = "atlas_validate"
    aliases = {"validate": ("validate_ms_p50", "validate_ms_p90")}
    RATE = 53.0

    def __init__(self, seed, seconds, program):
        super().__init__(seed, seconds, program)
        cat = load_catalog("atlas_catalog.json")
        self.strata = {}
        self.defects = []
        for fan in cat["fans"]:
            timed = []
            for delta, outcome in zip(cat["deltas"], fan["outcomes"]):
                case = (tuple(map(tuple, fan["gens"])), delta)
                (self.defects if is_defect(outcome) else timed).append(case)
            if timed:
                self.strata.setdefault((fan["mode"], fan["b"]), []).append(timed)
        # Passes over the whole catalog: each pass visits the strata
        # round-robin, every stratum in a fresh seeded order. At the
        # benchmark's 20 s a run is one full pass.
        self.cases = []
        target = _target_ops(seconds, self.RATE)
        while len(self.cases) < target:
            orders = [self.rng.sample(self.strata[key], len(self.strata[key]))
                      for key in ATLAS_STRATA if key in self.strata]
            for k in range(max(map(len, orders))):
                for order in orders:
                    if k < len(order) and len(self.cases) < target:
                        self.cases.extend(order[k])

    def _op(self, case):
        gens, delta = case
        rc, fg = self.program.region_construction, self.program.fan_geometry
        label = "{" + ",".join(f"({p},{q})" for p, q in gens) + f"}} d={delta}"
        return Op("validate", label, lambda: rc.construct_region(fg.Fan(gens), delta))

    def ops(self):
        return [self._op(c) for c in self.cases]

    def census(self):
        return [self._op(c) for c in self.defects]

    def judge(self, op, region):
        rc, fg = self.program.region_construction, self.program.fan_geometry
        if not all(res["passed"] for res in region.report.values()):
            return "check:report", True
        if rc.region_contains(region, fg.LogPoint(0.0, 0.0)) != "inside":
            return "check:unit_point", True
        return "validated", False


# -- level_band ---------------------------------------------------------


class LevelBand(Workload):
    """phi_level of the start point (N, M) at a seeded level in (3, 4),
    through the default shared hull cache."""

    name = "level_band"
    aliases = {"level": ("level_ms_p50", "level_ms_p90")}
    RATE = 12.0
    MATCH_TOL = 1e-6

    def __init__(self, seed, seconds, program):
        super().__init__(seed, seconds, program)
        lo, hi = LEVEL_BAND
        # Each fan's levels are stratified over the band: the j-th query of a
        # fan falls in the slice at the bit-reversed position of j, at a
        # seeded point inside it. The slice order is the same in every run,
        # so every run fills the hull cache alike.
        fans = list(LEVEL_FANS.values())
        n = _target_ops(seconds, self.RATE)
        per_fan = -(-n // len(fans))
        self.queries = []
        for k in range(n):
            slot = math.floor(_radical_inverse(k // len(fans)) * per_fan)
            u = (slot + self.rng.uniform(0.02, 0.98)) / per_fan
            self.queries.append((fans[k % len(fans)], lo + (hi - lo) * u))
        self.census_queries = [(LEVEL_DEFECT_FAN, lo + (hi - lo) * (k + 0.5) / LEVEL_CENSUS)
                               for k in range(LEVEL_CENSUS)]
        # group -> [queries judged, queries whose level matched]
        self.tally = {"timed": [0, 0], "census": [0, 0]}

    def _ops(self, queries, group):
        rc, fg = self.program.region_construction, self.program.fan_geometry
        lo, hi = LEVEL_BAND
        out = []
        for gens, level in queries:
            cx, cy = start_point_exponents(gens)
            fan = fg.Fan(gens)
            pt = fg.LogPoint(level * cx, level * cy)
            out.append(Op("level", f"{gens} level={level:.6f}",
                          (lambda pt=pt, fan=fan: rc.phi_level(pt, fan, lo, hi)),
                          (fan, pt, level, group)))
        return out

    def ops(self):
        return self._ops(self.queries, "timed")

    def census(self):
        return self._ops(self.census_queries, "census")

    def _hull(self, fan, delta):
        rc = self.program.region_construction
        return rc.conv_hull(rc.construct_region(fan, delta, validate=False))

    def judge(self, op, phi):
        """phi must bracket the point: hull(phi + 1e-9) contains it and
        hull(phi - 1e-9) does not strictly contain it."""
        rc = self.program.region_construction
        fan, pt, level, group = op.data
        match = abs(phi - level) <= self.MATCH_TOL
        self.tally[group][0] += 1
        self.tally[group][1] += match
        outer = rc.hull_contains(self._hull(fan, phi + 1e-9), pt)
        inner = rc.hull_contains(self._hull(fan, phi - 1e-9), pt, rel_tol=-1e-9)
        if not outer or inner:
            return "check:bracket", True
        return ("level_match" if match else "level_mismatch"), False

    def extra_metrics(self):
        return {f"{prefix}level_match_ratio": (hits / n if n else 0.0, "ratio", n)
                for prefix, (n, hits) in (("", self.tally["timed"]),
                                          ("census_", self.tally["census"]))}


# -- reach --------------------------------------------------------------


class Reach(Workload):
    """Witnesses, convergence runs and fixed-horizon strategy runs on the
    reach fans at delta = 3, interleaved.

    Witness targets are drawn round-robin over the (fan, r-class) strata,
    each without replacement; a run of 20 s draws each stratum about 43
    times, so every frozen target comes up at least twice. Strategy runs cycle through every (fan, strategy) pair.
    Convergence runs use the two standard-mode fans: on the two-generator
    fans one run takes 1-2.5 s and its step count swings fivefold with the
    start point, which would swamp the other op classes."""

    name = "reach"
    aliases = {"witness": ("witness_ms_p50", "witness_ms_p90"),
               "converge": ("converge_ms_p50",),
               "trajectory": ("trajectory_ms_p50",)}
    # The op classes' latencies sit in separate clusters, so a pooled
    # percentile would fall between them and jump from run to run: the
    # latency metrics are the witnesses', the others show in ops_per_s.
    latency_kinds = ("witness",)
    WITNESS_RATE = 21.6
    TRAJECTORY_RATE = 4.0
    CONVERGE_RATE = 1.5
    CONVERGE_FANS = ("worked", "axis")
    START_BOX = 3.0
    T_END = 5.0
    ARRIVE_TOL = 1e-6
    REL_TOL = 1e-6
    STRATEGIES = ("origin_11", "extreme_left", "extreme_right", "alternating",
                  "random_in_cone")
    RECHECK = 12

    def __init__(self, seed, seconds, program):
        super().__init__(seed, seconds, program)
        cat = load_catalog("reach_targets.json")
        pool = {}
        self.defects = []
        for fan_name, entry in cat["fans"].items():
            for t in entry["targets"]:
                item = (fan_name, t["X"], t["Y"])
                if is_defect(t["seed_outcome"]):
                    self.defects.append(item)
                else:
                    pool.setdefault((fan_name, t["r_class"]), []).append(item)
        rng, box = self.rng, self.START_BOX
        strata = [_without_replacement(rng, items) for items in pool.values()]
        witnesses = [("witness", next(strata[k % len(strata)]))
                     for k in range(_target_ops(seconds, self.WITNESS_RATE))]
        pairs = [(f, st) for st in self.STRATEGIES for f in REACH_FANS]
        trajectories = [("trajectory", (*pairs[k % len(pairs)],
                                        (rng.uniform(-box, box), rng.uniform(-box, box)),
                                        rng.randrange(2 ** 31)))
                        for k in range(_target_ops(seconds, self.TRAJECTORY_RATE))]
        # Convergence starts: one per equal angular sector around (1,1), at a
        # log-distance of box/2 to box, sectors in seeded order.
        n_conv = _target_ops(seconds, self.CONVERGE_RATE)
        sectors = rng.sample(range(n_conv), n_conv)
        converges = []
        for k in range(n_conv):
            angle = 2.0 * math.pi * (sectors[k] + rng.random()) / n_conv
            radius = box * rng.uniform(0.5, 1.0)
            converges.append(("converge", (self.CONVERGE_FANS[k % len(self.CONVERGE_FANS)],
                                           (radius * math.cos(angle), radius * math.sin(angle)))))
        self.plan = _interleave(witnesses, trajectories, converges)
        self.recheck_rng = random.Random(f"recheck:{seed}")

    def setup(self):
        fg, rc, dy = self.program.fan_geometry, self.program.region_construction, self.program.dynamics
        self.fans = {n: fg.Fan(g) for n, g in REACH_FANS.items()}
        self.regions = {n: rc.construct_region(f, REACH_DELTA) for n, f in self.fans.items()}
        self.fields = {n: dy.embedded_system_for_target(f, REACH_DELTA, "origin_11")
                       for n, f in self.fans.items()}

    def _witness(self, item):
        fg, dy = self.program.fan_geometry, self.program.dynamics
        name, X, Y = item
        fan, region = self.fans[name], self.regions[name]
        target = fg.LogPoint(X, Y)
        call = lambda: dy.reach_witness(fg.PosPoint(1.0, 1.0), target, fan,
                                        REACH_DELTA, region, arrive_tol=self.ARRIVE_TOL)
        return Op("witness", f"{name} ({X:.4f},{Y:.4f})", call, (name, target))

    def ops(self):
        fg, dy = self.program.fan_geometry, self.program.dynamics
        out = []
        for kind, spec in self.plan:
            if kind == "witness":
                out.append(self._witness(spec))
            elif kind == "trajectory":
                name, strat_name, (X, Y), strat_seed = spec
                fan = self.fans[name]
                strat = dy.builtin_strategies(fan, REACH_DELTA, seed=strat_seed)[strat_name]
                start = fg.LogPoint(X, Y)
                out.append(Op("trajectory", f"{name} {strat_name}",
                              (lambda s=strat, p=start, f=fan:
                               dy.integrate(s, p, f, REACH_DELTA, t_end=self.T_END)),
                              (name, None)))
            else:
                name, (X, Y) = spec
                fan, field = self.fans[name], self.fields[name]
                start = fg.LogPoint(X, Y)
                target = fg.LogPoint(0.0, 0.0)
                out.append(Op("converge", f"{name} from ({X:.3f},{Y:.3f})",
                              (lambda f=fan, s=field, p=start, t=target:
                               dy.integrate_to_point(s, p, f, REACH_DELTA, t,
                                                     t_end=200.0, rel_tol=self.REL_TOL)),
                              (name, target)))
        return out

    def census(self):
        return [self._witness(item) for item in self.defects]

    def _recheck(self, name, traj) -> bool:
        """Seeded subsample of trajectory points against the inclusive
        brute-force cone."""
        td = self.program.tdi_rhs
        fan = self.fans[name]
        idx = range(len(traj.points))
        picks = self.recheck_rng.sample(idx, min(self.RECHECK, len(idx)))
        for k in picks:
            v = traj.velocities[k]
            rhs = td.rhs_bruteforce(traj.points[k], fan, REACH_DELTA, tol=-1e-9)
            if rhs.violation(v) > 1e-9:
                return False
        return True

    def judge(self, op, traj):
        name, target = op.data
        if traj.worst_violation > 1e-9:
            return "check:violation", True
        end = traj.points[-1]
        if not (math.isfinite(end.X) and math.isfinite(end.Y)):
            return "check:nonfinite", True
        if op.kind == "trajectory":
            return f"trajectory:{traj.termination}", False
        if op.kind == "converge":
            if traj.termination != "stopped":
                return f"check:termination_{traj.termination}", True
            if max(abs(end.X - target.X), abs(end.Y - target.Y)) > self.REL_TOL:
                return "check:converge_distance", True
            return "converged", False
        if max(abs(end.X - target.X), abs(end.Y - target.Y)) > self.ARRIVE_TOL:
            return "check:arrival", True
        if not self._recheck(name, traj):
            return "check:recheck", True
        return "arrived", False


WORKLOADS = {w.name: w for w in (AtlasValidate, LevelBand, Reach)}
