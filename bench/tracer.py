"""Span tracer that wraps the program's layer functions from outside.

The tracer replaces module attributes of ``toric_regions`` with timing
wrappers. A function imported into several modules is one object bound
under several names, so every binding of that object in every package
module is replaced, and calls made through any of them are recorded.

Spans live on an in-memory stack. When a span closes, its inclusive time
goes to its name and to its parent's child total, so self time is the
span's duration minus the time covered by its child spans. The first
``SPAN_CAP`` raw spans are kept for the run record; the aggregates cover
every call.
"""

import sys
import time
from contextlib import contextmanager

# Layer functions timed in the traced run: (module, attribute, metric name).
# ``Fan.regions`` is a method and is patched on the class.
TRACED = [
    ("fan_geometry", "r_count", "fan_geometry.r_count"),
    ("fan_geometry", "dist_to_cone", "fan_geometry.dist_to_cone"),
    ("fan_geometry", "Fan.regions", "fan_geometry.Fan.regions"),
    ("tdi_rhs", "rhs_bruteforce", "tdi_rhs.rhs_bruteforce"),
    ("tdi_rhs", "rhs_classified", "tdi_rhs.rhs_classified"),
    ("region_construction", "construct_region", "region_construction.construct_region"),
    ("region_construction", "intersection_points", "region_construction.intersection_points"),
    ("region_construction", "build_polyline", "region_construction.build_polyline"),
    ("region_construction", "_curve_cross_on_line", "region_construction._curve_cross_on_line"),
    ("region_construction", "_close_side", "region_construction._close_side"),
    ("region_construction", "validate_region", "region_construction.validate_region"),
    ("region_construction", "_loop_checks", "validate.loop"),
    ("region_construction", "_suc_check", "validate.suc_in_region"),
    ("region_construction", "sample_boundary", "validate.sample_boundary"),
    ("region_construction", "_r_le_1_check", "validate.r_le_1"),
    ("region_construction", "_slope_chain_check", "validate.slope_chains"),
    ("region_construction", "_nagumo_check", "validate.nagumo"),
    ("region_construction", "_cone_containment_check", "validate.cone_containment"),
    ("region_construction", "_chords_inside_check", "validate.chords_inside"),
    ("region_construction", "_arc_monotonicity_check", "validate.arc_tangent_monotonicity"),
    ("region_construction", "region_contains", "region_construction.region_contains"),
    ("region_construction", "conv_hull", "region_construction.conv_hull"),
    ("region_construction", "hull_contains", "region_construction.hull_contains"),
    ("region_construction", "phi_level", "region_construction.phi_level"),
    ("dynamics", "_rhs_fast", "dynamics._rhs_fast"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "integrate_to_point", "dynamics.integrate_to_point"),
    ("dynamics", "mass_action_field", "dynamics.mass_action_field"),
    ("dynamics", "field_stiffness", "dynamics.field_stiffness"),
    ("dynamics", "reach_witness", "dynamics.reach_witness"),
    ("dynamics", "_validate_leg", "dynamics._validate_leg"),
]

# Functions only counted: they are called so often that a span each would
# dominate the traced run.
COUNTED = [
    ("region_construction", "_line_y_log", "region_construction.crossing_evals"),
    ("region_construction", "_line_x_log", "region_construction.crossing_evals"),
]

SPAN_CAP = 50_000

PACKAGE = "toric_regions"


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects spans and counters while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.installed = False
        self.stats = {name: _Stat() for _, _, name in TRACED}
        self.counts = {name: 0 for _, _, name in COUNTED}
        self.spans = []
        self.op_id = -1
        # Each frame: [name, start, child_total, span index or -1].
        self._stack = []
        self._patches = []
        self.absent = []
        # Raw material of the derived counters.
        self.ambiguous = 0
        self.steps = 0
        self.rhs_in_integrate = 0
        self.integrate_depth = 0
        self.phi_depth = 0
        self.constructions_in_phi = 0
        self.hull_tests_in_phi = 0

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every traced function; a name the program lacks is listed in
        ``absent`` and skipped."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for modname, attr, metric in TRACED:
            self._wrap(mods, modname, attr, metric, self._span_wrapper)
        for modname, attr, metric in COUNTED:
            self._wrap(mods, modname, attr, metric, self._count_wrapper)
        self.installed = True

    def _wrap(self, mods, modname, attr, metric, make):
        home = mods.get(f"{PACKAGE}.{modname}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = home
        if owner is not None and owner_name:
            owner = getattr(home, owner_name, None)
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            self.absent.append(metric)
            return
        wrapper = make(original, metric, fn_name)
        if owner_name:
            self._patch(owner, fn_name, original, wrapper)
            return
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.installed = False

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, metric, fn_name):
        stat = self.stats[metric]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        is_integrate = metric == "dynamics.integrate"
        is_rhs_fast = metric == "dynamics._rhs_fast"
        is_classified = metric == "tdi_rhs.rhs_classified"
        is_phi = metric == "region_construction.phi_level"
        is_construct = metric == "region_construction.construct_region"
        is_hull_test = metric == "region_construction.hull_contains"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            index = -1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append([tracer.op_id, metric, 0.0, 0.0, parent])
            if is_integrate:
                tracer.integrate_depth += 1
            elif is_rhs_fast and tracer.integrate_depth:
                tracer.rhs_in_integrate += 1
            if is_phi:
                tracer.phi_depth += 1
            elif tracer.phi_depth:
                if is_construct:
                    tracer.constructions_in_phi += 1
                elif is_hull_test:
                    tracer.hull_tests_in_phi += 1
            frame = [metric, 0.0, 0.0, index]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_classified and type(exc).__name__ == "AmbiguousClassification":
                    tracer.ambiguous += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if is_phi:
                    tracer.phi_depth -= 1
                elif is_integrate:
                    tracer.integrate_depth -= 1
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if index >= 0:
                    spans[index][2] = start
                    spans[index][3] = end
            if is_integrate:
                tracer.steps += max(0, len(getattr(result, "times", ())) - 1)
            return result

        wrapper.__name__ = fn_name
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, metric, fn_name):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = fn_name
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def paused(self):
        """Run output checks without recording them."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls, inclusive ms and self ms per function,
        plus the derived counters. Absent functions report 0 calls."""
        out = {}
        for _, _, name in TRACED:
            st = self.stats[name]
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.ms"] = (st.total * 1e3, "ms")
            out[f"{name}.self_ms"] = (st.self_time * 1e3, "ms")
        classified = self.stats["tdi_rhs.rhs_classified"].calls
        out["tdi_rhs.ambiguous_ratio"] = (
            self.ambiguous / classified if classified else 0.0, "ratio")
        out["dynamics.steps"] = (self.steps, "count")
        out["dynamics.rhs_evals_per_step"] = (
            self.rhs_in_integrate / self.steps if self.steps else 0.0, "count")
        out["region_construction.crossing_evals"] = (
            self.counts["region_construction.crossing_evals"], "count")
        out["level.hull_cache_hit_ratio"] = (
            1.0 - self.constructions_in_phi / self.hull_tests_in_phi
            if self.hull_tests_in_phi else 0.0, "ratio")
        return out

