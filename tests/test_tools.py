import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import toric_regions

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_stats_reports_every_module():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py")],
                         capture_output=True, text=True, check=True).stdout
    stats = json.loads(out)
    modules = stats["modules"]
    assert "toric_regions/dynamics.py" in modules
    for key in ("lines", "functions", "methods", "keyword_options", "caches"):
        assert stats["total"][key] == sum(m[key] for m in modules.values())
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert stats["total"]["lines"] == lines
    assert stats["total"]["public_names"] == len(toric_regions.__all__)


def test_src_stats_counts_parameters_with_defaults(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    def g(e=3):\n"
        "        return lambda h=4: h\n"
        "    return g\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def k(x):\n"
        "    return x\n"
        "m = functools.lru_cache(maxsize=None)(len)\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out)["modules"]["mod.py"] == {"lines": 9, "functions": 3, "methods": 0,
                                                    "keyword_options": 3, "caches": 2}


def test_src_stats_counts_functions_and_methods(tmp_path):
    # A def directly in a class body is a method; a def nested in a method
    # and a class's lambda are not, and neither is a nested class's
    # method counted twice.
    (tmp_path / "mod.py").write_text(
        "def f():\n"
        "    async def g():\n"
        "        pass\n"
        "    return g\n"
        "class A:\n"
        "    key = lambda self: 0\n"
        "    def m(self):\n"
        "        def helper():\n"
        "            pass\n"
        "        return helper\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n"
        "    class B:\n"
        "        async def n(self):\n"
        "            pass\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    stats = json.loads(out)
    assert stats["modules"]["mod.py"]["functions"] == 3  # f, g and helper
    assert stats["modules"]["mod.py"]["methods"] == 3  # m, p and n
    assert stats["total"]["functions"] == 3 and stats["total"]["methods"] == 3


def test_atlas_outcomes_case_record():
    tool = _load_tool("atlas_outcomes")
    gens = [(-1, 1), (1, 2), (2, 1)]
    ok = tool.case_record(gens, 3.0, "validated", toric_regions)
    region = toric_regions.construct_region(toric_regions.Fan(gens), 3.0)
    assert ok == {"gens": [[-1, 1], [1, 2], [2, 1]], "delta": 3.0, "seed": "validated",
                  "outcome": "validated", "site": None,
                  "checks": {name: [res["passed"], res["worst"], res.get("witness")]
                             for name, res in region.report.items()},
                  "pieces": tool.pieces_digest(region),
                  "samples": tool.samples_digest(region, toric_regions),
                  "contains": tool.contains_digest(region, toric_regions)}
    assert len(ok["pieces"]) == 16 and len(ok["samples"]) == 16 and len(ok["contains"]) == 16
    # A defect-census case: the seed commit leaked a bare ValueError here.
    gens = [(-2, 1), (2, 3), (1, 1), (-1, 1), (-3, 1), (0, 1)]
    rec = tool.case_record(gens, 1.0, "bare:ValueError", toric_regions)
    assert rec["seed"] == "bare:ValueError"
    assert not rec["outcome"].startswith("bare:") and rec["site"] is None
    # A bare exception is named with the function that raised it.
    bad = tool.case_record([(-1, 1), (1, 2), (2, 1)], "3", "validated", toric_regions)
    assert bad["outcome"] == "bare:TypeError" and bad["site"]
    assert bad["checks"] is None and bad["pieces"] is None and bad["samples"] is None
    assert bad["contains"] is None


def test_atlas_outcomes_contains_digest_sees_a_moved_label():
    tool = _load_tool("atlas_outcomes")
    rc = toric_regions.region_construction
    region = toric_regions.construct_region(toric_regions.Fan([(-1, 1), (1, 2), (2, 1)]), 3.0)
    X, Y, band = tool.contains_probes(region, toric_regions)
    samples = len(rc.sample_boundary(region, tool.PROBE_SAMPLES)[0])
    points = toric_regions.intersection_points(region.fan, region.delta)
    assert len(X) == len(Y) == len(band) == (len(points) + 13 + 2 * samples
                                             + tool.PROBE_SAMPLES)
    assert sorted(set(band.tolist())) == [1e-9, 1e-7]
    digest = tool.contains_digest(region, toric_regions)
    labels = [rc.region_contains(region, toric_regions.LogPoint(x, y), b)
              for x, y, b in zip(X.tolist(), Y.tolist(), band.tolist())]
    assert {"inside", "outside", "boundary"} <= set(labels)
    # One label moved changes the digest.
    moved = SimpleNamespace(**vars(rc))
    flipped = "outside" if labels[0] == "inside" else "inside"
    answers = iter([flipped] + labels[1:])
    moved.region_contains = lambda *args: next(answers)
    fake = SimpleNamespace(region_construction=moved, fan_geometry=toric_regions.fan_geometry,
                           errors=toric_regions.errors)
    assert tool.contains_digest(region, fake) != digest


def test_atlas_outcomes_samples_digest_sees_a_moved_sample():
    tool = _load_tool("atlas_outcomes")
    rc = toric_regions.region_construction
    region = toric_regions.construct_region(toric_regions.Fan([(-1, 1), (1, 2), (2, 1)]), 3.0)
    X, Y, index = rc.sample_boundary(region, tool.SAMPLES)
    fake = SimpleNamespace(region_construction=SimpleNamespace(
        sample_boundary=lambda boundary, total: (X, Y, index)))
    assert tool.samples_digest(region, fake) == tool.samples_digest(region, toric_regions)
    # A single sample moved by one ulp changes the digest.
    Y[7] = math.nextafter(Y[7].item(), math.inf)
    assert tool.samples_digest(region, fake) != tool.samples_digest(region, toric_regions)


def test_atlas_outcomes_failed_check_matches_construct_region():
    # Both Nagumo and the cone check fail here; the first one names the case.
    tool = _load_tool("atlas_outcomes")
    gens = [(-3, 1), (2, 3), (2, 1)]
    with pytest.raises(toric_regions.DeltaTooSmall) as exc:
        toric_regions.construct_region(toric_regions.Fan(gens), 0.5)
    rec = tool.case_record(gens, 0.5, None, toric_regions)
    assert rec["outcome"] == f"DeltaTooSmall:{exc.value.check}"
    failed = [name for name, (passed, _, _) in rec["checks"].items() if not passed]
    assert failed == ["nagumo", "cone_containment"]
    rc = toric_regions.region_construction
    report = rc.validate_region(rc.construct_region(toric_regions.Fan(gens), 0.5, validate=False))
    assert report["nagumo"]["witness"] is not None
    assert rec["checks"]["nagumo"] == [False, report["nagumo"]["worst"],
                                       report["nagumo"]["witness"]]


def test_atlas_outcomes_adds_delta_300_without_seed(tmp_path, monkeypatch):
    tool = _load_tool("atlas_outcomes")
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"deltas": [3.0], "fans": [
        {"gens": [[1, 2], [2, 1]], "outcomes": ["validated"]}]}))
    monkeypatch.setattr(tool, "CATALOG", catalog)
    recs = list(tool.records(toric_regions))
    assert [(r["delta"], r["seed"]) for r in recs] == [(3.0, "validated"), (300.0, None)]


def test_level_outcomes_records(monkeypatch):
    tool = _load_tool("level_outcomes")
    workloads = tool._workloads()
    gens = workloads.LEVEL_FANS["worked"]
    rc, fg = toric_regions.region_construction, toric_regions.fan_geometry
    cx, cy = workloads.start_point_exponents(gens)
    hull = rc._hull
    rec = tool.level_record(gens, "fan", 3.5, toric_regions, workloads)
    assert rc._hull is hull
    # The same query, its hull requests counted here.
    requests = []
    monkeypatch.setattr(rc, "_hull", lambda fan, delta: requests.append(delta) or hull(fan, delta))
    phi = rc.phi_level(fg.LogPoint(3.5 * cx, 3.5 * cy), fg.Fan(gens), 3.0, 4.0)
    monkeypatch.undo()
    assert rec == {"gens": [[-1, 1], [1, 2], [2, 1]], "group": "fan", "level": 3.5,
                   "phi": phi.hex(), "probes": len(requests)}
    assert abs(phi - 3.5) <= 1e-6 and len(requests) <= 12
    hull = rc.conv_hull(rc.construct_region(fg.Fan(gens), 3.5, validate=False))
    assert tool.hull_record(gens, 3.5, toric_regions) == {
        "gens": [[-1, 1], [1, 2], [2, 1]], "delta": 3.5, "vertices": len(hull),
        "caps": len(hull.caps), "hull": tool.hull_digest(hull)}
    # The digest covers the caps: the all-negative fan's hull has two, and
    # dropping them changes it.
    hull = rc.conv_hull(rc.construct_region(fg.Fan([(-1, 2), (-2, 1)]), 3.5, validate=False))
    rec = tool.hull_record([(-1, 2), (-2, 1)], 3.5, toric_regions)
    assert (rec["vertices"], rec["caps"]) == (len(hull), 2) and rec["hull"] == tool.hull_digest(hull)
    assert tool.hull_digest(rc.Hull(hull, {})) != rec["hull"]
    # A level outside the band is a documented rejection.
    out = tool.level_record(gens, "fan", 5.0, toric_regions, workloads)
    assert out["phi"] == "OutOfBand" and out["probes"] == 1


def test_reach_outcomes_records():
    tool = _load_tool("reach_outcomes")
    workloads = tool._workloads()
    dy, fg = importlib.import_module("toric_regions.dynamics"), toric_regions.fan_geometry
    fan = fg.Fan(workloads.REACH_FANS["worked"])
    region = toric_regions.construct_region(fan, 3.0)
    traj = dy.reach_witness(fg.PosPoint(1.0, 1.0), fg.LogPoint(1.13011, 0.031832), fan, 3.0,
                            region, arrive_tol=1e-6)
    rec = tool.witness_record("worked", 1.13011, 0.031832, toric_regions, workloads)
    assert rec == {"group": "witness", "fan": "worked", "X": 1.13011, "Y": 0.031832,
                   "outcome": "arrived", "message": None, "worst": traj.worst_violation.hex(),
                   "points": len(traj.points), "digest": tool.trajectory_digest(traj)}
    run = tool.strategy_record("worked", "extreme_left", (-2.0, 1.5), toric_regions, workloads)
    assert run["outcome"] == "t_end" and run["points"] > 100
    # A target outside the region is a documented rejection.
    out = tool.witness_record("worked", 30.0, 30.0, toric_regions, workloads)
    assert out["outcome"] == "WitnessFailed:precondition" and out["digest"] is None
    assert out["message"] == "precondition: both endpoints must lie in the region"
    # The turn at t = 0.37 collapses there, before the wall's overflows.
    assert tool.collapse_record(0.37, True, toric_regions) == {
        "group": "collapse", "t0": 0.37, "wall": True, "outcome": "StepCollapse",
        "message": "velocity violates the cone by 1.000e+00 at t=0.37", "worst": None,
        "points": None, "digest": None}
    # The overflowing selection stops after its full first step and one
    # halved step.
    rec = tool.halving_record("raise", toric_regions)
    assert rec["group"] == "halving" and rec["past"] == "raise"
    assert rec["outcome"] == "stopped" and rec["points"] == 3 and rec["worst"] == "0x0.0p+0"
    # The convergence flow to t = 1 against fixed steps of 1e-4.
    rec = tool.accuracy_record("worked", (2.0, -1.5), False, toric_regions, workloads)
    assert rec["group"] == "accuracy" and rec["rescale"] is False and 100 < rec["steps"] < 1000
    assert float(rec["deviation"]) <= 1e-9 and rec["deviation"] == f"{float(rec['deviation']):.0e}"
    # One anchor record per anchor of the region: the anchor's witness.
    anchors = list(tool.anchor_records("worked", toric_regions, workloads))
    assert [rec["anchor"] for rec in anchors] == list(region.anchors)
    assert {rec["group"] for rec in anchors} == {"anchor"}
    cr = region.anchors["Cr"]
    assert anchors[list(region.anchors).index("Cr")] == {
        **tool.witness_record("worked", cr.X, cr.Y, toric_regions, workloads),
        "group": "anchor", "anchor": "Cr"}
    # Far out in a sector the random strategy's values are proper cones.
    run = tool.strategy_record("all_negative", "random_in_cone", (12.0, -4.0), toric_regions,
                               workloads)
    assert run["outcome"] == "t_end" and run["points"] > 100
    # Inside the one-generator fan's strip the value is a line.
    line = tool.strategy_record("line", "random_in_cone", tool.LINE_START, toric_regions,
                                workloads, t_end=tool.LINE_T_END)
    assert line["fan"] == "line" and line["outcome"] == "t_end" and line["points"] == 101
    # One far_anchor record per anchor of the region at that delta.
    far = list(tool.far_anchor_records("all_positive", 100.0, toric_regions, workloads))
    far_fan = fg.Fan(workloads.REACH_FANS["all_positive"])
    assert [rec["anchor"] for rec in far] == list(toric_regions.construct_region(far_fan, 100.0)
                                                  .anchors)
    assert {(rec["group"], rec["delta"], rec["outcome"]) for rec in far} == {
        ("far_anchor", 100.0, "arrived")}
    # A fan whose region does not build there records the construction's error.
    bad_gens = ((-2, 1), (2, 3), (1, 1))
    with pytest.raises(toric_regions.errors.DeltaTooSmall) as exc:
        toric_regions.construct_region(fg.Fan(bad_gens), 100.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.REACH_FANS, "bad", bad_gens)
        bad = list(tool.far_anchor_records("bad", 100.0, toric_regions, workloads))
    assert bad == [{"group": "far_anchor", "fan": "bad", "delta": 100.0, "anchor": None,
                    "X": None, "Y": None, "outcome": "DeltaTooSmall",
                    "message": str(exc.value), "worst": None, "points": None, "digest": None}]


# Names the benchmark's tracer still wraps that the package no longer
# defines: nothing but the tracer read them, so they were deleted, and the
# tracer lists them as absent until its lists drop them.  The first three
# ran in no workload; _line_x_log's calls are now _line_y_log's; the
# inclusion decides near sectors on the integer arms, and dist_to_cone's
# unit-ray distance is now the tests' oracle (tests/cone_algebra.py).
RETIRED_TRACED = {"tdi_rhs.rhs_classified", "dynamics.mass_action_field",
                  "dynamics.field_stiffness", "region_construction._line_x_log",
                  "fan_geometry.dist_to_cone"}


def test_traced_names_resolve():
    # The benchmark's tracer wraps these names; a deleted or renamed one
    # would silently drop out of its per-layer metrics.  Exactly the retired
    # ones do not resolve, so a name the tracer drops must leave that set,
    # and the tracer skips them and lists their metrics as absent.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for module, attr, _ in tracer.TRACED + tracer.COUNTED:
        owner = importlib.import_module(f"toric_regions.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(f"{module}.{attr}")
    assert missing == RETIRED_TRACED
    assert ("fan_geometry", "Fan.regions", "fan_geometry.Fan.regions") in tracer.TRACED
    retired = [metric for module, attr, metric in tracer.TRACED + tracer.COUNTED
               if f"{module}.{attr}" in RETIRED_TRACED]
    traced = tracer.Tracer()
    traced.install()
    try:
        assert traced.absent == retired
    finally:
        traced.uninstall()


def test_bench_judge_accepts_the_reach_results():
    # The benchmark judges every op's result outside the timed region; a
    # result it cannot read would fail its ops as incorrect outputs.
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # The package modules, gathered as bench/run.py's Program gathers them.
    program = SimpleNamespace(**{name: importlib.import_module(f"toric_regions.{name}") for name in
                                 ("errors", "fan_geometry", "tdi_rhs", "region_construction",
                                  "dynamics")})
    reach = workloads.Reach(1, 1.0, program)
    reach.setup()
    ops = reach.ops()
    outcomes = {}
    for kind in ("witness", "trajectory", "converge"):
        op = next(op for op in ops if op.kind == kind)
        outcome, failed = reach.judge(op, op.call())
        assert not failed, (kind, outcome)
        outcomes[kind] = outcome
    assert outcomes["witness"] == "arrived" and outcomes["converge"] == "converged"
    assert outcomes["trajectory"].startswith("trajectory:")


def test_unrun_lines_enumerates_statements_and_records_hits(tmp_path):
    # A tiny package of its own, traced here: tier-1 is not run inside tier-1.
    tool = _load_tool("unrun_lines")
    src = tmp_path.resolve() / "src"
    (src / "pkg").mkdir(parents=True)
    mod = src / "pkg" / "mod.py"
    mod.write_text('"""Module docstring."""\n'
                   "import functools\n"
                   "\n"
                   "\n"
                   "@functools.lru_cache(maxsize=4)\n"
                   "def f(x):\n"
                   '    """Docstring."""\n'
                   "    if x:\n"
                   "        y = (x +\n"
                   "             1)\n"
                   "        return y\n"
                   "    return 0\n"
                   "\n"
                   "\n"
                   "def g():\n"
                   "    n = 0\n"
                   "\n"
                   "    def inc():\n"
                   "        nonlocal n\n"
                   "        n += 1\n"
                   "    inc()\n"
                   "    return n\n")
    # Docstrings and declarations (nonlocal, which compiles to no code and
    # never fires) are no statements; a def owns its decorators, a compound
    # statement its header, a simple one all its lines.
    assert tool.statements(mod) == {2: range(2, 3), 6: range(5, 7), 8: range(8, 9),
                                    9: range(9, 11), 11: range(11, 12), 12: range(12, 13),
                                    15: range(15, 16), 16: range(16, 17), 18: range(18, 19),
                                    20: range(20, 21), 21: range(21, 22), 22: range(22, 23)}
    spec = importlib.util.spec_from_file_location("pkg_mod", mod)
    module = importlib.util.module_from_spec(spec)
    recorder = tool.LineRecorder(src)
    outer = sys.gettrace()
    recorder.start()
    try:
        spec.loader.exec_module(module)
        assert module.f(1) == 2 and module.g() == 1
    finally:
        recorder.stop()
    assert sys.gettrace() is outer
    assert list(recorder.hits) == [str(mod)]
    assert tool.unrun(src, recorder.hits) == ["src/pkg/mod.py:12: return 0"]
    assert tool.unrun(src, {}) == [f"src/pkg/mod.py:{n}: {line}" for n, line in (
        (2, "import functools"), (6, "def f(x):"), (8, "if x:"), (9, "y = (x +"),
        (11, "return y"), (12, "return 0"), (15, "def g():"), (16, "n = 0"),
        (18, "def inc():"), (20, "n += 1"), (21, "inc()"), (22, "return n"))]


def test_prod_lines_reports_the_defs_none_of_whose_statements_ran(tmp_path):
    # The production path's run is too long for tier-1; its def-level
    # report is checked on a hand-made hit set.
    tool = _load_tool("prod_lines")
    src = tmp_path.resolve() / "src"
    (src / "pkg").mkdir(parents=True)
    mod = src / "pkg" / "mod.py"
    mod.write_text("class C:\n"
                   "    def ran(self):\n"
                   '        """Docstring."""\n'
                   "        return 1\n"
                   "\n"
                   "    def half(self, x):\n"
                   "        if x:\n"
                   "            return 2\n"
                   "        return 3\n"
                   "\n"
                   "    def never(self):\n"
                   "        def inner():\n"
                   "            return 4\n"
                   "        return inner\n"
                   "\n"
                   "\n"
                   "def doc_only():\n"
                   '    """No statements: never listed."""\n'
                   "\n"
                   "\n"
                   "def f():\n"
                   "    return 5\n")
    # Module-level lines ran, on import; of the bodies, ran's and half's.
    hits = {str(mod): {1, 2, 4, 6, 7, 9, 11, 17, 21}}
    assert tool.unrun_defs(src, hits) == ["src/pkg/mod.py:11: def C.never",
                                          "src/pkg/mod.py:12: def C.never.inner",
                                          "src/pkg/mod.py:21: def f"]
    # A def whose own line never ran is listed too; one statement of the
    # body that ran keeps a def off the list.
    assert tool.unrun_defs(src, {}) == [f"src/pkg/mod.py:{n}: def {name}" for n, name in (
        (2, "C.ran"), (6, "C.half"), (11, "C.never"), (12, "C.never.inner"), (21, "f"))]
    assert tool.unrun_defs(src, {str(mod): {8, 13}}) == [
        "src/pkg/mod.py:2: def C.ran", "src/pkg/mod.py:21: def f"]


def test_bench_pairs_compare_applies_the_gain_rule():
    tool = _load_tool("bench_pairs")
    parent = [4.0, 4.2, 4.4, 4.1, 4.3, 4.2, 4.0, 4.4, 4.1, 4.3]
    # Nine of ten pairs won, by more than the parent's quartile spread.
    faster = [p - 0.6 for p in parent[:9]] + [4.5]
    r = tool.compare(parent, faster, "lower", 0.25)
    assert (r["won"], r["pairs"], r["gain"]) == (9, 10, True)
    assert r["parent"]["median"] == pytest.approx(4.2)
    assert r["parent"]["q1"] <= r["parent"]["median"] <= r["parent"]["q3"]
    # Eight pairs won is no gain, and neither is a gap inside the spread.
    assert not tool.compare(parent, faster[:8] + [4.5, 4.5], "lower", 0.25)["gain"]
    assert not tool.compare(parent, [p - 0.01 for p in parent], "lower", 0.25)["gain"]
    # For a higher-is-better metric the larger value wins.
    r = tool.compare(parent, [p + 1.0 for p in parent], "higher", 0.25)
    assert (r["won"], r["gain"]) == (10, True)
    assert tool.compare(parent, [p + 1.0 for p in parent], "lower", 0.25)["won"] == 0


def test_bench_pairs_flags_a_spread_wider_than_the_bound():
    tool = _load_tool("bench_pairs")
    parent = [4.0, 4.2, 4.4, 4.1, 4.3, 4.2, 4.0, 4.4, 4.1, 4.3]
    r = tool.compare(parent, parent, "lower", 0.25)
    spread = r["parent"]["q3"] - r["parent"]["q1"]
    assert spread == pytest.approx(0.25) and not r["unresolved"]
    # The spread is 0.25 / 4.2 ~ 6 % of the median: unresolved under a 5 % bound.
    assert tool.compare(parent, parent, "lower", 0.05)["unresolved"]
    assert not tool.compare(parent, parent, "lower", 0.08)["unresolved"]
    # The rule reads the parent's runs alone, and the magnitude of its median.
    assert tool.compare([-p for p in parent], parent, "higher", 0.05)["unresolved"]
    assert not tool.compare(parent, [1.0, 9.0] * 5, "lower", 0.08)["unresolved"]


def test_bench_pairs_reads_the_per_class_latencies():
    tool = _load_tool("bench_pairs")
    report = "\n".join([
        "workload reach  seed 1  seconds 10.0  trace 0",
        "  outcome arrived                                  216",
        "metrics",
        "  latency_ms_p50                 1.623325 ms     wall 1.42504, n=216",
        "  latency_ms_p90                 2.473464 ms     wall 2.18869, n=216",
        "  witness_ms_p50                 1.623325 ms     n=216",
        "  witness_ms_p90                 2.473464 ms     n=216",
        "  converge_ms_p50               16.144767 ms     n=15",
        "  trajectory_ms_p50             12.944024 ms     n=40",
        "record .bench_runs/reach-seed1-trace0.json"])
    assert tool.class_latencies(report) == {
        "witness_ms_p50": 1.623325, "converge_ms_p50": 16.144767,
        "trajectory_ms_p50": 12.944024}
    assert tool.class_latencies("  validate_ms_p50   3.5 ms     n=9") == {"validate_ms_p50": 3.5}
    assert tool.class_latencies("") == {}


def test_bench_pairs_prints_the_per_class_medians(tmp_path, monkeypatch, capsys):
    tool = _load_tool("bench_pairs")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(root, workload, seed, seconds):
        # The change halves the witness class and leaves the other alone.
        scale = 0.5 if root == tool.ROOT else 1.0
        return ({name: float(seed) for name in names},
                {"witness_ms_p50": seed * scale, "converge_ms_p50": 10.0 + seed})

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main([str(tmp_path), "--workload", "reach", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    at = out.index("per-class medians (outside the gain rule):")
    assert [line.split() for line in out[at + 1:]] == [
        ["converge_ms_p50", "parent", "12", "change", "12"],
        ["witness_ms_p50", "parent", "2", "change", "1"]]


def test_bench_pairs_prints_unresolved_metrics(tmp_path, monkeypatch, capsys):
    tool = _load_tool("bench_pairs")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(root, workload, seed, seconds):
        # The parent's setup_s spreads by about half its median; every
        # other metric, on both sides, by about 2 %.
        wide = root != tool.ROOT
        return ({name: 10.0 + seed * (5.0 if wide and name == "setup_s" else 0.1)
                 for name in names}, {})

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main([str(tmp_path), "--workload", "reach", "--pairs", "4"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ")}
    assert sorted(lines) == sorted(names)
    assert [name for name in names if lines[name].endswith("  unresolved")] == ["setup_s"]


def test_bench_pairs_names_the_workloads():
    tool = _load_tool("bench_pairs")
    declared = ["atlas_validate", "level_band", "reach"]
    assert tool.workloads([], declared) == ["atlas_validate"]
    assert tool.workloads(["all"], declared) == declared
    assert tool.workloads(["reach", "level_band", "reach"], declared) == ["reach", "level_band"]
    assert tool.workloads(["reach", "all"], declared) == ["reach", "atlas_validate", "level_band"]


def test_bench_pairs_runs_every_workload_in_each_pair(tmp_path, monkeypatch, capsys):
    tool = _load_tool("bench_pairs")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    declared = [w["name"] for w in bench["workloads"]]
    calls = []

    def run_once(root, workload, seed, seconds):
        # Each workload reads its own index; the change halves every metric.
        side = "change" if root == tool.ROOT else "parent"
        calls.append((seed, workload, side))
        value = (declared.index(workload) + 1) * (0.5 if side == "change" else 1.0)
        return {name: value for name in names}, {f"{workload}_ms_p50": value}

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main([str(tmp_path), "--workload", "all", "--pairs", "2", "--seconds", "3"]) == 0
    # Pair 1 runs the parent first, pair 2 the change, for every workload.
    assert calls == [(seed, w, side) for seed, sides in ((1, ("parent", "change")),
                                                         (2, ("change", "parent")))
                     for w in declared for side in sides]
    out = capsys.readouterr().out.splitlines()
    heads = [k for k, line in enumerate(out) if not line.startswith("  ")
             and line.endswith("median [q1, q3]:")]
    assert [out[k] for k in heads] == [f"{w}, 2 alternated pairs of 3 s, median [q1, q3]:"
                                       for w in declared]
    for k, w in zip(heads, declared):
        value = declared.index(w) + 1
        block = out[k + 1:k + 1 + len(names)]
        assert [line.split()[:5] for line in block] == [
            [name, "parent", f"{value:.4g}", f"[{value:.4g},", f"{value:.4g}]"] for name in names]
        assert out[k + 1 + len(names):k + 3 + len(names)] == [
            "per-class medians (outside the gain rule):",
            f"  {w + '_ms_p50':18s} parent {value:.4g}  change {value / 2:.4g}"]
    # Two named workloads run those two only, in the order named.
    calls.clear()
    assert tool.main([str(tmp_path), "--workload", "reach", "--workload", "level_band",
                      "--pairs", "1"]) == 0
    assert [w for _, w, _ in calls] == ["reach", "reach", "level_band", "level_band"]
    assert tool.main([str(tmp_path), "--workload", "nope", "--pairs", "1"]) == 2


def test_bench_pairs_records_the_summary(tmp_path, monkeypatch, capsys):
    tool = _load_tool("bench_pairs")
    parent_root = tmp_path / "parent"
    (parent_root / "bench").mkdir(parents=True)
    (parent_root / "bench" / "run.py").write_text("")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    declared = [w["name"] for w in bench["workloads"]]

    def run_once(root, workload, seed, seconds):
        # Canned reports: the change halves every metric and class latency.
        value = seed * (0.5 if root == tool.ROOT else 1.0)
        return {name: value for name in names}, {f"{workload}_ms_p50": value}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "short_sha", lambda: "0123abc")
    assert tool.main([str(parent_root), "--workload", "all", "--pairs", "3", "--seconds", "2",
                      "--record", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_0123abc.json"
    assert capsys.readouterr().out.splitlines()[-1] == f"record {path}"
    rec = json.loads(path.read_text())
    assert sorted(rec) == ["commit", "machine", "seconds", "seeds", "workloads"]
    assert (rec["commit"], rec["seeds"], rec["seconds"]) == ("0123abc", [1, 2, 3], 2.0)
    assert sorted(rec["machine"]) == ["cpu", "nproc", "numpy", "python"]
    assert rec["machine"]["nproc"] >= 1 and rec["machine"]["python"].count(".") == 2
    assert list(rec["workloads"]) == declared
    for w, block in rec["workloads"].items():
        assert list(block["metrics"]) == names
        for r in block["metrics"].values():
            assert r["parent"] == {"median": 2.0, "q1": 1.0, "q3": 3.0}
            assert r["change"] == {"median": 1.0, "q1": 0.5, "q3": 1.5}
            assert sorted(r) == ["change", "gain", "pairs", "parent", "unresolved", "won"]
            assert r["pairs"] == 3
        assert block["classes"] == {f"{w}_ms_p50": {"parent": 2.0, "change": 1.0}}
    # Without --record nothing is written.
    path.unlink()
    assert tool.main([str(parent_root), "--workload", "reach", "--pairs", "1"]) == 0
    assert list(tmp_path.glob("BENCH_*.json")) == []
