import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_stats_reports_every_module():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py")],
                         capture_output=True, text=True, check=True).stdout
    stats = json.loads(out)
    modules = stats["modules"]
    assert "toric_regions/dynamics.py" in modules
    for key in ("lines", "keyword_options"):
        assert stats["total"][key] == sum(m[key] for m in modules.values())
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert stats["total"]["lines"] == lines


def test_src_stats_counts_parameters_with_defaults(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, *, c=2, d):\n"
        "    def g(e=3):\n"
        "        return lambda h=4: h\n"
        "    return g\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out)["modules"]["mod.py"] == {"lines": 4, "keyword_options": 3}
