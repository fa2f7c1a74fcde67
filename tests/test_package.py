import importlib
from pathlib import Path

import pytest

import toric_regions

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_all_exports_resolve():
    missing = [name for name in toric_regions.__all__ if not hasattr(toric_regions, name)]
    assert missing == []


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
