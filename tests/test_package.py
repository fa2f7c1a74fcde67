import toric_regions


def test_all_exports_resolve():
    missing = [name for name in toric_regions.__all__ if not hasattr(toric_regions, name)]
    assert missing == []
