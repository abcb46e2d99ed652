import secregion


def test_exports_resolve_and_are_unique():
    names = secregion.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(secregion, n)]
    assert not missing, f"exported but undefined: {missing}"
