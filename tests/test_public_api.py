import phaseshift


def test_every_exported_name_resolves():
    assert [n for n in phaseshift.__all__ if not hasattr(phaseshift, n)] == []
    namespace = {}
    exec("from phaseshift import *", namespace)
    assert set(phaseshift.__all__) <= set(namespace)
