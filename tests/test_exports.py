"""The public names of the package: each export resolves, and once."""

import quiverext


def test_every_exported_name_resolves_once():
    names = quiverext.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(quiverext, n)] == []
    namespace = {}
    exec("from quiverext import *", namespace)  # raises on a stale name
    assert set(names) <= set(namespace)
