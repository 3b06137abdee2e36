"""The package's public surface."""

import chaoscope


def test_every_exported_name_resolves_once():
    names = chaoscope.__all__
    assert sorted(set(names)) == sorted(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(chaoscope, n)] == []
