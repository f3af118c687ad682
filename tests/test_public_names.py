"""The package's public names: every entry of jacksonq.__all__ resolves,
so a star import cannot fail on a stale name, and none is listed twice."""

import jacksonq


def test_every_public_name_resolves_once():
    names = jacksonq.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(jacksonq, n)] == []
