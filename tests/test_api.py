import botmeter


def test_public_names_resolve_once():
    # A stale export would otherwise fail only at ``from botmeter import *``.
    names = botmeter.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(botmeter, n)] == []
