import types

import botmeter


def test_public_names_resolve_once():
    # A stale export would otherwise fail only at ``from botmeter import *``.
    names = botmeter.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(botmeter, n)] == []


def test_bound_public_names_are_the_exports():
    # A name imported here but left out of ``__all__`` is an export gone stale.
    bound = {name for name, value in vars(botmeter).items()
             if not isinstance(value, types.ModuleType)
             and (not name.startswith("_") or name == "__version__")}
    assert bound == set(botmeter.__all__) | {"__version__"}
