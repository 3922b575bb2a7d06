"""``np``: numpy, loaded at its first attribute read instead of at import.

Metering, labeling and the flow-CSV writer use no arrays, so the commands
made of them (extract, label, universal, synth) never load numpy, about
13 MB of resident memory.  Modules take ``from ._numpy import np``; an
``import numpy`` statement in them would load it at once, because
importing a module already in ``sys.modules`` reads its ``__spec__``.
Nothing may read an attribute of ``np`` at import time.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
