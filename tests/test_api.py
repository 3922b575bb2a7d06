import dataclasses
import re
import types
from pathlib import Path

import botmeter
from botmeter import classifiers


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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_model_format_matches_the_code():
    # The README is the model file's only specification outside the code.
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"format version (\d+)", text) == [
        str(classifiers.MODEL_FORMAT_VERSION)]
    table = text.split("A random forest's\n`state` is one node table", 1)[1]
    listed = re.findall(r"^- `(\w+)`:", table.split("\n\n", 2)[1], re.MULTILINE)
    assert listed == [f.name for f in dataclasses.fields(classifiers.RFModel)[1:]]
