"""``python -m botmeter``: the ``botmeter`` command."""

import sys

from .cli import main

sys.exit(main())
