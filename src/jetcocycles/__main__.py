"""``python -m jetcocycles``: the command line of ``jetcocycles.cli``."""

import sys

from .cli import main

sys.exit(main())
