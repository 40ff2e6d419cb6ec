"""Entry point for ``python -m ruledcodes``; see ruledcodes.cli."""

import sys

from .cli import main

sys.exit(main())
