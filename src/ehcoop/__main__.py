"""`python -m ehcoop`: the same entry point as the `ehcoop` console script."""

import sys

from .cli import main

sys.exit(main())
