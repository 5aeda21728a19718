"""`python -m hetmpc`: the command-line interface (see `hetmpc.cli`)."""

import sys

from .cli import main

sys.exit(main())
