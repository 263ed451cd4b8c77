"""``python -m tauvi``: the command-line front end of :mod:`tauvi.cli`."""

import sys

from .cli import main

sys.exit(main())
