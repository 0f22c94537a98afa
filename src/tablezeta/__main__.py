"""``python -m tablezeta``: the command line front end in tablezeta.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
