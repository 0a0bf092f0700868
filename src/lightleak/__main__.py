"""``python -m lightleak``: the command-line interface, as the ``lightleak`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
