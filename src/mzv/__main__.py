"""`python -m mzv`: the command-line interface (see `mzv.cli`)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
