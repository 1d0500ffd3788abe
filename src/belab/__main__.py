"""`python -m belab`: the belab command line (see belab.cli)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
