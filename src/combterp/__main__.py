"""`python -m combterp`: the command line of `cli.main`."""
import sys

from .cli import main

sys.exit(main())
