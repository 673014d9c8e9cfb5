"""``python -m bkc``: the bkc command line, exiting with its code."""
from bkc.cli import main

raise SystemExit(main())
