"""`python -m momex ...` runs the command-line harness."""

import sys

from .harness import main

sys.exit(main())
