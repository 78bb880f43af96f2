"""Make ``ladder/`` and the program importable for the unit tests."""

import os
import sys

LADDER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (LADDER_DIR, os.path.join(os.path.dirname(LADDER_DIR), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
