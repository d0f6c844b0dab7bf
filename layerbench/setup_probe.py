"""One CLI start-up: import ``homnambu.cli`` and load algebra files.

Usage: ``python3 setup_probe.py SRC_DIR ALGEBRA_FILE...``.  The caller
times this whole process, from a fresh interpreter to exit; that is the
fixed cost every ``homnambu`` command pays before its real work.
"""

import sys

sys.path.insert(0, sys.argv[1])

import homnambu.cli  # noqa: E402
from homnambu import formats  # noqa: E402

for path in sys.argv[2:]:
    formats.load_algebra(path)
