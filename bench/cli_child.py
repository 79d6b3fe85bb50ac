"""Run the ``duelbias`` command in a fresh interpreter and record set-up time.

Usage: python3 cli_child.py SETUP_FILE [duelbias arguments...]

Does what the ``duelbias`` console script does (``sys.exit(main())``) and,
once ``duelbias.cli`` is imported, writes the seconds since the parent's
spawn to SETUP_FILE. The parent passes its ``time.monotonic()`` at spawn in
BENCH_SPAWN_MONOTONIC; the monotonic clock is shared by all processes on
Linux. Without arguments after SETUP_FILE it only imports and exits, which
samples set-up time alone.
"""

import os
import sys
import time

import duelbias.cli

setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN_MONOTONIC"])
with open(sys.argv[1], "w", encoding="utf-8") as f:
    f.write(repr(setup_s))

if len(sys.argv) > 2:
    sys.exit(duelbias.cli.main(sys.argv[2:]))
