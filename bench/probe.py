"""Set-up probe: a fresh interpreter imports fbmcqam and builds the link context.

Run by run.py, never by hand. Prints one JSON line: the CLOCK_MONOTONIC time
at which the first unit of work could start, plus the import and context
times measured inside this process. The parent subtracts its own clock
reading taken just before it started this process.
"""

import json
import sys
import time

t_start = time.monotonic()
sys.path.insert(0, sys.argv[1])           # <checkout>/src
sys.path.insert(0, sys.argv[2])           # <checkout>/bench

import fbmcqam.cli  # noqa: E402  (the CLI imports every layer)
from fbmcqam.config import parse_config_text  # noqa: E402
from fbmcqam.simulator import make_context  # noqa: E402

t_import = time.monotonic()

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[3]](sys.argv[4], int(sys.argv[5]))
make_context(parse_config_text(workload.config_text()))
t_ready = time.monotonic()
print(json.dumps({"ready": t_ready, "import_s": t_import - t_start,
                  "context_s": t_ready - t_import}))
