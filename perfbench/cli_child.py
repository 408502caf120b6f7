"""Run one convneg CLI command in a fresh process, timing its start-up stages.

Usage: python perfbench/cli_child.py <convneg arguments>

The command's stdout passes through unchanged. The last line on stderr is
``PERFBENCH_SPANS <json>``: ``[name, start, end]`` spans on the
``perf_counter`` clock for the numpy import, the package import and the
in-process ``convneg.cli.run(argv)`` call.
"""

from time import perf_counter

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import convneg.cli  # noqa: E402

t2 = perf_counter()
import sys  # noqa: E402

rc = convneg.cli.run(sys.argv[1:])
sys.stdout.flush()
t3 = perf_counter()

import json  # noqa: E402

spans = [["cli.numpy_import", t0, t1], ["cli.import", t1, t2], ["cli.run", t2, t3]]
print("PERFBENCH_SPANS " + json.dumps(spans), file=sys.stderr)
sys.exit(rc)
