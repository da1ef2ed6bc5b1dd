"""Load the per-layer tracer into a deployment process at start-up.

The benchmark puts this directory on ``PYTHONPATH`` (together with
``PERFBENCH_TRACE_DIR``) only for its traced runs, so the processes the
program starts itself inherit the tracer too.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import layertrace

    layertrace.activate_from_env()
