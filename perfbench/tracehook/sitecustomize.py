"""Start-up code for the Python processes of a traced benchmark run.

``run.py`` puts this directory first on PYTHONPATH only when it starts Ray
for the traced half of a ``--trace 1`` run, so every Ray worker imports
this file at start-up and installs the span wrappers of
``perfbench/trace.py``.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    from perfbench.trace import install_worker

    install_worker()
