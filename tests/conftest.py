"""Name the numeric environment at the top of every test run.

The golden hashes hold only under the BLAS kernel and numpy dispatch level
they were recorded with (README, Reproducibility). numpy's build config names
the kernel it was built for, not the one OpenBLAS picked on this CPU, so the
header asks the loaded library itself, through the package's one OpenBLAS
lookup (`jgekd.numerics.openblas_info`). Nothing here draws a random number
or skips a test.
"""

import numpy as np

from jgekd.numerics import openblas_info


def _openblas_lines():
    info = openblas_info()
    return [
        "openblas core: %s, threads: %s" % (info["core"], info["threads"]),
        "openblas config: %s" % info["config"],
    ]


def _dispatch_line():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "numpy cpu dispatch: unknown"
    active = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return "numpy cpu dispatch: %s" % (" ".join(active) or "none")


def _numeric_environment():
    return ["numpy %s" % np.__version__] + _openblas_lines() + [_dispatch_line()]


def pytest_report_header(config):
    return _numeric_environment()


def pytest_sessionstart(session):
    # pytest prints no report header under -q, the tier-1 setting; write the
    # same lines at the start instead.
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and session.config.get_verbosity() < 0:
        for line in _numeric_environment():
            reporter.write_line(line)
