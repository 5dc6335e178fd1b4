"""Name the numeric environment at the top of every test run.

The golden hashes hold only under the BLAS kernel and numpy dispatch level
they were recorded with (README, Reproducibility). numpy's build config names
the kernel it was built for, not the one OpenBLAS picked on this CPU, so the
header asks the loaded library itself. Nothing here imports jgekd, draws a
random number or skips a test.
"""

import ctypes
import glob
import os

import numpy as np


def _openblas_lines():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None

    def query(name, restype):
        fn = getattr(lib, name, None)
        if fn is None:
            return "unknown"
        fn.restype = restype
        value = fn()
        return value.decode() if isinstance(value, bytes) else value

    return [
        "openblas core: %s, threads: %s" % (
            query("scipy_openblas_get_corename64_", ctypes.c_char_p),
            query("scipy_openblas_get_num_threads64_", ctypes.c_int),
        ),
        "openblas config: %s" % query("scipy_openblas_get_config64_", ctypes.c_char_p),
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
