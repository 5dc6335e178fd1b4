"""Which fast tests pass under other BLAS kernels and numpy dispatch levels.

The golden hashes and a few bit-exact tests hold only under the OpenBLAS
kernel and numpy dispatch level they were recorded with (README,
Reproducibility). This study runs `pytest -m "not slow"` once per setting
below, each in a child process with that one variable set for the child
only, and writes studies/hosts.json: per setting, the numeric environment
the child reported, its pass and fail counts and the ids of the failing
tests. It changes no machine setting, and it is not a gate: pytest does not
collect it, and no test reads the table.

    python studies/hosts.py

Each run of the fast suite takes a minute or two, so the whole study takes
several minutes.
"""

import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "studies", "hosts.json")

# (name, variables set for the child only). OpenBLAS reads its core type
# and numpy its disabled CPU features once, at import, in the child.
SETTINGS = (
    ("default", {}),
    ("openblas-haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("openblas-zen", {"OPENBLAS_CORETYPE": "Zen"}),
    ("openblas-sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
    ("numpy-avx2", {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}),
)

# The lines tests/conftest.py prints at the start of a -q run.
_ENVIRONMENT_PREFIXES = ("numpy ", "openblas core:", "numpy cpu dispatch:")


def _test_id(case) -> str:
    """pytest's node id from a junit testcase: tests.test_x -> tests/test_x.py."""
    path = case.get("classname", "").replace(".", "/") + ".py"
    return "%s::%s" % (path, case.get("name"))


def run_setting(variables: dict) -> dict:
    env = dict(os.environ, **variables)
    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "junit.xml")
        argv = [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-p", "no:cacheprovider", "--junitxml", report]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        cases = ET.parse(report).getroot().iter("testcase")
        passed, failed = 0, []
        for case in cases:
            if case.find("failure") is not None or case.find("error") is not None:
                failed.append(_test_id(case))
            elif case.find("skipped") is None:
                passed += 1
    environment = [line for line in done.stdout.splitlines() if line.startswith(_ENVIRONMENT_PREFIXES)]
    return {
        "variables": variables,
        "environment": environment,
        "exit_code": done.returncode,
        "passed": passed,
        "failed": len(failed),
        "failing_tests": sorted(failed),
    }


def main() -> int:
    table = {}
    for name, variables in SETTINGS:
        table[name] = run_setting(variables)
        print("%-22s passed %4d  failed %3d" % (name, table[name]["passed"], table[name]["failed"]), flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
