"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polebounds

#: numpy's dispatch targets above its x86-64-v2 baseline. With them masked,
#: numpy runs the kernels of a CPU without AVX2 and FMA.
MASKED_CPU_FEATURES = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@pytest.fixture
def run_masked():
    """Run a snippet in a fresh interpreter with ``MASKED_CPU_FEATURES`` disabled.

    The fixture is a function of the snippet and its standard input that
    returns the child's standard output; the package is importable there.
    numpy reads the mask when it is imported, and refuses it with an
    ``ImportWarning`` (an error in the child) when it does not dispatch a
    named feature, or a ``RuntimeError`` when the feature is part of its
    baseline. Then the test skips with numpy's reason. Any other failure of
    the child fails the test.
    """
    src = str(Path(polebounds.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=MASKED_CPU_FEATURES)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(code: str, stdin: str = "") -> str:
        proc = subprocess.run(
            [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy\n" + code],
            input=stdin, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            reason = " ".join(proc.stderr.split("NPY_DISABLE_CPU_FEATURES':")[-1].split())
            pytest.skip(f"numpy refuses to mask {MASKED_CPU_FEATURES} on this CPU: {reason}")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
