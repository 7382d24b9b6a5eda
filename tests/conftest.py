"""Helpers shared by the test modules."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="session")
def omega1_points():
    """2,005 seeded ``(z, p, member, clear)``, most with ``p`` log-uniform on [1e-300, 0.99].

    A third each: ``z`` near the Omega1 circle, at relative gaps 1e-12 to 1 on
    either side; near the origin, ``Re z`` in [-2, 10] and ``Im z`` log-uniform
    in [1e-6, 100]; in the far field, ``|z|`` from 1 to 1e300. Then four points
    next to the largest double, where ``|z + c| + r`` overflows. ``member`` is
    the exact membership in Omega1, in rationals: ``Im z > 0`` and
    ``(x + p)(x + 1/p) + y^2 > 0``. ``clear`` says that ``z`` lies more than
    1e-6 outside the circle and above the real axis.
    """
    rng = np.random.default_rng(20261022)
    drawn = []
    for i in range(2001):
        p = math.exp(rng.uniform(math.log(1e-300), math.log(0.99)))
        if i % 3 == 0:
            c, r = (1 + p * p) / (2 * p), (1 - p * p) / (2 * p)
            gap = 10 ** rng.uniform(-12, 0) * rng.choice((-1.0, 1.0))
            z = -c + cmath.rect(r * (1 + gap), rng.uniform(0, math.pi))
        elif i % 3 == 1:
            z = complex(rng.uniform(-2, 10), 10 ** rng.uniform(-6, 2))
        else:
            z = cmath.rect(10 ** rng.uniform(0, 300), rng.uniform(0, math.pi))
        drawn.append((z, p))
    drawn += [(1e308 + 1j, 1e-308), (1.7e308 + 1j, 5.56268464626801e-309),
              (-1.7e308 + 1j, 1e-308), (-1.7e308 + 1j, 5.56268464626801e-309)]
    points = []
    for z, p in drawn:
        x, y, q = Fraction(z.real), Fraction(z.imag), Fraction(p)
        member = y > 0 and (x + q) * (x + 1 / q) + y * y > 0  # |z + c|^2 - r^2 > 0
        c, r = (1 + q * q) / (2 * q), (1 - q * q) / (2 * q)
        clear = y > 1e-6 and (x + c) ** 2 + y * y > (r + Fraction(1, 10**6)) ** 2
        points.append((z, p, member, clear))
    return points
