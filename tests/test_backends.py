"""Cross-backend parity.

The compiled and pure-Python kernels promise bit-identical results: every
comparison here is exact equality, including tail estimates, step counts,
and status codes.
"""

import os
import subprocess
import sys

import pytest

from qsix import _kernels_py as kpy

kcy = pytest.importorskip("qsix._kernels_cy")


def eq(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
    return a == b or (a != a and b != b)


@pytest.mark.parametrize("base, n", [
    (0.5 + 0j, 7), (0.5 + 0j, -9), (0.3 - 0.8j, 23), (0.3 - 0.8j, -23),
    (1.7 + 0.2j, 0), (2.0 + 0j, 62), (-0.4 + 1.1j, -55),
])
def test_cpow_parity(base, n):
    assert eq(kpy.cpow_int(base, n), kcy.cpow_int(base, n))


@pytest.mark.parametrize("a, n", [
    (0.3 + 0.1j, 6), (0.3 + 0.1j, -6), (1.4 - 0.7j, 11), (1.4 - 0.7j, -11),
    (0.0 + 0j, 5), (2.0 + 0j, 4), (4.0 + 0j, -3),
])
def test_qpoch_parity(a, n):
    q = 0.45 + 0.15j
    assert eq(kpy.qpoch(a, q, n, 1e-12), kcy.qpoch(a, q, n, 1e-12))


@pytest.mark.parametrize("a", [0.3 + 0.1j, -1.4 + 0.7j, 0.0 + 0j, 2.5 + 0j])
def test_qpoch_inf_parity(a):
    q = 0.6 - 0.2j
    assert eq(kpy.qpoch_inf(a, q, 1e-15, 10000, 6, 5e-15),
              kcy.qpoch_inf(a, q, 1e-15, 10000, 6, 5e-15))


SIDE_CASES = [
    # (num, den, q, z, direction, vwp_a, use_vwp, fixed)
    (((0.3 + 0j,), (0.7 + 0j,)), 0.5 + 0j, 0.4 + 0j, 1, 0j, False, -1),
    (((0.3 + 0.1j, 0.9j), (0.7 - 0.2j, 1.3 + 0j)),
     0.45 + 0.1j, 0.6 - 0.3j, -1, 0.5 + 0.2j, True, -1),
    (((), ()), 0.5 + 0j, 0.3 + 0j, 1, 0j, False, -1),
    # terminating numerator: (1 - 2 q) = 0 at the first upward step
    (((2.0 + 0j, 3.0 + 0j), (0.23 + 0j, 0.17 + 0j)),
     0.5 + 0j, 0.4 + 0j, 1, 0j, False, -1),
    # genuinely divergent downward walk: statuses must agree too
    (((0.3 + 0j,), (0.7 + 0j,)), 0.5 + 0j, 0.4 + 0j, -1, 0j, False, -1),
    # fixed-term mode
    (((0.3 + 0j,), (0.7 + 0j,)), 0.5 + 0j, 0.4 + 0j, 1, 0j, False, 25),
]


@pytest.mark.parametrize("case", SIDE_CASES)
def test_series_side_parity(case):
    (num, den), q, z, d, a, vwp, fixed = case
    args = (num, den, q, z, d, a, vwp, fixed, 1e-15, 10000, 6,
            1e-12, 5e-15, 64)
    assert eq(kpy.series_side(*args), kcy.series_side(*args))


def test_series_side_parity_long_downward_walk():
    # several hundred steps: exercises the interleaved product and the
    # multiplicative prefactor tracking far past where naive per-step
    # products leave double range
    q, X, B, C, D, E = 0.5, 1.2, 0.3, 0.1102, 0.35, 0.45
    num = tuple(map(complex, (B*C*D*E*X*q, B*X*q, D*X*q, E*X*q)))
    den = tuple(map(complex, (X, C*D*E*X, B*C*E*X, B*C*D*X)))
    args = (num, den, complex(q), complex(C / q ** 3), -1,
            complex(B*C*D*E*X*X), True, -1, 1e-15, 10000, 6,
            1e-12, 5e-15, 64)
    rp = kpy.series_side(*args)
    rc = kcy.series_side(*args)
    assert rp[3] == kpy.OK
    assert rp[2] > 250
    assert eq(rp, rc)


def _backend_in_env(value):
    env = dict(os.environ)
    if value is None:
        env.pop("QSIX_BACKEND", None)
    else:
        env["QSIX_BACKEND"] = value
    return subprocess.run(
        [sys.executable, "-c", "import qsix; print(qsix.backend_name())"],
        capture_output=True, text=True, env=env)


@pytest.mark.parametrize("value, expect", [
    (None, "c"), ("auto", "c"), ("c", "c"), ("python", "python")])
def test_backend_env_selection(value, expect):
    r = _backend_in_env(value)
    assert r.returncode == 0
    assert r.stdout.strip() == expect


def test_backend_env_rejects_unknown():
    r = _backend_in_env("fortran")
    assert r.returncode != 0
    assert "QSIX_BACKEND" in r.stderr
