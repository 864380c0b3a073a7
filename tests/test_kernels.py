"""Tests of the kernel layer that run on either backend.

The walk statistics of `series_side` (largest |term|, smallest
|1 + partial sum|) are checked against plain term-by-term sums, and the
two kernel twins are checked to define the same public functions, so a
function added to one of them cannot go missing from the other even on
hosts where the compiled twin is not built.
"""

import inspect
import pathlib
import re

import pytest
from test_series import psi_term_oracle

from qsix import _backend as K
from qsix import _kernels_py as kpy

PYX = pathlib.Path(kpy.__file__).with_name("_kernels_cy.pyx")


def term(num, den, q, z, vwp_a, n):
    t = psi_term_oracle(num, den, q, z, n)
    if vwp_a is not None:
        t *= (1.0 - vwp_a * q ** (2 * n)) / (1.0 - vwp_a)
    return t


def plain_stats(num, den, q, z, direction, vwp_a, used):
    """(peak, low) of the first `used` terms summed one by one."""
    peak, low, partial = 0.0, 1.0, 0j
    for step in range(1, used + 1):
        t = term(num, den, q, z, vwp_a, direction * step)
        partial += t
        peak = max(peak, abs(t))
        low = min(low, abs(1.0 + partial))
    return peak, low


# (num, den, q, z, vwp_a or None)
WALKS = [
    ((1.3 + 0.2j, -1.1j), (0.4 - 0.1j, 0.5 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
     None),
    ((2.0 + 0.3j, -1.8j), (0.3 - 0.1j, 0.4 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
     0.5 + 0.2j),
    # a large first term of opposite sign: 1 + partial dips to about 0.5
    ((2.5 + 0j, -3.1 + 0.4j), (0.2 + 0j, 0.15 - 0.1j), 0.5 + 0j,
     0.2 + 0j, None),
]


@pytest.mark.parametrize("fixed", [-1, 0, 1, 12])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("walk", WALKS)
def test_series_side_walk_stats_match_plain_sum(walk, direction, fixed):
    num, den, q, z, vwp_a = walk
    out = K.series_side(num, den, q, z, direction,
                        0j if vwp_a is None else vwp_a, vwp_a is not None,
                        fixed, 1e-15, 10000, 3, 1e-12, 5e-15, 64)
    assert len(out) == 9
    acc, used, status, peak, low = out[0], out[2], out[3], out[7], out[8]
    assert status == K.OK
    if fixed >= 0:
        assert used == fixed
    want_peak, want_low = plain_stats(num, den, q, z, direction, vwp_a,
                                      used)
    assert peak == pytest.approx(want_peak, rel=1e-12, abs=0.0)
    assert low == pytest.approx(want_low, rel=1e-12, abs=0.0)
    assert low <= 1.0 and low <= abs(1.0 + acc)
    if fixed == 0:
        assert (peak, low) == (0.0, 1.0)


def test_series_side_stats_ride_along_on_termination():
    # (1 - 2 q) = 0 at the second upward step: one term, then terminated
    num, den, q, z = (2.0 + 0j, 0.25 + 0j), (0.23 + 0j, 0.17 + 0j), 0.5, 0.4
    out = K.series_side(num, den, q, z, 1, 0j, False, -1,
                        1e-15, 10000, 3, 1e-12, 5e-15, 64)
    assert out[3] == K.TERMINATED
    assert out[2] == 1
    t1 = term(num, den, q, z, None, 1)
    assert out[7] == pytest.approx(abs(t1), rel=1e-14)
    assert out[8] == pytest.approx(min(1.0, abs(1.0 + t1)), rel=1e-14)


def _public_functions(mod):
    return {name for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == mod.__name__}


def test_kernel_twins_define_the_same_functions():
    compiled = set(re.findall(r"^def ([A-Za-z]\w*)\(", PYX.read_text(),
                              re.MULTILINE))
    assert compiled == _public_functions(kpy)
