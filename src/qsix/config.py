"""Shared tolerance constants.

Everything is IEEE double complex (~16 significant digits); every default
tolerance in the package assumes it.
"""

from __future__ import annotations

#: relative distance at which a denominator factor counts as a pole
POLE_EPS = 1e-12

#: relative distance at which a numerator factor counts as an exact zero
ZERO_EPS = 5e-15

#: a series walk refreshes its running power q^m by exact integer
#: exponentiation every this many steps; the ratio product stays
#: incremental
RECOMPUTE_EVERY = 64
