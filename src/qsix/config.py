"""Shared tolerance constants.

Everything is IEEE double complex (~16 significant digits); every default
tolerance in the package assumes it.
"""

from __future__ import annotations

#: relative distance at which a denominator factor counts as a pole
POLE_EPS = 1e-12

#: relative distance at which a numerator factor counts as an exact zero
ZERO_EPS = 5e-15

#: incremental series evaluation refreshes the running term this often
RECOMPUTE_EVERY = 64

#: consecutive satisfying terms before a walk's tail counts as converged
STAGNATION_WINDOW = 3
