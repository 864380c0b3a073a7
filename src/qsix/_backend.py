"""Kernel backend selection.

The compiled extension is preferred when importable; QSIX_BACKEND=python or
QSIX_BACKEND=c forces a choice. Both twins expose the same names, re-exported
here.
"""

from __future__ import annotations

import os

_choice = os.environ.get("QSIX_BACKEND", "auto").lower()

if _choice in ("auto", "c"):
    try:
        from . import _kernels_cy as _impl  # type: ignore[attr-defined]
    except ImportError:
        if _choice == "c":
            raise
        from . import _kernels_py as _impl
elif _choice == "python":
    from . import _kernels_py as _impl
else:
    raise ImportError(f"QSIX_BACKEND must be auto, c, or python, "
                      f"got {_choice!r}")

BACKEND = _impl.BACKEND
OK = _impl.OK
TERMINATED = _impl.TERMINATED
POLE = _impl.POLE
BUDGET = _impl.BUDGET
DIVERGED = _impl.DIVERGED

cpow_int = _impl.cpow_int
qpoch = _impl.qpoch
qpoch_inf = _impl.qpoch_inf
series_side = _impl.series_side


def backend_name() -> str:
    """Which kernel implementation this process selected."""
    return BACKEND
