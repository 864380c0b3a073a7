"""The kernel binding that qcore, series and identities call through.

Re-exports the scalar kernels of `_kernels_py`, the one kernel
implementation.
"""

from __future__ import annotations

from ._kernels_py import (BUDGET, DIVERGED, OK, POLE, ROW_VALUE, TERMINATED,
                          cpow_int, kn_trace_sc, margin_hit, pow_sc,
                          qpoch_inf, qpoch_inf_row, qpoch_sc, series_side)

__all__ = ["BUDGET", "DIVERGED", "OK", "POLE", "ROW_VALUE", "TERMINATED",
           "backend_name", "cpow_int", "kn_trace_sc", "margin_hit", "pow_sc",
           "qpoch_inf", "qpoch_inf_row", "qpoch_sc", "series_side"]


def backend_name() -> str:
    """Name of the kernel implementation in use: always "python"."""
    return "python"
