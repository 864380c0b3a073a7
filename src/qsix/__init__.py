"""Numerical engine for very-well-poised basic hypergeometric series.

Certified q-products, unilateral and bilateral series evaluation, and
residual checks for the boundary-term recurrence chain that collapses a
truncated very-well-poised bilateral sum onto its closed product form.
"""

from ._backend import backend_name
from .config import POLE_EPS, RECOMPUTE_EVERY, STAGNATION_WINDOW, ZERO_EPS
from .errors import (BudgetExceeded, DomainError, IllConditioned,
                     NonConvergence, PoleError, QSixError, Unsatisfiable)
from .identities import (AbelInput, DEFAULT_ATOL, DEFAULT_RTOL, KNDecayReport,
                         ResidualReport, check_abel, check_bailey,
                         check_KN_decay, check_Q_constancy, check_recurrence,
                         check_remark1_equivalence, check_rogers,
                         check_T_iteration, check_T_recursion,
                         check_U_difference, check_V_difference,
                         check_weierstrass, compute_KN, compute_KN_printed,
                         compute_U, compute_V, kn_limit, kn_trace,
                         map_remark1)
from .qcore import (DEFAULT_POLICY, EvalResult, QContext, TruncationPolicy,
                    nabla, qpochhammer, qpochhammer_inf,
                    qpochhammer_inf_multi, qpochhammer_multi, theta,
                    theta_multi)
from .report import SweepReport, build_sweep_report, render_sweep
from .sampler import DEFAULT_CAPS, SampleConstraints, sample, violations
from .series import (BaileyParams, SeriesSpec, TParams, TruncParams,
                     F_function, bailey_closed_a, bailey_closed_X, eval_T,
                     eval_phi, eval_psi, q_factor, rogers_closed,
                     truncated_S, vwp_psi6)

__version__ = "0.1.0"

__all__ = [
    "AbelInput", "BaileyParams", "BudgetExceeded", "DEFAULT_ATOL",
    "DEFAULT_CAPS", "DEFAULT_POLICY", "DEFAULT_RTOL", "DomainError",
    "EvalResult", "F_function", "IllConditioned", "KNDecayReport",
    "NonConvergence", "POLE_EPS", "PoleError", "QContext", "QSixError",
    "RECOMPUTE_EVERY", "ResidualReport", "STAGNATION_WINDOW",
    "SampleConstraints", "SeriesSpec", "SweepReport", "TParams",
    "TruncParams",
    "TruncationPolicy", "Unsatisfiable", "ZERO_EPS", "backend_name", "bailey_closed_X", "bailey_closed_a",
    "build_sweep_report", "check_KN_decay", "check_Q_constancy",
    "check_abel", "check_bailey", "check_recurrence",
    "check_remark1_equivalence", "check_rogers", "check_T_iteration",
    "check_T_recursion", "check_U_difference", "check_V_difference",
    "check_weierstrass", "compute_KN", "compute_KN_printed", "compute_U",
    "compute_V", "eval_T", "eval_phi", "eval_psi", "kn_limit", "kn_trace",
    "map_remark1", "nabla", "q_factor", "qpochhammer", "qpochhammer_inf",
    "qpochhammer_inf_multi", "qpochhammer_multi", "render_sweep",
    "rogers_closed", "sample", "theta", "theta_multi", "truncated_S",
    "violations", "vwp_psi6",
]
