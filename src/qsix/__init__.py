"""Numerical engine for very-well-poised basic hypergeometric series.

Certified q-products, unilateral and bilateral series evaluation, and
residual checks for the boundary-term recurrence chain that collapses a
truncated very-well-poised bilateral sum onto its closed product form.
"""

import importlib

__version__ = "0.1.0"

#: defining module of each public name. A name is imported on its first
#: access (PEP 562), so `import qsix.cli` loads only the layers it runs.
_HOMES = {
    "_backend": ("backend_name",),
    "config": ("POLE_EPS", "RECOMPUTE_EVERY", "ZERO_EPS"),
    "errors": ("BudgetExceeded", "DomainError", "IllConditioned",
               "NonConvergence", "PoleError", "QSixError", "Unsatisfiable"),
    "identities": (
        "AbelInput", "DEFAULT_ATOL", "DEFAULT_RTOL", "KNDecayReport",
        "ResidualReport", "check_abel", "check_bailey", "check_KN_decay",
        "check_Q_constancy", "check_recurrence", "check_remark1_equivalence",
        "check_rogers", "check_T_iteration", "check_T_recursion",
        "check_U_difference", "check_V_difference", "check_weierstrass",
        "compute_KN", "compute_KN_printed", "compute_U", "compute_V",
        "kn_limit", "kn_trace", "map_remark1"),
    "qcore": ("DEFAULT_POLICY", "EvalResult", "QContext", "TruncationPolicy",
              "nabla", "qpochhammer", "qpochhammer_inf",
              "qpochhammer_inf_multi", "qpochhammer_multi", "theta",
              "theta_multi"),
    "report": ("SweepReport", "build_sweep_report", "render_sweep"),
    "sampler": ("DEFAULT_CAPS", "SampleConstraints", "sample", "violations"),
    "series": ("BaileyParams", "SeriesSpec", "TParams", "TruncParams",
               "F_function", "bailey_closed_a", "bailey_closed_X", "eval_T",
               "eval_phi", "eval_psi", "q_factor", "rogers_closed",
               "truncated_S", "vwp_psi6"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)
#: submodules that resolve as attributes before they are imported
_SUBMODULES = (*_HOMES, "_kernels_py")


def __getattr__(name):
    if name in _HOME:
        module = importlib.import_module(f".{_HOME[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
