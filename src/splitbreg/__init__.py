"""Operator-splitting solvers for ``min g(u) + f(L u)``.

Alternating split Bregman and Douglas-Rachford splitting over prox and
resolvent oracles, with runtime verification of their equivalence and
of the convergence properties the theory guarantees, plus TV-denoising
and weighted least-gradient applications with independent test oracles.
"""

from .applications import (LeastGradientInstance, TvInstance, build_least_gradient_problem,
                           build_tv_problem, forward_model, make_least_gradient_instance,
                           make_tv_instance)
from .asb import (AsbState, SplitProblem, asb_iterate, asb_iterate_approx, dual_resolvents,
                  initial_state, run_drs)
from .diagnostics import (Certificate, RunTrace, dual_certificate, duality_gap,
                          equivalence_report, inclusion_defect, primal_recovery_check,
                          summability_report, weak_duality_probe)
from .drs import DrsState, ResolventPair, StoppingRule, drs_iterate, drs_step, fejer_check
from .functionals import (ErrorSchedule, ProxFunctional, dual_resolvent, prox_indicator_point,
                          prox_l1, prox_quadratic, prox_weighted_l21, zero_functional)
from .linops import (GridSpec, LinearMap, check_adjoint, gradient_operator, identity_operator,
                     interior_gradient_operator, matrix_operator)

__version__ = "0.1.0"

__all__ = [
    "AsbState", "Certificate", "DrsState", "ErrorSchedule", "GridSpec",
    "LeastGradientInstance", "LinearMap", "ProxFunctional", "ResolventPair", "RunTrace",
    "SplitProblem", "StoppingRule", "TvInstance",
    "asb_iterate", "asb_iterate_approx",
    "build_least_gradient_problem", "build_tv_problem", "check_adjoint",
    "drs_iterate", "drs_step", "dual_certificate", "dual_resolvent",
    "dual_resolvents", "duality_gap", "equivalence_report", "fejer_check", "forward_model",
    "gradient_operator", "identity_operator",
    "inclusion_defect", "initial_state", "interior_gradient_operator",
    "make_least_gradient_instance", "make_tv_instance", "matrix_operator",
    "prox_indicator_point", "prox_l1", "prox_quadratic", "prox_weighted_l21",
    "primal_recovery_check", "run_drs", "summability_report",
    "weak_duality_probe", "zero_functional",
]
