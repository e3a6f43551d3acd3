"""Rate regions, coset codes and operator checks for three-user
classical-quantum interference channels."""

__version__ = "0.1.0"

from .channels import (Capacities, ChannelSpec, CostVector, build_ex1,
                       build_ex2, build_ex3, classical_equivalent,
                       condition_eq1, coset_sufficiency_threshold,
                       example_capacities, gamma_state,
                       interference_free_family, or_recovery_check,
                       sigma_state, user_capacity_cost)
from .config import (DEFAULT_TOL, Tolerances, active_tolerances,
                     tolerance_scope)
from .gfcoset import (CodePair, NestedCosetCode, enumerate_coset,
                      random_code_pair, random_nested_code, sum_code)
from .linalg import (eig_hermitian, eigvals_hermitian, operator_norm,
                     partial_trace, tensor, trace_norm)
from .lp import feasible_point
from .mcsim import (SimConfig, SimResult, likelihood_encode, run_ex1_sim,
                    selection_probabilities, soft_covering_tv,
                    wilson_interval)
from .regions import (InequalityRecord, RateAllocation, RegionReport,
                      ScanResult, Thm1Config, Thm2Config, Thm3Config,
                      UnstructuredConfig, boundary_slice, max_r1_scan,
                      thm1_check, thm2_config_from_thm1, thm2_feasible,
                      thm3_config_from_unstructured, thm3_feasible,
                      unstructured_3to1_check)
from .states import (CqState, DensityOperator, EntropyQuery, Pmf,
                     binary_convolve, binary_entropy, conditional_mutual_info,
                     entropy, fact1_f, von_neumann_entropies,
                     von_neumann_entropy)
from .tiltlab import (TiltSpace, TiltedState, closeness, closeness_chain,
                      embed_vector, four_user_omega,
                      four_user_smoothing_report, four_user_tilt_report,
                      hayashi_nagaoka_check, printed_omega,
                      smoothing_residual, tilt_state, tilt_vector, tiny_srm)
from .verify import CriterionResult, run_criteria

__all__ = [
    "DEFAULT_TOL", "Tolerances", "active_tolerances", "tolerance_scope",
    "eig_hermitian", "eigvals_hermitian", "tensor", "partial_trace",
    "trace_norm", "operator_norm",
    "DensityOperator", "Pmf", "CqState", "EntropyQuery",
    "entropy", "conditional_mutual_info", "von_neumann_entropy",
    "von_neumann_entropies",
    "binary_entropy", "binary_convolve", "fact1_f",
    "NestedCosetCode", "CodePair", "sum_code", "enumerate_coset",
    "random_nested_code", "random_code_pair",
    "ChannelSpec", "CostVector", "Capacities", "sigma_state", "gamma_state",
    "build_ex1", "build_ex2", "build_ex3", "classical_equivalent",
    "interference_free_family", "user_capacity_cost", "example_capacities",
    "condition_eq1", "or_recovery_check", "coset_sufficiency_threshold",
    "feasible_point",
    "InequalityRecord", "RateAllocation", "RegionReport", "ScanResult",
    "Thm1Config", "UnstructuredConfig", "Thm2Config", "Thm3Config",
    "thm1_check", "unstructured_3to1_check", "thm2_feasible", "thm3_feasible",
    "thm2_config_from_thm1", "thm3_config_from_unstructured",
    "max_r1_scan", "boundary_slice",
    "SimConfig", "SimResult", "run_ex1_sim", "soft_covering_tv",
    "selection_probabilities", "likelihood_encode", "wilson_interval",
    "TiltSpace", "TiltedState", "embed_vector", "tilt_vector", "tilt_state",
    "closeness", "closeness_chain", "smoothing_residual",
    "four_user_omega", "printed_omega", "four_user_tilt_report",
    "four_user_smoothing_report", "hayashi_nagaoka_check", "tiny_srm",
    "CriterionResult", "run_criteria",
]
