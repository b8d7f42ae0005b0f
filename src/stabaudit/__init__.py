"""Exact auditing of stability and generalization bounds on finite scenarios.

Distributions over finite alphabets, learning rules as row-stochastic
kernels, variational information computed by full enumeration, and a set
of closed-form bound audits with a Monte Carlo fallback for domains too
large to enumerate.
"""

__version__ = "0.1.0"

from .audits import (
    AUDIT_IDS,
    AuditReport,
    DpMechanismReport,
    audit_c2_forward,
    audit_dp,
    audit_dp_mechanism,
    audit_erm,
    audit_p3,
    audit_p4,
    audit_t1,
    audit_t2,
    audit_t3,
    audit_t4,
    audit_t5,
)
from .dist import (
    Alphabet,
    ArityError,
    ConditioningError,
    Diagnostics,
    Dist,
    DomainMismatchError,
    Joint,
    TransitionKernel,
    overlap,
    product,
    product_weights,
    tv_distance,
    validate,
)
from .harness import (
    ConfigError,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    ScenarioConfig,
    build_scenario,
    corpus_run,
    run_config,
)
from .info import (
    ChainDecomposition,
    DpiCheck,
    Prop2Gap,
    chain_decompose,
    conditional_variational_info,
    dpi_check,
    mutual_stability,
    prop2_gap_check,
    shannon_mutual_info,
    variational_info,
)
from .learners import (
    EnumerationBudgetError,
    LearnerKernel,
    Scenario,
    SideInfoKernel,
    constant_learner,
    default_budget,
    deviation_sign_side_info,
    duplicate_side_info,
    effective_epsilon,
    erm_finite,
    exact_threeway_joint,
    exact_trn_hyp_joint,
    prop1_counterexample,
    randomized_response_dp,
    rerun_side_info,
    sample_hypothesis_mutual_info,
    subsample_release,
)
from .losses import (
    DeviationLaw,
    ParametricLoss,
    constant_loss,
    deviation_law,
    empirical_risk,
    erm_consistency_bound,
    exhaustive_binary_loss_max,
    expected_gen_risk,
    gen_risk_from_joint,
    membership_loss,
    prop1_flipped_loss,
    prop1_paired_loss,
    random_table_loss,
    table_loss,
    true_risk,
    worst_case_loss,
    zero_one_loss,
)
from .mc import (
    Estimate,
    RunBatch,
    RunSample,
    TailPoint,
    TailReport,
    deviations,
    draw_runs,
    estimate_gen_risk,
    estimate_tail,
    estimate_variational_info,
)
from .numeric import EXACT, FLOAT64, NumericMode
