"""Componentwise local differential privacy toolkit.

Channels that privatize each coordinate of a data vector separately, the
divergence-contraction bounds that control what those channels reveal, locally
private estimators (moments, covariance, correlation, pointwise density) with
optimal and data-driven tuning, two-point lower-bound constructions, and a
Monte-Carlo/brute-force verification harness.
"""

from .channels import (
    AuditResult,
    KernelFn,
    KernelLaplaceChannel,
    LaplaceTruncChannel,
    MultiBandwidthChannel,
    MultiTruncChannel,
    PrivacyBudget,
    RandomizedResponseChannel,
    compose_ldp_level,
    kernel_order,
    make_kernel,
    make_rr_channel,
    privacy_audit,
    privatize,
)
from .contraction import (
    MarginalTVTable,
    cldp_kl_bound,
    equal_marginals_bound,
    f_divergence_bound,
    tensorized_bound,
    verify_contraction,
)
from .effective_privacy import (
    LeakageProfile,
    audit_marginal_leakage,
    delta_ind,
    effective_level,
    misprediction_floor,
)
from .estimators import (
    BandwidthChoice,
    HolderClass,
    MomentProfile,
    PrivatizedSample,
    optimal_bandwidth,
    optimal_truncations,
    private_covariance_correlation,
    private_joint_moment,
    private_kde,
    private_mean,
    release_sample,
)
from .adaptive import (
    GLConfig,
    build_bandwidth_grid,
    build_truncation_grid,
    gl_select_bandwidth,
    gl_select_truncation,
)
from .lowerbounds import (
    DensityInstance,
    MomentInstance,
    density_two_point,
    moment_two_point,
    verify_two_point,
)
from .measures import (
    DiscreteDist,
    SubsetIndex,
    divergence,
    marginal,
    pushforward,
    tv_distance,
)
from .simdata import (
    HolderDensityModel,
    ParetoFactorModel,
    sample_heavy_tailed,
    sample_holder_density,
)
from .harness import (
    ExperimentConfig,
    RateCurve,
    fit_loglog_slope,
    run_rate_experiment,
    run_verification_suite,
)

__version__ = "0.1.0"
