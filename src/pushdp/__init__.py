"""pushdp: differentially private decentralized learning over time-varying
directed graphs, with calculators and oracles for every closed-form quantity
of the underlying analysis."""

from .config import (
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    RunSpec,
    TopologySpec,
    load_config,
    parse_sections,
    to_sections,
)
from .engine import MetricsRecord, RunResult, run
from .errors import (
    CalibrationError,
    ConfigurationError,
    NumericalBreakdownError,
    OutOfRegimeError,
    PushdpError,
)
from .fusion import (
    ClipConfig,
    FusionConfig,
    clip,
    decay_threshold,
    fuse,
    noise_factor,
    perturb,
    select_tau,
    staleness_bound,
)
from .models import (
    Dataset,
    LogisticModel,
    MlpModel,
    PartitionSpec,
    QuadraticModel,
    dirichlet_partition,
    load_csv,
    make_quadratic_model,
    make_synthetic,
    sample_batch,
)
from .privacy import (
    LrSchedule,
    NoiseSchedule,
    PrivacyBudget,
    alpha_at,
    beta_at,
    beta_sum_dominance,
    calibrate_sigma,
    delta_bound,
    epsilon_spent,
    moments_bound,
    starts_interval,
)
from .pushsum import deviation_bound_eval, mix_round
from .theory import (
    TheoryParams,
    convergence_bound,
    corollary_regime,
    min_iterations,
    optimal_p,
)
from .topology import (
    DirectedEdgeSet,
    PropagationParams,
    TopologySchedule,
    build_mixing_matrix,
    propagation_params,
    topology_at,
)

__version__ = "0.1.0"
