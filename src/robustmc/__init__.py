"""robustmc: certification toolkit for robust low-rank matrix completion patterns."""

from .bounds import (
    BoundQuery,
    BoundResult,
    CoupledBoundResult,
    coupled_columnwise_bound,
    sample_bound,
    sample_condition,
    sweep,
    sweep_to_csv,
)
from .certify import (
    Certificate,
    CountCondition,
    Verdict,
    find_finite_certificate,
    find_unique_certificate,
    min_slack,
    validate_witness,
)
from .numeric import FitResult, Instance, generate_instance, rank_r_fit
from .pattern import (
    ConstraintMatrix,
    NoiseBudget,
    RemovalSet,
    SamplingPattern,
    build_constraint_matrix,
    enumerate_removals,
    load_pattern,
    parse_pattern,
    remove_entries,
    serialize_pattern,
)
from .rank import RankCeiling, estimate_rank_ceiling, probabilistic_rank_premise, rank_dichotomy
from .robust import (
    NoSupportFoundError,
    RobustOutcome,
    RobustVerdict,
    identify_noise_support,
    verify_finite,
    verify_unique,
)
from .sim import (
    ThresholdResult,
    TrialConfig,
    TrialOutcome,
    empirical_threshold,
    estimate_pass_probability,
    wilson_interval,
)

__version__ = "0.1.0"
