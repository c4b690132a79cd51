"""cmsense: estimation-theoretic laboratory for continuously monitored
quantum optical sensors.

The library computes the quantum Fisher information carried by the
emission field of a driven-dissipative sensor, synthesizes the decoder
system whose photon-counting record attains it, samples and replays
counting records, and cross-checks everything against brute-force
small-instance constructions.
"""

__version__ = "0.1.0"

from .errors import (
    ClickProbabilityOverflow,
    CmsenseError,
    ConfigInvalid,
    DegenerateSteadyState,
    DimensionMismatch,
    GaussianTooWide,
    GridTooNarrow,
    NonpositiveRate,
    NonUnitaryGauge,
    PulseShapeMismatch,
    RankDeficientRho,
    RankDeficientSteadyState,
    RecordLengthMismatch,
    StepSelectionFailed,
    StepTooLarge,
    TooManyBins,
    TraceDrift,
)
from .models import (
    SensorModel,
    gaussian_pi_envelope,
    plateau_envelope,
    three_level_model,
    two_level_model,
    two_level_steady_state,
)
from .propagate import (
    TimeGrid,
    evolve_density,
    evolve_generalized,
    propagate_linear,
)
from .qfi import (
    QfiResult,
    env_fidelity,
    env_qfi,
    global_fidelity,
    global_qfi,
    qfi_pair,
)
from .decoder import (
    DecoderModel,
    build_decoder,
    liouvillian_steady_state,
    stationary_decoder,
    two_level_decoder,
    verify_decoding,
)
from .cascade import (
    CascadeGenerators,
    FisherEstimate,
    Imperfections,
    MismatchResult,
    cascade_generators,
    fisher_from_trajectories,
    full_width_half_max,
    mismatch_sweep,
    vacuum_probability,
)
from .estimate import (
    InterrogationRow,
    LikelihoodCurve,
    interrogation_study,
    likelihood_curve,
)
from .oracle import (
    BinnedState,
    CountingDistribution,
    brute_counting_distribution,
    brute_env_state,
    brute_global_state,
    counting_fisher_exact,
    uhlmann_fidelity,
)
from .config import (
    ExperimentConfig,
    load_config,
    preset_config,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
