"""Household-scoped speaker label inference over multi-view affinity graphs."""

from .baselines import (
    ABSTAIN,
    PredictionResult,
    cosine_matrix,
    predict,
    run_2cs,
    run_2csea,
    run_cs,
    run_csea,
)
from .config import MethodSpec
from .errors import (
    ConfigurationError,
    DegeneracyWarning,
    NumericalError,
    SpeakerGraphError,
    StructuralError,
)
from .evaluate import (
    EvalReport,
    MethodReport,
    SweepResult,
    evaluate,
    evaluate_methods,
    micro_average,
    relative_improvement,
    run_method,
    sier,
    sweep,
    tune_cohort_sigmas,
)
from .fusion import (
    EdgePoolFusion,
    FusedGraph,
    PowerMeanFusion,
    SingleView,
    edgepool_fuse,
    fuse,
    pml_fuse,
)
from .graph import (
    AffinityMatrix,
    CohortScaling,
    EmbeddingView,
    LocalScaling,
    UniversalScaling,
    affinity,
    normalized_laplacian,
    pairwise_distances,
    propagation_operator,
    session_affinity,
)
from .propagation import (
    HouseholdGraph,
    PropagationConfig,
    class_normalize,
    init_label_matrix,
    propagate,
    run_2lp,
    run_2lpea,
    run_lp,
)
from .records import HouseholdDataset, UtteranceRecord
from .simulate import (
    SimulationConfig,
    SpeakerPool,
    assemble_cohort_households,
    assemble_hard_households,
    assemble_random_households,
    build_speaker_profiles,
    generate_dataset,
    generate_group,
    generate_speakers,
    hard_threshold,
    mix64,
    split_dev_val,
)

__version__ = "0.1.0"
