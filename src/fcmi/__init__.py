"""Prediction-based generalization-bound estimation for supervised learners.

The package estimates how much a learner's predictions on a held-out pairing
structure reveal about which half was used for training, turns those
information estimates into generalization-gap bounds, and verifies every
underlying inequality numerically on enumerable instances.
"""

from .bounds import (
    BoundReport,
    StabilityConstants,
    cmi_weight_bound,
    deterministic_stability_bound,
    deterministic_stability_squared_bound,
    ensemble_fcmi_bound,
    fcmi_bound_general_m,
    fcmi_bound_m1,
    fcmi_bound_mn,
    fcmi_squared_bound,
    gaussian_shift_kl,
    optimal_noise_variance,
    stability_fcmi_bound,
    stability_fcmi_squared_bound,
    stability_kl_decomposition,
    vc_fcmi_bound,
)
from .core import (
    ContractViolation,
    PredictionSpace,
    SizeError,
    Supersample,
    TrialTable,
    aggregate_gap,
    enumerate_splits,
    exact_rows,
)
from .datagen import GeneratorSpec, sample_examples, sample_supersample
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    UnsupportedCombinationError,
    curve_rows,
    curve_table_csv,
    load_report,
    persist,
    run_experiment,
    sweep,
)
from .infotheory import (
    AbsoluteContinuityError,
    conditional_mutual_information,
    entropy,
    kl_divergence,
    mutual_information,
    plugin_mi,
)
from .learners import (
    LearnerOutput,
    LearnerSpec,
    ensemble_combine,
    estimate_stability,
    fill_table,
    noisy_predict,
    threshold_erm_fit,
    train_predict,
)
from .seeding import derive_seed, derive_seeds, split_masks

__version__ = "0.1.0"
