"""Measurement-error-corrected kernel instrumental variable regression.

Estimates a structural (dose-response) function from an instrument Z, an
outcome Y, and two error-corrupted measurements M, N of a latent treatment X,
alongside standard kernel-IV baselines and synthetic benchmark designs.
"""

from .baselines import BASELINE_KINDS, kiv_fit
from .datagen import (
    DESIGNS,
    MERROR_KINDS,
    Dataset,
    DesignSpec,
    apply_merror,
    generate,
    generate_splits,
    load_dataset,
    save_dataset,
    structural_truth,
)
from .estimator import (
    DEFAULT_XI_GRID,
    EPS_DENOM,
    GdConfig,
    Instrument,
    LatentRecovery,
    MekivConfig,
    MekivDetails,
    Stage1Output,
    StructuralFn,
    TrainingPairs,
    make_training_pairs,
    mekiv_fit,
    optimize_latents,
    ratio_grid,
    step1,
    step2_grad,
    step2_loss,
    step3,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    ResultRow,
    mse_out_of_sample,
    read_results_csv,
    report,
    run_experiment,
    write_report,
)
from .kernels import (
    KernelSpec,
    SpectralSampler,
    Standardizer,
    gram,
    median_heuristic,
)
from .krr import (
    CmeSolver,
    NumericalError,
    default_lambda_grid,
    fit,
    holdout_basis,
    validate_lambda,
)

__version__ = "0.1.0"
