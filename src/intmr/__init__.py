"""Integrative multivariate regression: several datasets share one set of
covariates whose coefficients are selected jointly through a cross-dataset
group penalty, while dataset-specific covariates carry an entrywise l1
penalty.  Fitting is by consensus ADMM; penalties are chosen by K-fold
cross-validation."""

from .model import (
    DatasetBlock,
    IntegratedDataset,
    HyperParams,
    ModelFit,
    objective,
    residual_matrix,
    predict,
    group_norms,
)
from .prox import soft_threshold, group_soft_threshold
from .admm import (
    SolverOptions,
    AdmmState,
    FitReport,
    AdmmSolver,
    fit,
    zero_state,
    augmented_lagrangian,
    consensus_gap,
    kkt_residual,
)
from .selection import (
    FoldAssignment,
    CvGrid,
    CvResult,
    make_folds,
    default_grid,
    select,
    select_many,
)
from .sim import (
    SimConfig,
    TruthSet,
    StudyMetrics,
    truth,
    gen_ar1_rows,
    generate,
    mse,
    fpr_fnr,
    run_study,
)

__version__ = "0.1.0"
