"""Principal component analysis over probability distributions.

Items are distributions rather than points; the global covariance combines
the covariance of the item means with the expected item covariance, scaled
by an uncertainty factor s.  Sweeping s yields factor traces that show how
the projection reacts to uncertainty, and a Hellinger-distance harness
validates the closed form against plain PCA on Monte-Carlo samples.
"""

from .cov import CovOptions, GlobalCov, global_cov, global_cov_from_points
from .eigen import EigenPairs, PcaModel, eig_sym, principal_angles, select_components
from .io import (
    DatasetFormatError,
    PointsData,
    aggregate_by_label,
    load_dataset,
    load_points,
    points_dataset,
    save_dataset,
    standardize_dataset,
    standardize_points,
)
from .metrics import (
    ExperimentConfig,
    ExperimentRow,
    PcaSummary,
    bhattacharyya_coeff,
    hellinger,
    run_convergence_experiment,
    sampled_pca,
    summary_of,
)
from .model import (
    Distribution,
    EmpiricalCluster,
    Gaussian,
    Interval,
    Normal1D,
    Number,
    Point,
    ProductOf1D,
    Trapezoid,
    UncertainDataset,
    cov_matrix,
)
from .project import ellipse_outline, project_distribution, project_items, project_point
from .sensitivity import (
    EigenCurves,
    FactorTrace,
    SweepSchedule,
    detect_avoided_crossings,
    factor_traces,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CovOptions", "GlobalCov", "global_cov", "global_cov_from_points",
    "EigenPairs", "PcaModel", "eig_sym", "principal_angles", "select_components",
    "DatasetFormatError", "PointsData", "aggregate_by_label", "load_dataset",
    "load_points", "points_dataset", "save_dataset", "standardize_dataset",
    "standardize_points",
    "ExperimentConfig", "ExperimentRow", "PcaSummary", "bhattacharyya_coeff",
    "hellinger", "run_convergence_experiment", "sampled_pca", "summary_of",
    "Distribution", "EmpiricalCluster", "Gaussian", "Interval", "Normal1D",
    "Number", "Point", "ProductOf1D", "Trapezoid", "UncertainDataset",
    "cov_matrix",
    "ellipse_outline", "project_distribution", "project_items", "project_point",
    "EigenCurves", "FactorTrace", "SweepSchedule", "detect_avoided_crossings",
    "factor_traces", "sweep",
    "__version__",
]
