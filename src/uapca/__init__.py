"""Principal component analysis over probability distributions.

Items are distributions rather than points; the global covariance combines
the covariance of the item means with the expected item covariance, scaled
by an uncertainty factor s.  Sweeping s yields factor traces that show how
the projection reacts to uncertainty, and a Hellinger-distance harness
validates the closed form against plain PCA on Monte-Carlo samples.

The names below load their module on first access (PEP 562), so importing
the package, or the CLI for one subcommand, loads no module it does not run.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cov": ("GlobalCov", "global_cov"),
    "dataset_json": ("load_dataset", "save_dataset"),
    "eigen": ("EigenPairs", "PcaModel", "eig_sym", "principal_angles", "select_components"),
    "io": (
        "DatasetFormatError", "PointsData", "aggregate_by_label", "load_points",
        "points_dataset", "standardize_dataset", "standardize_points",
    ),
    "items": (
        "Distribution", "EmpiricalCluster", "Gaussian", "Interval", "Normal1D",
        "Number", "Point", "ProductOf1D", "Trapezoid",
    ),
    "metrics": (
        "ExperimentConfig", "ExperimentRow", "PcaSummary", "bhattacharyya_coeff",
        "hellinger", "run_convergence_experiment", "sampled_pca",
    ),
    "model": ("UncertainDataset", "cov_matrix"),
    "project": ("project_items",),
    "sensitivity": (
        "EigenCurves", "FactorTrace", "SweepSchedule", "detect_avoided_crossings",
        "factor_traces", "sweep",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
