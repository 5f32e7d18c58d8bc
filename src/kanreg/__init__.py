"""Kolmogorov-Arnold regression networks for feature-based score prediction.

The package trains small KAN regressors whose edge activations are linear
combinations of a chosen function basis (Taylor terms x^j / j! by default, with
Chebyshev, Jacobi, Hermite, Gaussian RBF, B-spline, combined spline+RBF,
Mexican-hat wavelet, and Fourier alternatives), preceded by z-scoring and
an optional PCA compression of the input features. Everything numeric is
implemented on plain NumPy arrays with an explicit, seedable RNG so that
runs are reproducible bit for bit.
"""

from .basis import FAMILIES, SQUASHED_FAMILIES, BasisSpec, basis_size, evaluate_basis
from .data import (FeatureTable, SplitIndices, Standardizer,
                   apply_standardizer, fit_standardizer, load_table,
                   make_synthetic, mos_histogram, save_table, split)
from .errors import (ContractError, DegenerateDataError, DivergedError,
                     FormatError, InsufficientDataError, KanregError,
                     NumericError, ParameterError, ParseError, ShapeError,
                     UndefinedCorrelationError, UnsupportedVersionError)
from .linalg import Rng, sym_eig
from .metrics import (EvalReport, SignificanceResult, evaluate,
                      paired_t_test, plcc, rank_average, srcc)
from .network import (KanLayer, KanNetwork, MlpNetwork, ModelBundle,
                      auto_configure, backward, forward, init_mlp,
                      init_network, load_model, mlp_dims, predict, save_model,
                      six_layer_dims)
from .pca import PcaModel
from .pca import fit as fit_pca
from .pca import select_k
from .pca import transform as pca_transform
from .training import (DEFAULT_LR_GRID, AdamState, GridSearchResult,
                       TrainConfig, TrainResult, adam_step, grid_search,
                       init_adam, train)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BasisSpec", "ContractError", "DEFAULT_LR_GRID",
    "DegenerateDataError", "DivergedError", "EvalReport", "FAMILIES",
    "FeatureTable", "FormatError", "GridSearchResult",
    "InsufficientDataError", "KanLayer", "KanNetwork", "KanregError",
    "MlpNetwork", "ModelBundle", "NumericError", "ParameterError",
    "ParseError", "PcaModel", "Rng", "SQUASHED_FAMILIES", "ShapeError",
    "SignificanceResult", "SplitIndices", "Standardizer", "TrainConfig",
    "TrainResult", "UndefinedCorrelationError", "UnsupportedVersionError",
    "adam_step", "apply_standardizer", "auto_configure", "backward",
    "basis_size", "evaluate", "evaluate_basis",
    "fit_pca", "fit_standardizer", "forward", "grid_search", "init_adam",
    "init_mlp", "init_network", "load_model", "load_table", "make_synthetic",
    "mlp_dims", "mos_histogram", "paired_t_test",
    "pca_transform", "plcc", "predict", "rank_average", "save_model",
    "save_table", "select_k", "six_layer_dims", "split", "srcc", "sym_eig",
    "train", "__version__",
]
