"""emdiff: a desk-scale laboratory for reward alignment of diffusion models
by alternating tilted-posterior search with maximum-likelihood distillation,
instrumented with exact oracles on enumerable instances."""

__version__ = "0.1.0"

from .errors import (ConfigError, OracleUnavailableError, RunAbortedError,
                     UnreachableTransitionError)
from .numkit import Mlp, RngStream, log_sum_exp, sample_categorical, softmax

__all__ = [
    "ConfigError", "OracleUnavailableError",
    "RunAbortedError", "UnreachableTransitionError",
    "Mlp", "RngStream", "log_sum_exp", "sample_categorical", "softmax",
    "__version__",
]
