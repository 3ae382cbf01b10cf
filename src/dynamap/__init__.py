"""dynamap: long-time extrapolation of non-Markovian open-system dynamics
from short-time dynamical maps, with time-nonlocal (transfer-tensor) and
time-local (stationary-map) schemes side by side.
"""

from .errors import (
    BranchAmbiguity,
    ConfigError,
    CutoffExceedsData,
    DegenerateRates,
    DimensionMismatch,
    DynamapError,
    MemoryBudgetExceeded,
    NegativeFrequency,
    NonDiagonalizable,
    NonDiagonalizableCoupling,
    NotTracePreserving,
    QuadratureFailure,
    SingularBasis,
    StationaryMapFlagged,
    TruncationGuard,
    UnknownModel,
)
from .harness import (
    CompareResult,
    CompareRow,
    EmbeddingPropagator,
    LindbladPropagator,
    QuapiPropagator,
    SweepConfig,
    compare_series,
    load_config,
    observable_series,
    preset_config,
    run_compare,
    trace_distance,
)
from .maps import (
    DynamicalMapSeries,
    devectorize,
    expm,
    from_trajectories,
    logm,
    singular_values,
    vectorize,
)
from .models import (
    DrudeLorentzDensity,
    Embedding,
    QDPhononDensity,
    SubOhmicDensity,
    SystemSpec,
    TabulatedDensity,
    build_embedding,
    spectral_density_eval,
)
from .propagators import (
    InfluenceCoefficients,
    embedding_propagate,
    eta_coefficients,
    quapi_propagate,
)
from .timelocal import (
    LocalMapSeries,
    SpectralStability,
    extrapolate_tl,
    local_maps,
    spectral_stability,
    stationarity_profile,
)
from .ttm import TransferTensorSeries, decompose, extrapolate, tensor_norm_profile

__version__ = "0.1.0"

#: names of :mod:`dynamap.lindblad`, which loads on first use of one of them
_LINDBLAD_NAMES = ("CanonicalForm", "RateSeries", "canonical_decompose", "rate_series", "reassemble")


def __getattr__(name):
    if name in _LINDBLAD_NAMES:
        from . import lindblad

        return getattr(lindblad, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
