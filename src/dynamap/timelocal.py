"""Single-step (time-local) maps by inversion, and stationary extrapolation.

The cumulative maps E(t_n, t_0) define single-step propagators

    E(t_n + dt, t_n) = E(t_{n+1}, t_0) E(t_n, t_0)^{-1}

wherever the cumulative map is invertible. For a time-independent total
Hamiltonian these single-step maps settle to a stationary map E_s well before
the state itself equilibrates, so long-time dynamics can be produced by
repeated application of E_s once the transient is over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffExceedsData, NearSingularMap, StationaryMapFlagged
from .maps import (
    DynamicalMapSeries,
    devectorize,
    frobenius_diff,
    invert,
    singular_values,
    vectorize,
)
from .numerics import DEFAULT_NUMERICS, NumericsConfig

__all__ = [
    "LocalMapSeries",
    "SpectralStability",
    "local_maps",
    "stationarity_profile",
    "extrapolate_tl",
    "spectral_stability",
    "tl_refusal",
]


@dataclass(frozen=True)
class LocalMapSeries:
    """Single-step maps E(t_n + dt, t_n) for n = 0..N-1.

    ``sv_ratios[n]`` is sigma_min/sigma_max of the cumulative map that was
    inverted to produce entry n (1.0 for entry 0, which needs no inversion);
    ``flagged[n]`` marks entries whose inversion failed the condition test and
    were filled with the least-squares pseudo-inverse solution instead.
    """

    dt: float
    t0: float
    maps: np.ndarray = field(repr=False)
    sv_ratios: np.ndarray = field(repr=False)
    flagged: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in (("maps", complex), ("sv_ratios", float), ("flagged", bool)):
            arr = np.asarray(getattr(self, name), dtype=dtype).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.maps.shape[0]

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.maps.shape[1])))

    @property
    def times(self) -> np.ndarray:
        """Start time t_n of each single-step map."""
        return self.t0 + self.dt * np.arange(len(self))


def local_maps(
    series: DynamicalMapSeries,
    cond_threshold: float | None = None,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> LocalMapSeries:
    """Single-step maps from a cumulative series, flagging singular inversions.

    Near-singular cumulative maps (sigma_min/sigma_max below ``cond_threshold``)
    do not abort the construction: the affected step is filled with the
    minimum-norm least-squares solution of X E(t_n, t_0) = E(t_{n+1}, t_0) and
    flagged. Flags are isolated only at isolated singular times; for a source
    that relaxes, the ratio keeps falling, and every step after it first drops
    below the threshold is flagged.
    """
    if cond_threshold is None:
        cond_threshold = numerics.sv_ratio_min
    n_steps = len(series)
    maps = series.maps
    out = np.empty_like(maps)
    ratios = np.ones(n_steps)
    flags = np.zeros(n_steps, dtype=bool)
    out[0] = maps[0]
    for n in range(1, n_steps):
        prev = maps[n - 1]
        sv = singular_values(prev)
        ratios[n] = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
        try:
            out[n] = maps[n] @ invert(prev, cond_threshold=cond_threshold, numerics=numerics)
        except NearSingularMap:
            flags[n] = True
            out[n] = maps[n] @ np.linalg.pinv(prev)
    return LocalMapSeries(dt=series.dt, t0=series.t0, maps=out, sv_ratios=ratios, flagged=flags)


def stationarity_profile(local: LocalMapSeries) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius distance between single-step maps at subsequent times.

    Returns (t_n, ||E(t_n + dt, t_n) - E(t_n, t_n - dt)||_F) for n = 1..N-1;
    a decay to zero signals that the maps have become stationary.
    """
    n_steps = len(local)
    times = local.times[1:]
    diffs = np.array(
        [frobenius_diff(local.maps[n], local.maps[n - 1]) for n in range(1, n_steps)]
    )
    return times, diffs


def extrapolate_tl(
    local: LocalMapSeries,
    initial: np.ndarray,
    cutoff_steps: int,
    total_steps: int,
) -> np.ndarray:
    """Propagate with exact single-step maps up to the cutoff, then repeat E_s.

    E_s is the last single-step map inside the cutoff window,
    E(tau_c, tau_c - dt) with tau_c = cutoff_steps * dt. Extrapolating from a
    flagged map is refused. Memory use is constant in ``total_steps``.
    """
    k = int(cutoff_steps)
    if k < 1:
        raise ValueError("cutoff_steps must be at least 1")
    if k > len(local):
        raise CutoffExceedsData(
            f"cutoff of {k} steps exceeds the {len(local)} available local maps"
        )
    if local.flagged[k - 1]:
        raise StationaryMapFlagged(
            f"stationary map at step {k - 1} (t = {local.times[k - 1]!r}) came from "
            "a flagged inversion"
        )
    stationary = local.maps[k - 1]
    dim = local.dim
    states = np.empty((total_steps + 1, dim, dim), dtype=complex)
    states[0] = np.asarray(initial, dtype=complex)
    vec = vectorize(initial)
    for n in range(total_steps):
        step = local.maps[n] if n < k else stationary
        vec = step @ vec
        states[n + 1] = devectorize(vec)
    return states


@dataclass(frozen=True)
class SpectralStability:
    """Largest-modulus eigenvalue of a map and a stability verdict."""

    leading_eigenvalue: complex
    max_modulus: float
    stable: bool


def spectral_stability(
    superop: np.ndarray,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> SpectralStability:
    """Predict whether repeated application of a map stays bounded.

    Any eigenvalue modulus above 1 + tolerance makes repeated application of
    the map diverge; trace-preserving maps always have one eigenvalue at 1.
    """
    evals = np.linalg.eigvals(np.asarray(superop, dtype=complex))
    idx = int(np.argmax(np.abs(evals)))
    max_mod = float(np.abs(evals[idx]))
    return SpectralStability(
        leading_eigenvalue=complex(evals[idx]),
        max_modulus=max_mod,
        stable=max_mod <= 1.0 + numerics.spectral_radius_tol,
    )


def tl_refusal(local: LocalMapSeries, k: int) -> tuple[str | None, SpectralStability]:
    """Why extrapolation from cutoff step ``k`` is refused, or None, and the
    spectral stability of its stationary map. A flagged or spectrally
    unstable stationary map is refused; ``compare`` and ``tl`` skip it."""
    stab = spectral_stability(local.maps[k - 1])
    if local.flagged[k - 1]:
        return "stationary map flagged", stab
    if not stab.stable:
        reason = f"stationary map spectrally unstable (max |eigenvalue| {stab.max_modulus:.6g})"
        return reason, stab
    return None, stab
