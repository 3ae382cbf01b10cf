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

from .errors import CutoffExceedsData, DimensionMismatch, StationaryMapFlagged
from .maps import DynamicalMapSeries, singular_values, vectorize

__all__ = [
    "LocalMapSeries",
    "SpectralStability",
    "local_maps",
    "stationarity_profile",
    "extrapolate_tl",
    "spectral_stability",
    "tl_refusal",
]

#: flag a map inversion when sigma_min/sigma_max drops below this
SV_RATIO_MIN = 1e-8
#: margin above 1 allowed to a stationary map's spectral radius
SPECTRAL_RADIUS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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
        n = len(self.maps)
        if self.sv_ratios.shape != (n,) or self.flagged.shape != (n,):
            raise DimensionMismatch(
                f"{n} maps need as many sv_ratios and flags, got {self.sv_ratios.shape} "
                f"and {self.flagged.shape}"
            )

    def __len__(self) -> int:
        return self.maps.shape[0]

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.maps.shape[1])))

    @property
    def times(self) -> np.ndarray:
        """Start time t_n of each single-step map."""
        return self.t0 + self.dt * np.arange(len(self))


def local_maps(series: DynamicalMapSeries) -> LocalMapSeries:
    """Single-step maps from a cumulative series, flagging singular inversions.

    Near-singular cumulative maps (sigma_min/sigma_max below ``SV_RATIO_MIN``,
    read at call time) do not abort the construction: the affected step is
    filled with the minimum-norm least-squares solution of
    X E(t_n, t_0) = E(t_{n+1}, t_0) and flagged. Flags are isolated only at
    isolated singular times; for a source that relaxes, the ratio keeps
    falling, and every step after it first drops below the threshold is
    flagged.
    """
    maps = series.maps
    prev, nxt = maps[:-1], maps[1:]
    sv = singular_values(prev)
    ratios = np.zeros(len(maps))
    ratios[0] = 1.0
    np.divide(sv[:, -1], sv[:, 0], out=ratios[1:], where=sv[:, 0] > 0)
    flags = np.zeros(len(maps), dtype=bool)
    # a zero map keeps ratio 0 and is flagged even at threshold 0: it has no inverse
    flags[1:] = (ratios[1:] < SV_RATIO_MIN) | (sv[:, 0] == 0)
    out = np.empty_like(maps)
    out[0] = maps[0]
    ok, bad = ~flags[1:], flags[1:]
    out[1:][ok] = nxt[ok] @ np.linalg.inv(prev[ok])
    out[1:][bad] = nxt[bad] @ np.linalg.pinv(prev[bad])
    return LocalMapSeries(dt=series.dt, t0=series.t0, maps=out, sv_ratios=ratios, flagged=flags)


def stationarity_profile(local: LocalMapSeries) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius distance between single-step maps at subsequent times.

    Returns (t_n, ||E(t_n + dt, t_n) - E(t_n, t_n - dt)||_F) for n = 1..N-1;
    a decay to zero signals that the maps have become stationary.
    """
    diffs = np.linalg.norm(np.diff(local.maps, axis=0), axis=(1, 2))
    return local.times[1:], diffs


def extrapolate_tl(
    local: LocalMapSeries,
    initial: np.ndarray,
    cutoff_steps: int,
    total_steps: int,
) -> np.ndarray:
    """Propagate with exact single-step maps up to the cutoff, then repeat E_s.

    E_s is the last single-step map inside the cutoff window,
    E(tau_c, tau_c - dt) with tau_c = cutoff_steps * dt. Extrapolating from a
    flagged map is refused. Each step writes its matrix-vector product with
    ``out=`` into a preallocated buffer: first through the exact maps, then
    through E_s alone. Returns the states at steps 0..total_steps as an
    (total_steps + 1, D, D) array.
    """
    k = int(cutoff_steps)
    if k < 1:
        raise CutoffExceedsData("cutoff_steps must be at least 1")
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
    vecs = np.empty((total_steps + 1, dim * dim), dtype=complex)
    vecs[0] = vectorize(initial)
    for n in range(min(k, total_steps)):
        local.maps[n].dot(vecs[n], out=vecs[n + 1])
    step = stationary.dot
    for state, following in zip(vecs[k:-1], vecs[k + 1 :]):
        step(state, out=following)
    return vecs.reshape(total_steps + 1, dim, dim).transpose(0, 2, 1).copy()


@dataclass(frozen=True)
class SpectralStability:
    """Largest-modulus eigenvalue of a map and a stability verdict."""

    leading_eigenvalue: complex
    max_modulus: float
    stable: bool


def spectral_stability(superop: np.ndarray) -> SpectralStability:
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
        stable=max_mod <= 1.0 + SPECTRAL_RADIUS_TOL,
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
