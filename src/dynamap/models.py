"""Physical model definitions: spin-boson systems, spectral densities and
damped-mode embeddings.

All frequencies and rates are in the model's base inverse-time unit and
hbar = 1; temperatures are energies in the same unit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NegativeFrequency, TruncationGuard
from .maps import devectorize, dissipator_superop, hamiltonian_superop, is_hermitian

__all__ = [
    "SubOhmicDensity",
    "DrudeLorentzDensity",
    "QDPhononDensity",
    "TabulatedDensity",
    "SpectralDensity",
    "SystemSpec",
    "Embedding",
    "spectral_density_eval",
    "support_cutoff",
    "build_embedding",
    "stationary_state",
    "load_tabulated",
]


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubOhmicDensity:
    """J(w) = 2 alpha w^s wc^(1-s) exp(-w/wc); sub-ohmic for s < 1."""

    alpha: float
    s: float
    omega_c: float

    def profile(self, omega):
        omega = np.asarray(omega, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (
                2.0
                * self.alpha
                * np.power(omega, self.s)
                * self.omega_c ** (1.0 - self.s)
                * np.exp(-omega / self.omega_c)
            )
        return np.where(omega == 0.0, 0.0, out)


@dataclass(frozen=True)
class DrudeLorentzDensity:
    """J(w) = 2 lam gamma w / (w^2 + gamma^2); ohmic at small w."""

    lam: float
    gamma: float

    def profile(self, omega):
        omega = np.asarray(omega, dtype=float)
        return 2.0 * self.lam * self.gamma * omega / (omega**2 + self.gamma**2)


@dataclass(frozen=True)
class QDPhononDensity:
    """Super-ohmic acoustic-phonon coupling of a quantum dot:
    J(w) = w^3 (c_e exp(-w^2/we^2) - c_h exp(-w^2/wh^2)).
    """

    c_e: float
    c_h: float
    omega_e: float
    omega_h: float

    def profile(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega**3 * (
            self.c_e * np.exp(-(omega**2) / self.omega_e**2)
            - self.c_h * np.exp(-(omega**2) / self.omega_h**2)
        )


@dataclass(frozen=True)
class TabulatedDensity:
    """Linear interpolation of (omega, J) samples; zero outside the table.
    The nodes must be at least two, finite, with omega >= 0 and strictly
    increasing: np.interp reads any other table wrongly."""

    omegas: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omegas.ndim != 1 or omegas.shape != values.shape:
            raise ValueError(f"{omegas.size} frequencies for {values.size} values")
        if omegas.size < 2:
            raise ValueError(f"{omegas.size} nodes; a table needs at least 2")
        if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(values))):
            raise ValueError("a value is not finite")
        if np.any(omegas < 0):
            raise ValueError("a frequency is negative; J is defined for omega >= 0")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("a frequency repeats or is out of order; "
                             "the nodes must be strictly increasing")

    def profile(self, omega):
        omega = np.asarray(omega, dtype=float)
        return np.interp(omega, self.omegas, self.values, left=0.0, right=0.0)


SpectralDensity = SubOhmicDensity | DrudeLorentzDensity | QDPhononDensity | TabulatedDensity


def load_tabulated(path) -> TabulatedDensity:
    """Read a two-column (omega, J) CSV into a tabulated density, sorted by
    omega; a file of another shape, or a table that TabulatedDensity
    refuses, is a ValueError."""
    with warnings.catch_warnings():
        # an empty file is refused below, with no warning ahead of the error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{data.shape[0]} rows of {data.shape[1]} columns; "
                         "expected at least 2 rows of 2 columns (omega, J)")
    order = np.argsort(data[:, 0])
    return TabulatedDensity(
        omegas=tuple(float(x) for x in data[order, 0]),
        values=tuple(float(x) for x in data[order, 1]),
    )


def spectral_density_eval(sd: SpectralDensity, omega):
    """Evaluate J(omega); frequencies must be non-negative."""
    arr = np.asarray(omega, dtype=float)
    if np.any(arr < 0):
        raise NegativeFrequency("spectral densities are defined for omega >= 0")
    out = sd.profile(arr)
    return float(out) if np.isscalar(omega) or arr.ndim == 0 else out


#: spectral-density support cutoff, relative to the peak of J
SUPPORT_FLOOR = 1e-12


@lru_cache(maxsize=None)
def _support_info(sd: SpectralDensity, floor: float) -> tuple[float, float]:
    """(peak frequency, upper integration limit) of a spectral density.

    The limit is where J has fallen below ``floor`` times its peak, doubled;
    both are 0.0 for an identically vanishing density.
    """
    if isinstance(sd, TabulatedDensity):
        if not any(v != 0.0 for v in sd.values):
            return 0.0, 0.0
        peak_at = sd.omegas[int(np.argmax(np.abs(sd.values)))]
        return float(peak_at), 2.0 * max(sd.omegas)
    grid = np.concatenate([[0.0], np.logspace(-8.0, 16.0, 4801)])
    j = sd.profile(grid)
    peak = float(np.max(j))
    if peak <= 0.0:
        return 0.0, 0.0
    i_peak = int(np.argmax(j))
    below = np.nonzero(j[i_peak:] < floor * peak)[0]
    wmax = grid[-1] if below.size == 0 else float(grid[i_peak + below[0]])
    return float(grid[i_peak]), 2.0 * wmax


def support_cutoff(sd: SpectralDensity) -> float:
    """Upper integration limit: where J falls below ``SUPPORT_FLOOR`` times
    its peak, doubled. Returns 0.0 for an identically vanishing density."""
    return _support_info(sd, SUPPORT_FLOOR)[1]


def _segments(sd: SpectralDensity) -> np.ndarray:
    """Decade breakpoints anchored at the spectral-density peak, plus the
    nodes of a tabulated density.

    Adaptive rules sample too coarsely when the support occupies a tiny
    fraction of the integration interval (slowly decaying tails push the
    cutoff out by many orders of magnitude); integrating decade by decade
    keeps the peak resolved. A tabulated density is linear between its
    nodes, so with the nodes as breakpoints no kink lies inside a segment.
    """
    w_peak, w_max = _support_info(sd, SUPPORT_FLOOR)
    if w_max == 0.0:
        return np.array([0.0])
    lo = max(w_peak, w_max * 1e-15) * 1e-2
    points = [0.0]
    edge = lo
    while edge < w_max:
        points.append(edge)
        edge *= 10.0
    points.append(w_max)
    if isinstance(sd, TabulatedDensity):
        points.extend(w for w in sd.omegas if 0.0 < w < w_max)
    # sorted(set()) rather than np.unique, which imports numpy.ma on first use
    return np.array(sorted(set(points)))


# ---------------------------------------------------------------------------
# system and embedding specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SystemSpec:
    """System Hamiltonian, coupling operator, and bath temperature."""

    h_s: np.ndarray = field(repr=False)
    coupling_op: np.ndarray = field(repr=False)
    temperature: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h_s, dtype=complex)
        o = np.asarray(self.coupling_op, dtype=complex)
        if h.shape != o.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h_s and coupling_op must be square and equal-shaped")
        if not is_hermitian(h) or not is_hermitian(o):
            raise ValueError("h_s and coupling_op must be Hermitian to 1e-12")
        if not 0 <= self.temperature < np.inf:
            raise ValueError(f"temperature = {self.temperature} must be finite and non-negative")
        h.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "h_s", h)
        object.__setattr__(self, "coupling_op", o)

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]


@dataclass(frozen=True, eq=False)
class Embedding:
    """A linear generator on N extended entries, with ``embed`` (N x D^2)
    taking vec(rho_S) in and ``project`` (D^2 x N) reading it back out; the
    semigroup source is N = D^2, with embed = project = identity."""

    generator: np.ndarray = field(repr=False)
    embed: np.ndarray = field(repr=False)
    project: np.ndarray = field(repr=False)


#: largest allowed extended dimension D * (n_max + 1)
MAX_EXTENDED_DIM = 64


def build_embedding(system: SystemSpec, mode_frequency: float, coupling: float,
                    decay: float, n_max: int) -> Embedding:
    """System plus one damped bosonic mode, H = H_S + W b'b + g (b' + b) O
    with a single dissipator sqrt(kappa) b, on Fock states 0..n_max.

    The embed map sends vec(rho_S) to vec(rho_S (x) |0><0|); the project map
    is the partial trace over the mode. Extended dimensions above
    ``MAX_EXTENDED_DIM`` are refused.
    """
    d = system.dim
    m = n_max + 1
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dext = d * m
    if dext > MAX_EXTENDED_DIM:
        raise TruncationGuard(
            f"extended dimension {dext} exceeds the desk-scale limit {MAX_EXTENDED_DIM}"
        )
    lower = np.diag(np.sqrt(np.arange(1, m, dtype=float)), 1).astype(complex)
    number = lower.conj().T @ lower
    eye_d = np.eye(d, dtype=complex)
    eye_m = np.eye(m, dtype=complex)
    h_ext = (
        np.kron(system.h_s, eye_m)
        + mode_frequency * np.kron(eye_d, number)
        + coupling * np.kron(system.coupling_op, lower + lower.conj().T)
    )
    mode_op = np.kron(eye_d, lower)
    gen = hamiltonian_superop(h_ext) + decay * dissipator_superop(mode_op)

    embed = np.zeros((dext * dext, d * d), dtype=complex)
    project = np.zeros((d * d, dext * dext), dtype=complex)
    for i in range(d):
        for j in range(d):
            embed[(j * m) * dext + i * m, j * d + i] = 1.0
            for mm in range(m):
                project[j * d + i, (j * m + mm) * dext + (i * m + mm)] = 1.0
    return Embedding(generator=gen, embed=embed, project=project)


def stationary_state(embedding: Embedding) -> np.ndarray:
    """Reduced system state in the kernel of the extended generator: the
    projected kernel vector over its trace, which projecting keeps."""
    evals, evecs = np.linalg.eig(embedding.generator)
    reduced = devectorize(embedding.project @ evecs[:, int(np.argmax(evals.real))])
    return reduced / np.trace(reduced)
