"""Physical model definitions: spin-boson systems, spectral densities,
bath correlation functions, and damped-mode embeddings.

All frequencies and rates are in the model's base inverse-time unit and
hbar = 1; temperatures are energies in the same unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import NegativeFrequency, QuadratureFailure, TruncationGuard, UnknownModel
from .maps import (
    PAULI_X,
    PAULI_Z,
    dissipator_superop,
    hamiltonian_superop,
    is_hermitian,
)
from .numerics import DEFAULT_NUMERICS, NumericsConfig

__all__ = [
    "SubOhmicDensity",
    "DrudeLorentzDensity",
    "QDPhononDensity",
    "TabulatedDensity",
    "SpectralDensity",
    "SystemSpec",
    "EmbeddingSpec",
    "Embedding",
    "ModelGrid",
    "spectral_density_eval",
    "support_cutoff",
    "bath_correlation",
    "build_embedding",
    "stationary_state",
    "builtin_model",
    "load_tabulated",
    "BUILTIN_MODELS",
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
    kind: str = field(default="subohmic", init=False)

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
    kind: str = field(default="drude_lorentz", init=False)

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
    kind: str = field(default="qd_phonon", init=False)

    def profile(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega**3 * (
            self.c_e * np.exp(-(omega**2) / self.omega_e**2)
            - self.c_h * np.exp(-(omega**2) / self.omega_h**2)
        )


@dataclass(frozen=True)
class TabulatedDensity:
    """Linear interpolation of (omega, J) samples; zero outside the table."""

    omegas: tuple[float, ...]
    values: tuple[float, ...]
    kind: str = field(default="custom_table", init=False)

    def profile(self, omega):
        omega = np.asarray(omega, dtype=float)
        return np.interp(omega, self.omegas, self.values, left=0.0, right=0.0)


SpectralDensity = SubOhmicDensity | DrudeLorentzDensity | QDPhononDensity | TabulatedDensity


def load_tabulated(path) -> TabulatedDensity:
    """Read a two-column (omega, J) CSV into a tabulated density."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
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


def support_cutoff(sd: SpectralDensity, floor: float = DEFAULT_NUMERICS.support_floor) -> float:
    """Upper integration limit: where J has fallen below ``floor`` times its
    peak, then doubled. Returns 0.0 for an identically vanishing density."""
    return _support_info(sd, floor)[1]


@lru_cache(maxsize=None)
def _correlation_scale(sd: SpectralDensity) -> float:
    """Rough magnitude of C(0), used to set absolute quadrature floors."""
    wmax = support_cutoff(sd)
    if wmax == 0.0:
        return 0.0
    grid = np.linspace(0.0, wmax, 20001)
    return float(np.trapezoid(sd.profile(grid), grid))


def _segments(sd: SpectralDensity, numerics: NumericsConfig) -> np.ndarray:
    """Decade breakpoints anchored at the spectral-density peak.

    Adaptive rules sample too coarsely when the support occupies a tiny
    fraction of the integration interval (slowly decaying tails push the
    cutoff out by many orders of magnitude); integrating decade by decade
    keeps the peak resolved.
    """
    w_peak, w_max = _support_info(sd, numerics.support_floor)
    if w_max == 0.0:
        return np.array([0.0])
    lo = max(w_peak, w_max * 1e-15) * 1e-2
    points = [0.0]
    edge = lo
    while edge < w_max:
        points.append(edge)
        edge *= 10.0
    points.append(w_max)
    return np.array(points)


def _segmented_quad(f, breakpoints, rtol, scale, **kwargs):
    """Sum of adaptive quadratures over consecutive breakpoint intervals."""
    total = 0.0
    total_err = 0.0
    epsabs = max(1e-14, 1e-11 * scale)
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err, *_ = quad(
            f, a, b, epsabs=epsabs, epsrel=rtol, limit=300, full_output=1, **kwargs
        )
        total += val
        total_err += err
    if total_err > max(3.0 * rtol * abs(total), 30.0 * epsabs * len(breakpoints)):
        raise QuadratureFailure(total_err)
    return total


def bath_correlation(
    sd: SpectralDensity,
    temperature: float,
    t: float,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> complex:
    """C(t) = int_0^inf dw J(w) [coth(w/2T) cos(wt) - i sin(wt)], t >= 0.

    At T = 0 the coth factor is 1. The imaginary part never depends on the
    temperature. Integration runs up to the support cutoff of J, decade by
    decade, with the oscillatory weight handled by dedicated quadrature rules.
    """
    if t < 0:
        raise ValueError("bath correlations are evaluated for t >= 0")
    breaks = _segments(sd, numerics)
    if breaks.size < 2:
        return 0.0 + 0.0j
    scale = _correlation_scale(sd)
    rtol = numerics.quad_rtol

    if temperature > 0:
        def sym_part(w):
            return float(sd.profile(w)) / np.tanh(w / (2.0 * temperature))
    else:
        def sym_part(w):
            return float(sd.profile(w))

    def plain(w):
        return float(sd.profile(w))

    if t == 0.0:
        re = _segmented_quad(sym_part, breaks, rtol, scale)
        return complex(re, 0.0)
    re = _segmented_quad(sym_part, breaks, rtol, scale, weight="cos", wvar=t)
    im = -_segmented_quad(plain, breaks, rtol, scale, weight="sin", wvar=t)
    return complex(re, im)


# ---------------------------------------------------------------------------
# system and embedding specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        h.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "h_s", h)
        object.__setattr__(self, "coupling_op", o)

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]


@dataclass(frozen=True)
class EmbeddingSpec:
    """System plus one damped bosonic mode: H = H_S + W b'b + g (b' + b) O,
    with a single dissipator sqrt(kappa) b on the truncated Fock space."""

    system: SystemSpec
    mode_frequency: float
    coupling: float
    decay: float
    n_max: int


@dataclass(frozen=True)
class Embedding:
    """Extended generator plus the embed / partial-trace maps over the mode;
    ``mode_dim = 1`` is the semigroup source, with embed = project = identity."""

    generator: np.ndarray = field(repr=False)
    embed: np.ndarray = field(repr=False)
    project: np.ndarray = field(repr=False)
    system_dim: int
    mode_dim: int


#: largest allowed extended dimension D * (n_max + 1)
MAX_EXTENDED_DIM = 64


def build_embedding(spec: EmbeddingSpec) -> Embedding:
    """Assemble the extended Liouvillian and the vacuum-mode embed/trace maps.

    The embed map sends vec(rho_S) to vec(rho_S (x) |0><0|); the project map
    is the partial trace over the mode. Extended dimensions above
    ``MAX_EXTENDED_DIM`` are refused.
    """
    d = spec.system.dim
    m = spec.n_max + 1
    if spec.n_max < 1:
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
        np.kron(spec.system.h_s, eye_m)
        + spec.mode_frequency * np.kron(eye_d, number)
        + spec.coupling * np.kron(spec.system.coupling_op, lower + lower.conj().T)
    )
    mode_op = np.kron(eye_d, lower)
    gen = hamiltonian_superop(h_ext) + spec.decay * dissipator_superop(mode_op)

    embed = np.zeros((dext * dext, d * d), dtype=complex)
    project = np.zeros((d * d, dext * dext), dtype=complex)
    for i in range(d):
        for j in range(d):
            embed[(j * m) * dext + i * m, j * d + i] = 1.0
            for mm in range(m):
                project[j * d + i, (j * m + mm) * dext + (i * m + mm)] = 1.0
    return Embedding(generator=gen, embed=embed, project=project, system_dim=d, mode_dim=m)


def stationary_state(embedding: Embedding) -> np.ndarray:
    """Reduced system state in the kernel of the extended generator."""
    evals, evecs = np.linalg.eig(embedding.generator)
    idx = int(np.argmax(evals.real))
    vec = evecs[:, idx]
    dext = embedding.system_dim * embedding.mode_dim
    rho_ext = vec.reshape((dext, dext), order="F")
    rho_ext = rho_ext / np.trace(rho_ext)
    reduced = embedding.project @ rho_ext.reshape(-1, order="F")
    d = embedding.system_dim
    return reduced.reshape((d, d), order="F")


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelGrid:
    """Default time step and long-time reference point of a built-in model."""

    dt: float
    t_ref: float

    @property
    def n_ref(self) -> int:
        return int(round(self.t_ref / self.dt))


BUILTIN_MODELS = ("subohmic", "drude_lorentz", "qd_phonon")


def builtin_model(name: str) -> tuple[SystemSpec, SpectralDensity, ModelGrid]:
    """The three stock spin-boson configurations used by the examples.

    * ``subohmic``: driven two-level system, H_S = 0.5 sigma_x, coupling
      sigma_z/2, J sub-ohmic with s = 0.7, alpha = 0.2, wc = 5, T = 0.
    * ``drude_lorentz``: biased and driven, H_S = 0.5 (-sigma_z + sigma_x),
      J Drude-Lorentz with lam = 0.1, gamma = 1.
    * ``qd_phonon``: same driving pattern (units of 1/ps), super-ohmic
      acoustic-phonon density of a 4 nm GaAs quantum dot.
    """
    if name == "subohmic":
        system = SystemSpec(h_s=0.5 * PAULI_X, coupling_op=0.5 * PAULI_Z, temperature=0.0)
        density = SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0)
        grid = ModelGrid(dt=0.08, t_ref=80.0)
    elif name == "drude_lorentz":
        system = SystemSpec(
            h_s=0.5 * (-1.0 * PAULI_Z + 1.0 * PAULI_X),
            coupling_op=0.5 * PAULI_Z,
            temperature=0.0,
        )
        density = DrudeLorentzDensity(lam=0.1, gamma=1.0)
        grid = ModelGrid(dt=0.05, t_ref=100.0)
    elif name == "qd_phonon":
        system = SystemSpec(
            h_s=0.5 * (-1.0 * PAULI_Z + 1.0 * PAULI_X),
            coupling_op=0.5 * PAULI_Z,
            temperature=0.0,
        )
        density = QDPhononDensity(c_e=0.1271, c_h=-0.0635, omega_e=2.555, omega_h=2.938)
        grid = ModelGrid(dt=0.05, t_ref=100.0)
    else:
        raise UnknownModel(f"no built-in model named {name!r}; choose from {BUILTIN_MODELS}")
    return system, density, grid
