"""Map generators: exact damped-mode embedding and an iterative
influence-functional path-integral propagator for spin-boson baths.

Both produce a :class:`~dynamap.maps.DynamicalMapSeries` by propagating a
complete operator basis, so the output feeds directly into the transfer-tensor
and time-local extrapolation machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    MemoryBudgetExceeded,
    NonDiagonalizableCoupling,
    QuadratureFailure,
)
from .maps import DynamicalMapSeries, expm, is_hermitian
from .models import (
    Embedding,
    EmbeddingSpec,
    SpectralDensity,
    SystemSpec,
    _segments,
    bath_correlation,
    build_embedding,
)
from .numerics import DEFAULT_NUMERICS, NumericsConfig

__all__ = [
    "InfluenceCoefficients",
    "embedding_propagate",
    "extended_spectrum",
    "embedding_state",
    "eta_coefficients",
    "quapi_propagate",
]


# ---------------------------------------------------------------------------
# damped-mode embedding
# ---------------------------------------------------------------------------

def embedding_propagate(
    spec: EmbeddingSpec | Embedding,
    dt: float,
    n_steps: int,
) -> DynamicalMapSeries:
    """Reduced maps E(t_n, 0) from the extended generator.

    The single-step extended propagator is exponentiated once and powered;
    the mode starts in its vacuum state and is traced out per step. Exact to
    matrix-exponential precision.
    """
    emb = spec if isinstance(spec, Embedding) else build_embedding(spec)
    step = expm(emb.generator, dt)
    x = emb.embed
    d2 = emb.system_dim**2
    out = np.empty((n_steps, d2, d2), dtype=complex)
    for n in range(n_steps):
        x = step @ x
        out[n] = emb.project @ x
    return DynamicalMapSeries(dt=dt, t0=0.0, maps=out)


def extended_spectrum(emb: Embedding) -> np.ndarray:
    """Eigenvalues of the extended generator (decay rates and frequencies)."""
    return np.linalg.eigvals(emb.generator)


def embedding_state(emb: Embedding, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact reduced state at an arbitrary time, without grid powering."""
    vec = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    ext = expm(emb.generator, t) @ (emb.embed @ vec)
    red = emb.project @ ext
    d = emb.system_dim
    return red.reshape((d, d), order="F")


# ---------------------------------------------------------------------------
# influence coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfluenceCoefficients:
    """Discretized bath influence: eta[k] couples path windows k steps apart.

    eta[0] is the double integral of C(t' - t'') over the ordered half of one
    step window; eta[k] integrates C over a pair of windows at lag k. Both
    are one frequency integral each (see :func:`eta_coefficients`).
    """

    dt: float
    kmax: int
    eta: np.ndarray = field(repr=False)

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=complex).copy()
        if eta.shape != (self.kmax + 1,):
            raise ValueError(f"expected {self.kmax + 1} coefficients, got {eta.shape}")
        eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)


#: segments with b (k+1) dt below this phase are integrated whole for eta_k;
#: above it the window factor is split into cos/sin-weighted pieces
_SPLIT_PHASE = 20.0


def eta_coefficients(
    sd: SpectralDensity,
    temperature: float,
    dt: float,
    kmax: int,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> InfluenceCoefficients:
    """Window integrals of the bath correlation function, one frequency
    integral per coefficient.

    The windows are eta_0 = int_0^dt (dt - u) C(u) du and, for k >= 1,
    eta_k = int_{-dt}^{dt} (dt - |u|) C(k dt + u) du. Doing the window
    integral first leaves one integral over the spectral density (Makri &
    Makarov, J. Chem. Phys. 102, 4600 (1995)):

        eta_0 = int J/w^2 [coth(w/2T) 2 sin^2(w dt/2) + i (sin w dt - w dt)] dw
        eta_k = int J 4 sin^2(w dt/2)/w^2 [coth(w/2T) cos k w dt - i sin k w dt] dw

    that is eta_0 = g(dt) for the lineshape function g, and eta_k is the
    second difference of g at k dt taken inside the integrand. The integral
    runs over the decade segments of the bath correlation. On a segment
    [a, b] with b (k+1) dt < 20 the integrand is integrated whole. Above
    that, 4 sin^2(x/2) cos kx = 2 cos kx - cos (k+1)x - cos (k-1)x (and the
    same for sin) turns it into cos/sin-weighted quadratures of J coth/w^2
    and J/w^2 at lags (k-1) dt, k dt and (k+1) dt, shared between
    neighbouring k; eta_0 there takes dt int J/w as its linear term.

    Error rule: for each coefficient the summed error estimates of its
    quadratures must stay below max(eta_rtol |eta_k|, 1e-10 |C(0)| dt^2,
    1e-13); otherwise :class:`~dynamap.errors.QuadratureFailure` is raised.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    eta = np.zeros(kmax + 1, dtype=complex)
    breaks = _segments(sd, numerics)
    if breaks.size < 2:
        return InfluenceCoefficients(dt=dt, kmax=kmax, eta=eta)
    rtol = numerics.eta_rtol
    floor = max(1e-10 * abs(bath_correlation(sd, temperature, 0.0, numerics)) * dt**2, 1e-13)
    # each coefficient sums a few quadratures per segment, and the split
    # pieces cancel against each other, so every quadrature aims well below
    # the coefficient's tolerance
    epsabs = 0.1 * floor / breaks.size
    epsrel = 1e-5 * rtol

    def sym(w):
        j = float(sd.profile(w))
        return j / math.tanh(w / (2.0 * temperature)) if temperature > 0 else j

    def odd(w):
        return float(sd.profile(w))

    from scipy.integrate import quad

    def integrate(f, a, b, **weight):
        val, err, *_ = quad(
            f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1, **weight
        )
        return val, err

    @cache
    def piece(part, m, a, b):
        """(int_a^b F(w)/w^2 trig(m dt w) dw, error) with (F, trig) = (sym,
        cos) or (odd, sin)."""
        if part == "sin" and m == 0:
            return 0.0, 0.0
        f = sym if part == "cos" else odd
        weight = {"weight": part, "wvar": m * dt} if m else {}
        return integrate(lambda w: f(w) / (w * w), a, b, **weight)

    def window(w):
        return (2.0 * math.sin(0.5 * w * dt) / w) ** 2

    for k in range(kmax + 1):
        total = 0.0j
        err = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b * (k + 1) * dt < _SPLIT_PHASE:
                if k == 0:
                    re, re_err = integrate(lambda w: 0.5 * sym(w) * window(w), a, b)
                    im, im_err = integrate(
                        lambda w: odd(w) * (math.sin(w * dt) - w * dt) / (w * w), a, b
                    )
                else:
                    re, re_err = integrate(
                        lambda w: sym(w) * window(w) * math.cos(k * w * dt), a, b
                    )
                    im, im_err = integrate(
                        lambda w: -odd(w) * window(w) * math.sin(k * w * dt), a, b
                    )
                total += complex(re, im)
                err += re_err + im_err
            elif k == 0:
                (c0, c0_err), (c1, c1_err), (s1, s1_err) = (
                    piece("cos", 0, a, b), piece("cos", 1, a, b), piece("sin", 1, a, b)
                )
                lin, lin_err = integrate(lambda w: odd(w) / w, a, b)
                total += complex(c0 - c1, s1 - dt * lin)
                err += c0_err + c1_err + s1_err + dt * lin_err
            else:
                for part, unit in (("cos", 1.0), ("sin", -1.0j)):
                    (lo, lo_err), (mid, mid_err), (hi, hi_err) = (
                        piece(part, m, a, b) for m in (k - 1, k, k + 1)
                    )
                    total += unit * (2.0 * mid - lo - hi)
                    err += 2.0 * mid_err + lo_err + hi_err
        if err > max(rtol * abs(total), floor):
            raise QuadratureFailure(err)
        eta[k] = total
    return InfluenceCoefficients(dt=dt, kmax=kmax, eta=eta)


# ---------------------------------------------------------------------------
# iterative path-integral propagation
# ---------------------------------------------------------------------------

def quapi_propagate(
    system: SystemSpec,
    coeffs: InfluenceCoefficients,
    n_steps: int,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> DynamicalMapSeries:
    """Dynamical maps from iterative path summation with finite memory.

    Works in the eigenbasis of the coupling operator; the system propagator is
    split symmetrically around the influence insertions, and path variables
    further apart than ``coeffs.kmax`` steps are decoupled. All D^2 initial
    basis operators propagate together as one batch through a path tensor
    over the last ``kmax`` path variables; once that window is full, each
    step is one contraction against influence tables built once per call
    (:func:`_propagate_dense`). The memory guard compares the bytes held at
    once (:func:`_dense_peak_bytes`; about 16 (D^2)^(kmax+1) (2 + D^2/(D^2 -
    1)) for deep memories) with ``numerics.memory_budget``.

    When the system Hamiltonian commutes with the coupling operator the path
    variables never mix, the sum collapses onto constant paths, and an exact
    reduced recursion with O(N) memory is used instead of the dense tensor; in
    that regime arbitrarily long memories are affordable.
    """
    h = system.h_s
    o = system.coupling_op
    if not is_hermitian(o):
        raise NonDiagonalizableCoupling("coupling operator must be Hermitian")
    d = system.dim
    d2 = d * d
    kmax = coeffs.kmax
    dt = coeffs.dt
    eta = coeffs.eta

    svals, v = np.linalg.eigh(o)
    h_eig = v.conj().T @ h @ v

    # path index z = j*d + i matches column-stacked vec(rho): forward value
    # s_plus = svals[i], backward value s_minus = svals[j]
    i_idx = np.arange(d2) % d
    j_idx = np.arange(d2) // d
    s_plus = svals[i_idx]
    s_minus = svals[j_idx]
    blip = s_plus - s_minus

    # influence phases: the new window picks up self_phi plus one lag term
    # per earlier window, phi_k[z_new, z_old]
    weights = [eta[k] * s_plus - np.conj(eta[k]) * s_minus for k in range(kmax + 1)]
    self_phi = blip * weights[0]
    lag_phi = [None] + [np.outer(blip, weights[k]) for k in range(1, kmax + 1)]

    off_diag = h_eig - np.diag(np.diag(h_eig))
    h_scale = 1.0 + float(np.linalg.norm(h_eig))
    if float(np.max(np.abs(off_diag))) <= 1e-13 * h_scale:
        maps_eig = _propagate_commuting(np.diag(h_eig).real, dt, n_steps, kmax,
                                        self_phi, lag_phi, d2)
    else:
        maps_eig = _propagate_dense(h_eig, dt, n_steps, kmax, self_phi,
                                    lag_phi, d2, numerics)

    basis_change = np.kron(v.T, v.conj().T)  # vec_orig -> vec_eig, unitary
    out = np.einsum("ab,nbc,cd->nad", basis_change.conj().T, maps_eig, basis_change)
    return DynamicalMapSeries(dt=dt, t0=0.0, maps=out)


def _propagate_commuting(energies, dt, n_steps, kmax, self_phi, lag_phi, d2):
    """Constant-path recursion for [H_S, O] = 0; exact and O(N * D^2)."""
    i_idx = np.arange(d2) % len(energies)
    j_idx = np.arange(d2) // len(energies)
    phase = np.exp(-1j * (energies[i_idx] - energies[j_idx]) * dt)
    lag_diag = [None] + [lag_phi[k].diagonal() for k in range(1, kmax + 1)]

    maps = np.empty((n_steps, d2, d2), dtype=complex)
    total_phi = np.zeros(d2, dtype=complex)
    lag_cumulative = np.zeros(d2, dtype=complex)
    for n in range(1, n_steps + 1):
        if 2 <= n and n - 1 <= kmax:
            lag_cumulative = lag_cumulative + lag_diag[n - 1]
        total_phi = total_phi + self_phi + lag_cumulative
        maps[n - 1] = np.diag(phase**n * np.exp(-total_phi))
    return maps


def _dense_peak_bytes(d2: int, kmax: int, n_steps: int) -> int:
    """Upper bound on the bytes :func:`quapi_propagate` holds at once on the
    dense path, counted in complex128 entries:

    - the path tensor and the contraction that replaces it, D^2 (D^2)^kmax
      each once the window is full;
    - the influence tables, sum_{h=1..kmax} (D^2)^(h+1);
    - numpy's buffered loops (the fill multiply, the contraction, the
      long-double readout), at most two buffers of min(D^2 (D^2)^kmax,
      ``np.getbufsize()``) entries;
    - the map series in the coupling eigenbasis, in the original basis and
      the series' own copy, n_steps D^4 each;
    - 32 D^4 for the propagators, lag phases and other setup arrays.
    """
    tensor = d2 ** (kmax + 1)
    tables = sum(d2 ** (h + 1) for h in range(1, kmax + 1))
    buffers = 2 * min(tensor, np.getbufsize())
    return 16 * (2 * tensor + tables + buffers + (3 * n_steps + 32) * d2 * d2)


def _propagate_dense(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2, numerics):
    """Path-tensor recursion over the last ``kmax`` path variables with a
    step-independent influence kernel.

    ``influence[h]`` holds, for the new path variable and the h before it,
    the system step, the new point's self term and every lag coupling
    between them; none of it depends on the step. influence[1] is the step
    kernel (z_n, z_new), and influence[h] is influence[h-1] times the lag-h
    factor exp(-lag_phi[h]) on its (oldest, new) axes. While the window
    fills, each step is one multiply by influence[hist]; once it holds
    ``kmax`` variables, each step contracts the oldest one against
    influence[kmax], and no array over all kmax + 1 variables is formed.
    """
    peak_bytes = _dense_peak_bytes(d2, kmax, n_steps)
    if peak_bytes > numerics.memory_budget:
        raise MemoryBudgetExceeded(
            f"path tensor, influence tables and maps of {peak_bytes:.3e} bytes "
            f"exceed the budget {numerics.memory_budget:.3e}"
        )
    self_factor = np.exp(-self_phi)
    u_half = expm(-1j * h_eig, dt / 2.0)
    k_half = np.kron(u_half.conj(), u_half)
    u_full = u_half @ u_half
    k_full = np.kron(u_full.conj(), u_full)
    # fold the new point's self term and the lag-1 coupling into the step;
    # C order everywhere, so that the tables inherit it and reshape to the
    # contraction operand without a copy
    step_kernel = k_full * np.exp(-lag_phi[1]) * self_factor[:, None]
    influence = [None, np.ascontiguousarray(step_kernel.T)]  # (z_n, z_new)
    for h in range(2, kmax + 1):
        lag = np.ascontiguousarray(np.exp(-lag_phi[h]).T)  # (z_old, z_new)
        lag = lag.reshape((d2,) + (1,) * (h - 1) + (d2,))
        influence.append(influence[h - 1][None, ...] * lag)
    full = influence[kmax].reshape(d2, -1, d2)  # (oldest, middle, new)

    maps = np.empty((n_steps, d2, d2), dtype=complex)
    # batch axis first: tensor[b, z_hist..., z_latest]
    tensor = np.ascontiguousarray(k_half.T) * self_factor[None, :]
    maps[0] = _readout(tensor, k_half)
    for n in range(2, n_steps + 1):
        hist = tensor.ndim - 1
        if hist < kmax:
            tensor = tensor[..., None] * influence[hist]
        else:
            tensor = np.einsum(
                "bom,omn->bmn", tensor.reshape(d2, d2, -1), full
            ).reshape(tensor.shape)
        maps[n - 1] = _readout(tensor, k_half)
    return maps


def _readout(tensor, k_half):
    """Map from the path tensor: k_half applied to the sum over all history
    variables, accumulated in extended precision and rounded once.

    Each map is read out on its own, so its rounding is uncorrelated with
    that of its neighbours and passes undamped into the single-step maps
    E(t_{n+1}, t_0) E(t_n, t_0)^{-1}. A double-precision sum over the
    (D^2)^hist history terms followed by a double product leaves several
    units in the last place; where ``np.longdouble`` is no wider than double
    this reduces to that plain sum.
    """
    history = tensor.reshape(tensor.shape[0], -1, tensor.shape[-1])
    total = history.sum(axis=1, dtype=np.clongdouble)
    return (k_half.astype(np.clongdouble) @ total.T).astype(complex)
