"""Map generators: exact embeddings and an iterative
influence-functional path-integral propagator for spin-boson baths.

Both produce a :class:`~dynamap.maps.DynamicalMapSeries` by propagating a
complete operator basis, so the output feeds directly into the transfer-tensor
and time-local extrapolation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    MemoryBudgetExceeded,
    NonDiagonalizableCoupling,
    QuadratureFailure,
)
from .maps import DynamicalMapSeries, devectorize, expm, is_hermitian, vectorize
from .models import Embedding, SpectralDensity, SystemSpec, _segments

__all__ = [
    "InfluenceCoefficients",
    "embedding_propagate",
    "extended_spectrum",
    "embedding_state",
    "eta_coefficients",
    "quapi_propagate",
    "quapi_state",
]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def embedding_propagate(emb: Embedding, dt: float, n_steps: int) -> DynamicalMapSeries:
    """Reduced maps E(t_n, 0) = project expm(G t_n) embed.

    The single-step extended propagator is exponentiated once and powered;
    each step is read out by ``project``. Exact to matrix-exponential
    precision.
    """
    step = expm(emb.generator, dt)
    x = emb.embed
    d2 = x.shape[1]
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
    ext = expm(emb.generator, t) @ (emb.embed @ vectorize(rho0))
    return devectorize(emb.project @ ext)


# ---------------------------------------------------------------------------
# influence coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
#: above it the window factor is split into pieces against exp(i m dt w)
_SPLIT_PHASE = 20.0
#: degree N of the panel interpolant, taken at N + 1 Gauss-Legendre nodes
_ORDER = 24
#: Legendre moments up to this phase come from an 80-point Gauss-Legendre
#: rule; above it from the upward recurrence of the spherical Bessel
#: functions, which is stable while the order stays below the phase
_BESSEL_PHASE = 40.0
#: most panels one :func:`eta_coefficients` call may hold
_MAX_PANELS = 4000
#: relative error allowed to each eta_k
ETA_RTOL = 1e-7
#: relative error allowed to C(0), which sets the eta error floor
QUAD_RTOL = 1e-8


def eta_coefficients(
    sd: SpectralDensity,
    temperature: float,
    dt: float,
    kmax: int,
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
    same for sin) turns it into integrals of J coth/w^2 and J/w^2 against
    exp(i m dt w) at m = k-1, k, k+1, shared between neighbouring k; eta_0
    there takes dt int J/w as its linear term.

    Quadrature: all coefficients, and C(0) for the floor below, are
    integrated at once over the same panels, with J evaluated once per node
    for every lag. The panels start as the segments. On a panel of
    half-width h the non-oscillatory factor is interpolated at 25
    Gauss-Legendre nodes by a degree-24 Legendre series, which is
    integrated exactly against the panel's exp(i theta x), theta = m dt h
    (a Filon-type rule; Filon, Proc. R. Soc. Edinburgh 49, 38 (1928)). The
    moments int P_j(x) exp(i theta x) dx come from an 80-point
    Gauss-Legendre rule for theta <= 40 and are 2 i^j j_j(theta) above.
    The whole windowed integrands take theta = 0. A panel's error bound is
    2 h (|c_23| + |c_24|), from the two trailing Legendre coefficients,
    summed over the pieces of a coefficient with their weights.

    Refinement: each quantity aims at max(1e-5 rtol |value|, 0.1 floor),
    below the tolerance of the error rule, since the split pieces cancel
    against each other. While some summed bound is above its aim, every
    panel holding more than 1/(number of panels) of it is bisected. This
    stops when every aim is met, when it would exceed 4000 panels, or when
    a panel is too small to bisect.

    Error rule: for each coefficient the summed error bounds must then stay
    below max(ETA_RTOL |eta_k|, floor) with floor = max(1e-10 |C(0)| dt^2,
    1e-13), and below max(QUAD_RTOL |C(0)|, floor) for C(0); otherwise, or
    on a non-finite value, :class:`~dynamap.errors.QuadratureFailure` is
    raised.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    breaks = _segments(sd)
    if breaks.size < 2:
        return InfluenceCoefficients(dt=dt, kmax=kmax, eta=np.zeros(kmax + 1, dtype=complex))
    rtol = np.full(kmax + 2, ETA_RTOL)
    rtol[-1] = QUAD_RTOL
    panels = np.stack([breaks[:-1], breaks[1:], breaks[1:]], axis=1)  # lo, hi, segment top
    values, errors = _panel_integrals(sd, temperature, dt, kmax, panels)
    while True:
        total, err = values.sum(axis=0), errors.sum(axis=0)
        if not (np.all(np.isfinite(total)) and np.all(np.isfinite(err))):
            raise QuadratureFailure(np.inf, "eta quadrature is not finite")
        floor = max(1e-10 * abs(total[-1]) * dt**2, 1e-13)
        aim = np.maximum(1e-5 * rtol * np.abs(total), 0.1 * floor)
        over = err > aim
        split = np.any(errors[:, over] > aim[over] / len(panels), axis=1)
        halves = panels[split]
        mid = 0.5 * (halves[:, 0] + halves[:, 1])
        if (not split.any() or len(panels) + len(halves) > _MAX_PANELS
                or not np.all((halves[:, 0] < mid) & (mid < halves[:, 1]))):
            break
        left, right = halves.copy(), halves.copy()
        left[:, 1] = right[:, 0] = mid
        new_values, new_errors = _panel_integrals(
            sd, temperature, dt, kmax, np.concatenate([left, right])
        )
        panels = np.concatenate([panels[~split], left, right])
        values = np.concatenate([values[~split], new_values])
        errors = np.concatenate([errors[~split], new_errors])
    failed = err > np.maximum(rtol * np.abs(total), floor)
    if failed.any():
        raise QuadratureFailure(err[failed].max())
    return InfluenceCoefficients(dt=dt, kmax=kmax, eta=total[:-1])


@cache
def _filon_tables():
    """Panel nodes and weights, the map from node values to Legendre
    coefficients, and the 80-point rule's positive nodes with its even
    (cos) and odd (sin) moment matrices."""
    from numpy.polynomial.legendre import leggauss, legvander

    x, w = leggauss(_ORDER + 1)
    # exact: the (N+1)-point rule integrates P_i P_j for i, j <= N
    to_legendre = legvander(x, _ORDER) * w[:, None] * (np.arange(_ORDER + 1) + 0.5)
    y, v = leggauss(80)
    pos = y > 0
    moments = 2.0 * v[pos, None] * legvander(y[pos], _ORDER)
    even = np.arange(_ORDER + 1) % 2 == 0
    return x, w, to_legendre, y[pos], moments * even, moments * ~even


def _legendre_moments(theta):
    """M_j(theta) = int_{-1}^{1} P_j(x) exp(i theta x) dx for j <= _ORDER,
    shape theta.shape + (_ORDER + 1,), for theta >= 0."""
    *_, y, cos_moments, sin_moments = _filon_tables()
    out = np.empty(theta.shape + (_ORDER + 1,), dtype=complex)
    small = theta <= _BESSEL_PHASE
    phase = theta[small][:, None] * y
    out[small] = np.cos(phase) @ cos_moments + 1j * (np.sin(phase) @ sin_moments)
    t = theta[~small][:, None]
    bessel = np.empty((t.shape[0], _ORDER + 1))
    bessel[:, :1] = np.sin(t) / t
    bessel[:, 1:2] = (bessel[:, :1] - np.cos(t)) / t
    for n in range(1, _ORDER):
        bessel[:, n + 1] = (2 * n + 1) / t[:, 0] * bessel[:, n] - bessel[:, n - 1]
    out[~small] = 2.0 * bessel * np.array([1, 1j, -1, -1j])[np.arange(_ORDER + 1) % 4]
    return out


@np.errstate(all="ignore")  # overflow on vanishing panels ends as a non-finite total
def _panel_integrals(sd, temperature, dt, kmax, panels):
    """(values, error bounds) of every quantity over the panels, each of
    shape (panels, kmax + 2): column k holds eta_k and the last C(0). A
    panel row is (lo, hi, top), with top the upper edge of its segment,
    which decides whether eta_k integrates its windowed integrand whole or
    in pieces."""
    x, weights, to_legendre, *_ = _filon_tables()
    lo, hi, top = panels.T
    half = 0.5 * (hi - lo)
    center = 0.5 * (hi + lo)
    w = center[:, None] + half[:, None] * x
    odd = sd.profile(w)
    sym = odd / np.tanh(w / (2.0 * temperature)) if temperature > 0 else odd
    lags = np.arange(kmax + 2)
    whole = top[:, None] * (lags[:-1] + 1) * dt < _SPLIT_PHASE
    values = np.zeros((len(panels), kmax + 2), dtype=complex)
    errors = np.zeros((len(panels), kmax + 2))

    def bound(f, h):
        return 2.0 * h * np.abs(f @ to_legendre[:, -2:]).sum(axis=-1)

    values[:, -1] = half * (sym @ weights)
    errors[:, -1] = bound(sym, half)

    rows = whole[:, 0]  # panels where eta_0 at least is integrated whole
    if rows.any():
        wr, h, sr, jr = w[rows], half[rows, None], sym[rows], odd[rows]
        window = (2.0 * np.sin(0.5 * wr * dt) / wr) ** 2
        phase = lags[None, :-1, None] * dt * wr[:, None, :]
        f = window[:, None] * (sr[:, None] * np.cos(phase) - 1j * jr[:, None] * np.sin(phase))
        f[:, 0] = 0.5 * sr * window + 1j * jr * (np.sin(wr * dt) - wr * dt) / wr**2
        values[rows, :-1] = np.where(whole[rows], h * (f @ weights), 0.0)
        errors[rows, :-1] = np.where(whole[rows], bound(f, h), 0.0)

    rows = ~whole[:, -1]  # panels where eta_kmax at least is integrated in pieces
    if rows.any():
        wr, h, c = w[rows], half[rows], center[rows]
        # J coth/w^2 and J/w^2 against exp(i m dt w), and J/w for eta_0
        pieces = np.stack([sym[rows], odd[rows], odd[rows] * wr], axis=1) / (wr**2)[:, None]
        coeffs = pieces @ to_legendre
        moments = _legendre_moments(np.outer(h, lags * dt))
        shift = h[:, None] * np.exp(1j * np.outer(c, lags * dt))
        integrals = shift[:, None] * np.einsum("pfj,pmj->pfm", coeffs, moments)
        # cos pieces of J coth/w^2 minus i sin pieces of J/w^2; the m = 0 sin
        # piece is exactly 0
        g = integrals[:, 0].real - 1j * integrals[:, 1].imag
        split = np.empty((len(wr), kmax + 1), dtype=complex)
        split[:, 0] = g[:, 0] - g[:, 1] - 1j * dt * integrals[:, 2, 0].real
        split[:, 1:] = 2.0 * g[:, 1:-1] - g[:, :-2] - g[:, 2:]
        piece_bound = bound(pieces, h[:, None])
        split_bound = np.empty((len(wr), kmax + 1))
        split_bound[:, 0] = 2.0 * piece_bound[:, 0] + piece_bound[:, 1] + dt * piece_bound[:, 2]
        split_bound[:, 1:] = 4.0 * (piece_bound[:, :1] + piece_bound[:, 1:2])
        values[rows, :-1] += np.where(whole[rows], 0.0, split)
        errors[rows, :-1] += np.where(whole[rows], 0.0, split_bound)
    return values, errors


# ---------------------------------------------------------------------------
# iterative path-integral propagation
# ---------------------------------------------------------------------------

#: history rows per pass of :func:`_readout`, which bound its scratch
_READOUT_ROWS = 2048
#: bytes of full-window path tensor that one group of basis operators of
#: :func:`_propagate_dense` may fill. At D = 2 and one BLAS thread, 150
#: steps run 1.4-2.2x faster as one batch of four through kmax = 6, within
#: 5 % of one at a time at kmax = 7 (256 KiB per operator), and 0-18 %
#: slower than one at a time at kmax = 8 (1 MiB) and 9. The crossover was
#: timed at D = 2 only; at D = 3 and above it is unmeasured
_GROUP_BYTES = 1 << 20
#: bytes the dense recursion may hold at once (one group's path tensor and
#: its spare, influence tables, maps; see :func:`_dense_peak_bytes`); it
#: admits kmax <= 13 at D = 2 (3.6e9 bytes at kmax = 13, one basis operator
#: at a time) and kmax <= 8 at D = 3
MEMORY_BUDGET = 2.0**32


@np.errstate(all="ignore")  # overflowing phases end as maps the series refuses
def quapi_propagate(
    system: SystemSpec,
    coeffs: InfluenceCoefficients,
    n_steps: int,
) -> DynamicalMapSeries:
    """Dynamical maps from iterative path summation with finite memory.

    Works in the eigenbasis of the coupling operator; the system propagator
    is split symmetrically around the influence insertions (the half step
    exp(-i H dt/2) from ``np.linalg.eigh`` of the Hermitian H), and path
    variables further apart than ``coeffs.kmax`` steps are decoupled. The
    D^2 initial basis operators propagate in groups through a path tensor
    over the last ``kmax`` path variables: all together while one
    operator's full-window tensor is small, as many as fit 1 MiB of tensor
    (``_GROUP_BYTES``) beyond that, and one at a time from kmax = 8 at
    D = 2. Once the window is full, each step is one BLAS matmul of the
    oldest variable against its D^2 x D^2 lag factor, written into a spare
    tensor kept across steps, and one multiply by an influence table built
    once per call and shared by every group (:func:`_dense_path`). Every
    step is read out into the group's columns of the map by an exact split
    of the history sum in double, summed by BLAS, and one long-double
    product rounded once (:func:`_readout`). The recursion and the readout
    are linear in the batch and act on each operator alone, so the maps do
    not depend on the grouping, bit for bit. The memory guard compares the
    bytes held at once for one group (:func:`_dense_peak_bytes`; about
    16 (D^2)^kmax (2 + D^2/(D^2 - 1)) for deep memories) with
    ``MEMORY_BUDGET``.

    When the system Hamiltonian commutes with the coupling operator the path
    variables never mix, the sum collapses onto constant paths, and an exact
    reduced recursion with O(N) memory is used instead of the dense tensor; in
    that regime arbitrarily long memories are affordable.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    basis_change, h_eig, self_phi, lag_phi, commuting = _path_setup(system, coeffs)
    args = (coeffs.dt, n_steps, coeffs.kmax, self_phi, lag_phi, system.dim**2)
    if commuting:
        maps_eig = _propagate_commuting(np.diag(h_eig).real, *args)
    else:
        maps_eig = _propagate_dense(h_eig, *args)
    out = np.einsum("ab,nbc,cd->nad", basis_change.conj().T, maps_eig, basis_change)
    del maps_eig  # the series copies ``out``; hold two series, not three
    return DynamicalMapSeries(dt=coeffs.dt, t0=0.0, maps=out)


@np.errstate(all="ignore")  # overflow as in quapi_propagate, whose maps are refused
def quapi_state(
    system: SystemSpec,
    coeffs: InfluenceCoefficients,
    initial: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Reduced state after ``n_steps`` steps from ``initial``, the state
    E(t_n, 0) rho_0 of :func:`quapi_propagate` without its map series.

    The recursion is linear in its initial vectors, so it carries the
    single eigenbasis vector ``basis_change @ vec(rho_0)`` as a batch of
    one instead of the D^2 basis operators, through the same setup and the
    same recursion (:func:`_dense_path`), and reads out once, at the last
    step. The guard counts that batch and no map series. The commuting
    branch applies the last map of its constant-path recursion. On a
    coupling diagonal in the computational basis (the spin-boson presets)
    the result equals ``quapi_propagate(...).maps[n_steps - 1] @
    vec(rho_0)`` bit for bit; otherwise the basis change is applied in
    another order, which moves the last bits.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    basis_change, h_eig, self_phi, lag_phi, commuting = _path_setup(system, coeffs)
    d2 = system.dim**2
    args = (coeffs.dt, n_steps, coeffs.kmax, self_phi, lag_phi, d2)
    x = basis_change @ vectorize(initial)
    if commuting:
        vec = _propagate_commuting(np.diag(h_eig).real, *args)[-1] @ x
    else:
        _check_budget(_dense_peak_bytes(d2, coeffs.kmax, 0, batch=1))
        k_half, path = _dense_path(h_eig, *args)
        for tensor in path(x[None, :]):
            pass
        vec = _readout(tensor, k_half)[:, 0]
    return devectorize(basis_change.conj().T @ vec)


def _path_setup(system: SystemSpec, coeffs: InfluenceCoefficients):
    """(basis_change, h_eig, self_phi, lag_phi, commuting), shared by
    :func:`quapi_propagate` and :func:`quapi_state`: the unitary vec_orig ->
    vec_eig, H_S in the coupling eigenbasis, the influence phases, and
    whether H_S is diagonal there."""
    h = system.h_s
    o = system.coupling_op
    if not is_hermitian(o):
        raise NonDiagonalizableCoupling("coupling operator must be Hermitian")
    d = system.dim
    d2 = d * d
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
    weights = [eta[k] * s_plus - np.conj(eta[k]) * s_minus for k in range(coeffs.kmax + 1)]
    self_phi = blip * weights[0]
    lag_phi = [None] + [np.outer(blip, weights[k]) for k in range(1, coeffs.kmax + 1)]

    # the scale is the largest real or imaginary part: unlike a norm or a
    # modulus, it cannot overflow for finite entries
    parts = np.abs(np.stack([h_eig.real, h_eig.imag]))
    h_scale = 1.0 + float(parts.max())
    parts[:, np.arange(d), np.arange(d)] = 0.0
    commuting = float(parts.max()) <= 1e-13 * h_scale
    basis_change = np.kron(v.T, v.conj().T)  # vec_orig -> vec_eig, unitary
    return basis_change, h_eig, self_phi, lag_phi, commuting


def _propagate_commuting(energies, dt, n_steps, kmax, self_phi, lag_phi, d2):
    """Constant-path recursion for [H_S, O] = 0; exact and O(N * D^2). Step n
    (from 1) adds self_phi and the diagonals of lags 1..min(n - 1, kmax) to
    the phase, so the phases are two cumulative sums."""
    i_idx = np.arange(d2) % len(energies)
    j_idx = np.arange(d2) // len(energies)
    phase = np.exp(-1j * (energies[i_idx] - energies[j_idx]) * dt)
    lags = np.zeros((n_steps, d2), dtype=complex)
    for k in range(1, min(kmax, n_steps - 1) + 1):
        lags[k] = lag_phi[k].diagonal()
    total_phi = np.cumsum(self_phi + np.cumsum(lags, axis=0), axis=0)
    steps = np.arange(1, n_steps + 1)[:, None]
    maps = np.zeros((n_steps, d2, d2), dtype=complex)
    maps[:, np.arange(d2), np.arange(d2)] = phase**steps * np.exp(-total_phi)
    return maps


def _dense_peak_bytes(d2: int, kmax: int, n_steps: int, batch: int | None = None) -> int:
    """Upper bound on the bytes a dense path-integral call holds at once,
    for ``batch`` initial vectors in one pass of the recursion (by default
    one group of :func:`_propagate_dense`, :func:`_group_size`) and
    ``n_steps`` maps read out (0 for :func:`quapi_state`). In complex128
    entries:

    - the path tensor and the spare that the next full-window step writes
      into, batch (D^2)^kmax each (the matmul reads the tensor through a
      transposed view, without a copy); a group's tensors are freed before
      the next group starts;
    - the influence tables, sum_{h=1..kmax-1} (D^2)^(h+1), and the D^4
      oldest-lag factor, shared by every group;
    - numpy's buffered loop of the broadcast multiplies, one buffer of
      min(batch (D^2)^kmax, ``np.getbufsize()``) entries;
    - the map series in the original basis and the series' own copy,
      n_steps D^4 each;
    - 32 D^4 for the propagators, lag phases and other setup arrays;

    and in float64, for m = (D^2)^(kmax-1) history rows, the readout's
    scratch of 2 D^2 entries per row for min(batch m, ``_READOUT_ROWS``)
    rows and its ones vector of min(m, ``_READOUT_ROWS``).
    """
    batch = _group_size(d2, kmax) if batch is None else batch
    tensor = batch * d2**kmax
    tables = sum(d2 ** (h + 1) for h in range(1, kmax)) + d2 * d2
    buffer = min(tensor, np.getbufsize())
    history = d2 ** (kmax - 1)
    scratch = min(batch * history, _READOUT_ROWS) * 2 * d2 + min(history, _READOUT_ROWS)
    return 16 * (2 * tensor + tables + buffer + (2 * n_steps + 32) * d2 * d2) + 8 * scratch


def _group_size(d2: int, kmax: int) -> int:
    """Basis operators per pass of :func:`_propagate_dense`: as many as
    fit ``_GROUP_BYTES`` of full-window path tensor, at least one and at
    most all D^2."""
    return max(1, min(d2, _GROUP_BYTES // (16 * d2**kmax)))


def _check_budget(peak_bytes: int) -> None:
    if peak_bytes > MEMORY_BUDGET:
        raise MemoryBudgetExceeded(
            f"path tensor, influence tables and maps of {peak_bytes:.3e} bytes "
            f"exceed the budget {MEMORY_BUDGET:.3e}"
        )


def _propagate_dense(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2):
    """Map series of the dense recursion: the D^2 basis operators run
    through :func:`_dense_path` in groups of :func:`_group_size`, one group
    after the other, and every path tensor of a group is read out into its
    columns of the maps."""
    _check_budget(_dense_peak_bytes(d2, kmax, n_steps))
    k_half, path = _dense_path(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2)
    maps = np.empty((n_steps, d2, d2), dtype=complex)
    basis = np.eye(d2, dtype=complex)
    group = _group_size(d2, kmax)
    for g in range(0, d2, group):
        cols = slice(g, g + group)
        for n, tensor in enumerate(path(basis[cols])):
            maps[n, :, cols] = _readout(tensor, k_half)
    return maps


def _dense_path(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2):
    """Half-step kernel ``k_half`` and the recursion ``path``: ``path(batch)``
    iterates over the path tensor after steps 1..n_steps for the initial
    eigenbasis vectors in the rows of ``batch``. The tensor is
    tensor[b, z_hist..., z_latest]; :func:`_readout` turns it into E(t_n, 0)
    applied to the batch. The recursion is linear in the batch axis, and
    every step acts on each row alone (the full-window matmul is one BLAS
    product per row). The influence tables are built once, here, and shared
    by every call of ``path``.

    ``influence[h]`` holds, for the new path variable and the h before it,
    the system step, the new point's self term and every lag coupling
    between them; none of it depends on the step. influence[1] is the step
    kernel (z_n, z_new), and influence[h] is influence[h-1] times the lag-h
    factor exp(-lag_phi[h]) on its (oldest, new) axes. While the window
    fills, each step is one multiply by influence[hist]. Once it holds
    ``kmax`` variables, the step would contract the oldest one against
    influence[kmax]; that table factorizes into the lag-kmax factor on
    (oldest, new) times influence[kmax-1] on (middle, new), so the step is
    one BLAS matmul of the tensor's (b, middle, oldest) view against the
    D^2 x D^2 lag factor, then one in-place multiply by influence[kmax-1]
    (at kmax = 1, a matmul against the step kernel alone). Neither
    influence[kmax] nor any array over all kmax + 1 variables is formed.
    The matmul writes into a spare tensor, first allocated at the first
    full-window step and then swapped with the current one, so a yielded
    tensor is overwritten two steps later and the full window allocates no
    tensor per step.
    """
    self_factor = np.exp(-self_phi)
    energies, vecs = np.linalg.eigh(h_eig)
    u_half = (vecs * np.exp(-0.5j * dt * energies)) @ vecs.conj().T
    k_half = np.kron(u_half.conj(), u_half)
    u_full = u_half @ u_half
    k_full = np.kron(u_full.conj(), u_full)
    # fold the new point's self term and the lag-1 coupling into the step;
    # C order everywhere, so that the tables inherit it and reshape to the
    # contraction operand without a copy
    step_kernel = k_full * np.exp(-lag_phi[1]) * self_factor[:, None]
    influence = [None, np.ascontiguousarray(step_kernel.T)]  # (z_n, z_new)
    for h in range(2, kmax):
        lag = np.ascontiguousarray(np.exp(-lag_phi[h]).T)  # (z_old, z_new)
        lag = lag.reshape((d2,) + (1,) * (h - 1) + (d2,))
        influence.append(influence[h - 1][None, ...] * lag)
    # influence[kmax][o, m, n] = oldest[o, n] influence[kmax-1][m, n]; at
    # kmax = 1 the step kernel is the whole factor
    if kmax == 1:
        oldest, middle = influence[1], None
    else:
        oldest = np.exp(-lag_phi[kmax]).T  # (z_oldest, z_new)
        middle = influence[kmax - 1].reshape(-1, d2)  # (middle, new)

    def path(batch):
        # batch axis first: tensor[b, z_hist..., z_latest]
        tensor = (batch @ k_half.T) * self_factor[None, :]
        spare = None
        yield tensor
        for _ in range(2, n_steps + 1):
            hist = tensor.ndim - 1
            if hist < kmax:
                tensor = tensor[..., None] * influence[hist]
            else:
                # (b, middle, oldest) @ (oldest, new): one BLAS product,
                # written over the tensor of two steps before
                if spare is None:
                    spare = np.empty_like(tensor)
                b = tensor.shape[0]
                new = spare.reshape(b, -1, d2)
                np.matmul(tensor.reshape(b, d2, -1).transpose(0, 2, 1), oldest, out=new)
                if middle is not None:
                    new *= middle
                tensor, spare = spare, tensor
            yield tensor

    return k_half, path


def _readout(tensor, k_half):
    """Map from the path tensor: k_half applied to the sum over all history
    variables, the sum split exactly in double and rounded once.

    Each map is read out on its own, so its rounding is uncorrelated with
    that of its neighbours and passes undamped into the single-step maps
    E(t_{n+1}, t_0) E(t_n, t_0)^{-1}; a plain double sum over the (D^2)^hist
    history terms followed by a double product leaves several units in the
    last place. Instead the history of each batch row, viewed as float64
    with real and imaginary parts side by side, is split by one power of two
    sigma = 2^(ceil(log2 m) + 1 + e), for m history rows and max|x| < 2^e:
    q = (x + sigma) - sigma lies on the grid of sigma's half ulp and
    sum |q| <= sigma, so every partial sum of q is exact in any order, and
    lo = x - q is exact (the extraction of Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31, 189 (2008)). Both parts are summed by BLAS products with a
    ones vector, through a scratch of at most ``_READOUT_ROWS`` history rows:
    as many batch rows per pass as their histories fit there, each row's
    history summed by its own BLAS call, or one row in chunks of that many
    history rows when its history is longer. The lo sum rounds by less than
    8 m^3 eps^2 max|x| (eps = 2^-53). The two totals are added in
    ``np.longdouble``, multiplied by k_half there and rounded once (where
    long double is no wider than double, the sum of the two parts is
    rounded there too). A row's sigma depends on that row alone,
    so a batch reads out bit for bit as its rows one by one. A non-finite
    entry, or one of magnitude 2^(1022 - ceil(log2 m)) or more, gives a
    non-finite map.
    """
    b, d2 = tensor.shape[0], tensor.shape[-1]
    parts = np.ascontiguousarray(tensor, dtype=complex).reshape(b, -1, d2).view(float)
    m = parts.shape[1]
    flat = parts.reshape(b, -1)
    top = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    sigma = np.ldexp(1.0, np.frexp(top)[1] + (m - 1).bit_length() + 1)
    rows = min(m, _READOUT_ROWS)
    group = min(b, _READOUT_ROWS // rows)  # batch rows per pass
    sigma = sigma[:, None, None]  # each row split by its own sigma
    ones = np.ones(rows)
    scratch = np.empty(group * rows * 2 * d2)
    hi = np.zeros((b, 2 * d2))
    lo = np.zeros((b, 2 * d2))
    for r in range(0, b, group):
        i = slice(r, r + group)
        for h in range(0, m, rows):
            x = parts[i, h : h + rows]
            q = scratch[: x.size].reshape(x.shape)
            np.add(x, sigma[i], out=q)
            q -= sigma[i]
            hi[i] += ones[: x.shape[-2]] @ q  # exact
            np.subtract(x, q, out=q)
            lo[i] += ones[: x.shape[-2]] @ q
    total = (hi.astype(np.longdouble) + lo).view(np.clongdouble)
    return (k_half.astype(np.clongdouble) @ total.T).astype(complex)
