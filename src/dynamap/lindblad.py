"""Canonical form of time-local generators.

A trace- and Hermiticity-preserving generator can be written uniquely (up to
degeneracies) as

    L rho = -i [H, rho] + sum_j gamma_j (L_j rho L_j^dag
                                         - 1/2 {L_j^dag L_j, rho})

with H and all L_j traceless and the L_j mutually orthogonal. The generator is
parameterized linearly by H and a Hermitian coefficient matrix over a
traceless orthonormal operator basis; diagonalizing that coefficient matrix
yields the rates and operators. Operators are rescaled to unit spectral norm
(largest singular value), which rescales each rate by the squared norm; with
that normalization a rate is the decay rate of an actual state in the Hilbert
space, and negative rates witness information flowing back from the
environment.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchAmbiguity, DegenerateRates, NonDiagonalizable, NotTracePreserving
from .maps import (
    dissipator_superop,
    hamiltonian_superop,
    logm,
    trace_functional,
)
from .numerics import DEFAULT_NUMERICS, NumericsConfig
from .timelocal import LocalMapSeries

__all__ = [
    "CanonicalForm",
    "RateSeries",
    "gell_mann_basis",
    "canonical_decompose",
    "reassemble",
    "rate_series",
]


def gell_mann_basis(dim: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices: traceless, Hermitian, Tr(G_a G_b) = delta_ab."""
    basis = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1.0j / np.sqrt(2.0)
            anti[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(anti)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1.0
        diag[l, l] = -float(l)
        basis.append(diag / np.sqrt(l * (l + 1)))
    return basis


@dataclass(frozen=True)
class CanonicalForm:
    """Effective Hamiltonian, rates (descending |gamma|), unit-2-norm operators."""

    h_eff: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    ops: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.h_eff.shape[0]


def _pair_dissipator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho b - 1/2 {b a, rho}."""
    eye = np.eye(a.shape[0])
    ba = b @ a
    return np.kron(b.T, a) - 0.5 * np.kron(eye, ba) - 0.5 * np.kron(ba.T, eye)


@functools.lru_cache(maxsize=None)
def _canonical_design(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gell-Mann basis, off-diagonal (a, b) pairs, and the real design matrix of
    the linear map from canonical parameters to generators; read-only, since
    every call for one dimension shares them."""
    basis = gell_mann_basis(dim)
    n_ops = len(basis)

    columns: list[np.ndarray] = []
    # Hamiltonian part: one real coefficient per basis element
    for g in basis:
        columns.append(hamiltonian_superop(g).ravel())
    # diagonal coefficients of the Hermitian matrix
    for g in basis:
        columns.append(dissipator_superop(g).ravel())
    # off-diagonal pairs: real and imaginary parts
    pair_index: list[tuple[int, int]] = []
    for a in range(n_ops):
        for b in range(a + 1, n_ops):
            pair_index.append((a, b))
            d_ab = _pair_dissipator(basis[a], basis[b])
            d_ba = _pair_dissipator(basis[b], basis[a])
            columns.append((d_ab + d_ba).ravel())
            columns.append((1.0j * (d_ab - d_ba)).ravel())

    design = np.array(columns).T
    arrays = (np.array(basis), np.array(pair_index).reshape(-1, 2),
              np.vstack([design.real, design.imag]))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def canonical_decompose(
    gen: np.ndarray,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> CanonicalForm:
    """Extract the canonical form from a trace-preserving generator.

    The parameter-to-generator map is linear, so the Hamiltonian coefficients
    and the Hermitian coefficient matrix are recovered by one real least
    squares solve; the coefficient matrix is then diagonalized and the
    resulting operators rescaled to unit 2-norm (rates pick up the squared
    norm). Raises :class:`NotTracePreserving` if the generator does not
    annihilate the trace functional, and warns with :class:`DegenerateRates`
    when coinciding rates leave the operators basis-ambiguous.
    """
    gen = np.asarray(gen, dtype=complex)
    d2 = gen.shape[0]
    dim = int(round(np.sqrt(d2)))
    w = trace_functional(dim)
    residual = float(np.max(np.abs(w @ gen)))
    scale = max(1.0, float(np.linalg.norm(gen)))
    if residual > numerics.generator_tp_tol * scale:
        raise NotTracePreserving(
            f"trace functional residual {residual:.3e} exceeds tolerance "
            f"{numerics.generator_tp_tol * scale:.3e}"
        )

    basis, pair_index, design_real = _canonical_design(dim)
    n_ops = len(basis)
    target = np.concatenate([gen.ravel().real, gen.ravel().imag])
    params, *_ = np.linalg.lstsq(design_real, target, rcond=None)

    h_coeffs = params[:n_ops]
    c_diag = params[n_ops : 2 * n_ops]
    coeff = np.diag(c_diag.astype(complex))
    for idx, (a, b) in enumerate(pair_index):
        x = params[2 * n_ops + 2 * idx]
        y = params[2 * n_ops + 2 * idx + 1]
        coeff[a, b] = x + 1.0j * y
        coeff[b, a] = x - 1.0j * y

    raw_rates, vecs = np.linalg.eigh(coeff)
    gaps = np.abs(raw_rates[:, None] - raw_rates[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) < numerics.degenerate_rate_tol:
        warnings.warn(
            "degenerate canonical rates; operators within the degenerate block "
            "are determined only up to a unitary mixing",
            DegenerateRates,
            stacklevel=2,
        )

    ops = []
    rates = np.empty(n_ops)
    for j in range(n_ops):
        op = sum(vecs[a, j] * basis[a] for a in range(n_ops))
        two_norm = float(np.linalg.norm(op, 2))
        op = op / two_norm
        # fix the free global phase: largest entry real and positive
        anchor = op.ravel()[int(np.argmax(np.abs(op)))]
        op = op * np.exp(-1j * np.angle(anchor))
        ops.append(op)
        rates[j] = raw_rates[j] * two_norm**2

    order = np.argsort(-np.abs(rates), kind="stable")
    rates = rates[order]
    ops = [ops[j] for j in order]

    h_eff = sum(h_coeffs[a] * basis[a] for a in range(n_ops))
    return CanonicalForm(h_eff=np.asarray(h_eff), rates=rates, ops=tuple(ops))


def reassemble(form: CanonicalForm) -> np.ndarray:
    """Rebuild the generator superoperator from a canonical form (hbar = 1)."""
    gen = hamiltonian_superop(form.h_eff)
    for rate, op in zip(form.rates, form.ops):
        gen = gen + rate * dissipator_superop(op)
    return gen


@dataclass(frozen=True)
class RateSeries:
    """Canonical rates per time step; flagged steps carry NaN rows."""

    times: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    min_rate: np.ndarray = field(repr=False)
    flagged: np.ndarray = field(repr=False)


def rate_series(
    local: LocalMapSeries,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> RateSeries:
    """Canonical rates of each single-step map, as a time series.

    Each unflagged step is sent through the matrix logarithm and the canonical
    decomposition; rates come out sorted by descending magnitude with their
    signs kept. ``min_rate`` is the smallest rate per step; a negative value
    there witnesses non-Markovian backflow. Steps whose logarithm or
    decomposition fails are flagged rather than fatal.
    """
    n_steps = len(local)
    dim = local.dim
    n_rates = dim * dim - 1
    rates = np.full((n_steps, n_rates), np.nan)
    min_rate = np.full(n_steps, np.nan)
    flagged = np.array(local.flagged, dtype=bool)
    for n in range(n_steps):
        if flagged[n]:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateRates)
                gen = logm(local.maps[n], local.dt, numerics=numerics)
                form = canonical_decompose(gen, numerics=numerics)
        except (BranchAmbiguity, NonDiagonalizable, NotTracePreserving):
            flagged[n] = True
            continue
        rates[n] = form.rates
        min_rate[n] = float(np.min(form.rates))
    return RateSeries(times=local.times, rates=rates, min_rate=min_rate, flagged=flagged)
