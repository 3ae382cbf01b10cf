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

from .errors import DegenerateRates, NotTracePreserving
from .maps import (
    _logm_stack,
    dissipator_superop,
    hamiltonian_superop,
    trace_functional,
)
from .timelocal import LocalMapSeries

__all__ = [
    "CanonicalForm",
    "RateSeries",
    "gell_mann_basis",
    "canonical_decompose",
    "reassemble",
    "rate_series",
]

#: trace-preservation residual allowed for a generator, relative to max(1, its norm)
GENERATOR_TP_TOL = 1e-8
#: canonical rates closer than this count as degenerate
DEGENERATE_RATE_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Effective Hamiltonian, rates (descending |gamma|), unit-2-norm operators."""

    h_eff: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    ops: tuple[np.ndarray, ...] = field(repr=False)


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


def canonical_decompose(gen: np.ndarray) -> CanonicalForm:
    """Extract the canonical form from a trace-preserving generator.

    The parameter-to-generator map is linear, so the Hamiltonian coefficients
    and the Hermitian coefficient matrix are recovered by one real least
    squares solve; the coefficient matrix is then diagonalized and the
    resulting operators rescaled to unit 2-norm (rates pick up the squared
    norm). Raises :class:`NotTracePreserving` if the generator does not
    annihilate the trace functional, and warns with :class:`DegenerateRates`
    when coinciding rates leave the operators basis-ambiguous. This is
    :func:`_canonical_stack` on a stack of one generator.
    """
    h_eff, rates, ops, degenerate, failures = _canonical_stack(
        np.asarray(gen, dtype=complex)[None]
    )
    if failures:
        raise failures[0]
    if degenerate[0]:
        warnings.warn(
            "degenerate canonical rates; operators within the degenerate block "
            "are determined only up to a unitary mixing",
            DegenerateRates,
            stacklevel=2,
        )
    return CanonicalForm(h_eff=h_eff[0], rates=rates[0], ops=tuple(ops[0]))


def _canonical_stack(
    gens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """Canonical forms of a stack of generators, in one batched pass.

    Returns the effective Hamiltonians, the rates (descending magnitude, one
    row per generator), the operators, a mask of generators with degenerate
    rates, and, for each generator that is not trace preserving, its position
    mapped to the :class:`NotTracePreserving` that :func:`canonical_decompose`
    raises for it. One ``lstsq`` takes every generator as a right-hand side;
    one ``eigh`` and one 2-norm pass diagonalize and normalize all of them.
    """
    n, d2, _ = gens.shape
    dim = int(round(np.sqrt(d2)))
    residual = np.max(np.abs(trace_functional(dim) @ gens), axis=1)
    limit = GENERATOR_TP_TOL * np.maximum(1.0, np.linalg.norm(gens, axis=(1, 2)))
    failures: dict[int, Exception] = {
        i: NotTracePreserving(
            f"trace functional residual {residual[i]:.3e} exceeds tolerance {limit[i]:.3e}"
        )
        for i in np.flatnonzero(residual > limit).tolist()
    }

    basis, pair_index, design_real = _canonical_design(dim)
    n_ops = len(basis)
    flat = gens.reshape(n, -1)
    targets = np.concatenate([flat.real, flat.imag], axis=1)
    params = np.linalg.lstsq(design_real, targets.T, rcond=None)[0].T

    diag = np.arange(n_ops)
    a, b = pair_index.T
    off = params[:, 2 * n_ops :: 2] + 1.0j * params[:, 2 * n_ops + 1 :: 2]
    coeff = np.zeros((n, n_ops, n_ops), dtype=complex)
    coeff[:, diag, diag] = params[:, n_ops : 2 * n_ops]
    coeff[:, a, b] = off
    coeff[:, b, a] = off.conj()

    raw_rates, vecs = np.linalg.eigh(coeff)
    gaps = np.abs(raw_rates[:, :, None] - raw_rates[:, None, :])
    gaps[:, diag, diag] = np.inf
    degenerate = np.min(gaps, axis=(1, 2)) < DEGENERATE_RATE_TOL

    # ops[i, j] = sum_a vecs[i, a, j] basis[a], rescaled to unit 2-norm
    ops = np.einsum("iaj,axy->ijxy", vecs, basis)
    two_norms = np.linalg.svd(ops, compute_uv=False)[..., 0]
    ops /= two_norms[..., None, None]
    # fix the free global phase: largest entry real and positive
    entries = ops.reshape(n, n_ops, dim * dim)
    anchor = np.take_along_axis(entries, np.argmax(np.abs(entries), axis=2)[..., None], axis=2)
    ops *= np.exp(-1j * np.angle(anchor))[..., None]
    rates = raw_rates * two_norms**2

    order = np.argsort(-np.abs(rates), axis=1, kind="stable")
    rates = np.take_along_axis(rates, order, axis=1)
    ops = np.take_along_axis(ops, order[..., None, None], axis=1)
    h_eff = np.einsum("ia,axy->ixy", params[:, :n_ops], basis)
    return h_eff, rates, ops, degenerate, failures


def reassemble(form: CanonicalForm) -> np.ndarray:
    """Rebuild the generator superoperator from a canonical form (hbar = 1)."""
    gen = hamiltonian_superop(form.h_eff)
    for rate, op in zip(form.rates, form.ops):
        gen = gen + rate * dissipator_superop(op)
    return gen


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Canonical rates per time step; flagged steps carry NaN rows."""

    times: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    min_rate: np.ndarray = field(repr=False)
    flagged: np.ndarray = field(repr=False)


def rate_series(local: LocalMapSeries) -> RateSeries:
    """Canonical rates of each single-step map, as a time series.

    Every unflagged step goes through the matrix logarithm and the canonical
    decomposition together: one batched :func:`maps._logm_stack` and one
    batched :func:`_canonical_stack` over the whole stack. Rates come out
    sorted by descending magnitude with their signs kept. ``min_rate`` is the
    smallest rate per step; a negative value there witnesses non-Markovian
    backflow. A step whose logarithm or decomposition fails (the
    :class:`BranchAmbiguity`, :class:`NonDiagonalizable` or
    :class:`NotTracePreserving` that :func:`logm` and
    :func:`canonical_decompose` raise) is flagged rather than fatal, and its
    row is NaN.
    """
    flagged = np.array(local.flagged, dtype=bool)
    steps = np.flatnonzero(~flagged)
    gens, failures = _logm_stack(local.maps[steps], local.dt)
    # a failed logarithm leaves a zero generator, which decomposes cleanly
    _, step_rates, _, _, tp_failures = _canonical_stack(gens)
    failures.update(tp_failures)
    flagged[steps[sorted(failures)]] = True

    rates = np.full((len(local), local.dim**2 - 1), np.nan)
    rates[steps] = step_rates
    rates[flagged] = np.nan
    return RateSeries(times=local.times, rates=rates, min_rate=np.min(rates, axis=1), flagged=flagged)
