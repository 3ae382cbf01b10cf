"""Superoperator algebra on vectorized density matrices.

Conventions used throughout the package:

* Density matrices are complex ``D x D`` ndarrays.
* Vectorization is column-stacking, ``vec(rho) = rho.reshape(-1, order="F")``,
  so that ``vec(A @ rho @ B) = kron(B.T, A) @ vec(rho)``.
* A superoperator is a dense complex ``D^2 x D^2`` ndarray acting on such
  vectors; composition of maps is plain matrix multiplication.
* A generator has the same shape but units of inverse time;
  ``expm(gen, dt)`` is the map over one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchAmbiguity,
    DimensionMismatch,
    NearSingularMap,
    NonDiagonalizable,
    SingularBasis,
)
from .numerics import DEFAULT_NUMERICS, NumericsConfig

__all__ = [
    "DynamicalMapSeries",
    "vectorize",
    "devectorize",
    "from_trajectories",
    "singular_values",
    "invert",
    "logm",
    "expm",
    "frobenius_diff",
    "hamiltonian_superop",
    "dissipator_superop",
    "lindblad_generator",
    "trace_functional",
    "is_trace_preserving",
    "is_hermitian",
    "pauli",
    "matrix_units",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli(axis: str) -> np.ndarray:
    """Return a copy of the Pauli matrix for ``axis`` in {'x','y','z','i'}."""
    m = {
        "x": PAULI_X,
        "y": PAULI_Y,
        "z": PAULI_Z,
        "i": np.eye(2, dtype=complex),
    }[axis.lower()]
    return m.copy()


def matrix_units(dim: int) -> list[np.ndarray]:
    """The D^2 matrix units E_ij, a complete operator basis for tomography."""
    units = []
    for j in range(dim):
        for i in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------

def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a D x D matrix into a length-D^2 vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F")


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; exact round trip."""
    vec = np.asarray(vec, dtype=complex)
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise DimensionMismatch(f"vector length {vec.size} is not a perfect square")
    return vec.reshape((dim, dim), order="F")


# ---------------------------------------------------------------------------
# superoperator constructors
# ---------------------------------------------------------------------------

def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [h, rho]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1.0j * (np.kron(eye, h) - np.kron(h.T, eye))


def dissipator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> op rho op^dag - (1/2){op^dag op, rho}."""
    op = np.asarray(op, dtype=complex)
    eye = np.eye(op.shape[0])
    opd_op = op.conj().T @ op
    return (
        np.kron(op.conj(), op)
        - 0.5 * np.kron(eye, opd_op)
        - 0.5 * np.kron(opd_op.T, eye)
    )


def lindblad_generator(
    h: np.ndarray,
    jump_ops: list[np.ndarray] | None = None,
    rates: list[float] | None = None,
) -> np.ndarray:
    """Assemble -i[h, .] + sum_j rates[j] * D[jump_ops[j]] as a superoperator."""
    gen = hamiltonian_superop(h)
    jump_ops = jump_ops or []
    rates = rates if rates is not None else [1.0] * len(jump_ops)
    if len(rates) != len(jump_ops):
        raise DimensionMismatch("need one rate per jump operator")
    for rate, op in zip(rates, jump_ops):
        gen = gen + rate * dissipator_superop(op)
    return gen


def trace_functional(dim: int) -> np.ndarray:
    """Row vector w such that w @ vec(rho) = Tr(rho)."""
    return vectorize(np.eye(dim, dtype=complex)).conj()


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_hermitian(m: np.ndarray, tol: float = DEFAULT_NUMERICS.hermiticity_tol) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_trace_preserving(superop: np.ndarray, tol: float = DEFAULT_NUMERICS.trace_tol) -> bool:
    """Check vec(I)^dag E = vec(I)^dag within ``tol``."""
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    w = trace_functional(dim)
    return bool(np.max(np.abs(w @ superop - w)) <= tol)


# ---------------------------------------------------------------------------
# map series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicalMapSeries:
    """Cumulative maps E(t0 + n dt, t0) for n = 1..N on a uniform grid.

    ``maps[n-1]`` propagates vectorized states from t0 to t0 + n dt.
    Instances are immutable; the backing array is marked read-only.
    """

    dt: float
    t0: float
    maps: np.ndarray = field(repr=False)

    def __post_init__(self):
        maps = np.asarray(self.maps, dtype=complex)
        if maps.ndim != 3 or maps.shape[1] != maps.shape[2]:
            raise DimensionMismatch(f"expected (N, D^2, D^2) array, got {maps.shape}")
        d2 = maps.shape[1]
        if int(round(np.sqrt(d2))) ** 2 != d2:
            raise DimensionMismatch(f"superoperator edge {d2} is not a perfect square")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        maps = maps.copy()
        maps.flags.writeable = False
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return self.maps.shape[0]

    @property
    def dim(self) -> int:
        """Hilbert-space dimension D."""
        return int(round(np.sqrt(self.maps.shape[1])))

    @property
    def times(self) -> np.ndarray:
        """Grid times t0 + n dt for n = 1..N."""
        return self.t0 + self.dt * np.arange(1, len(self) + 1)

    def head(self, n: int) -> "DynamicalMapSeries":
        """The series restricted to its first ``n`` maps."""
        if n > len(self):
            raise DimensionMismatch(f"requested {n} maps, have {len(self)}")
        return DynamicalMapSeries(dt=self.dt, t0=self.t0, maps=self.maps[:n])


def from_trajectories(
    basis_states: list[np.ndarray],
    trajectories: list[list[np.ndarray]],
    dt: float,
    t0: float = 0.0,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> DynamicalMapSeries:
    """Reconstruct cumulative maps from evolved operator-basis trajectories.

    ``basis_states`` must span the D^2-dimensional operator space; entry b of
    ``trajectories`` holds the states of basis element b at t0 + dt, ..., t0 + N dt.
    Each time step is solved as one D^2 x D^2 linear system, so the returned
    maps satisfy E(t_n, t0) vec(basis[b]) = vec(traj[b][n-1]).
    """
    if not basis_states:
        raise DimensionMismatch("empty basis")
    dim = np.asarray(basis_states[0]).shape[0]
    if len(basis_states) != dim * dim:
        raise DimensionMismatch(
            f"need {dim * dim} basis states for dimension {dim}, got {len(basis_states)}"
        )
    if len(trajectories) != len(basis_states):
        raise DimensionMismatch("need one trajectory per basis state")
    steps = len(trajectories[0])
    if any(len(traj) != steps for traj in trajectories):
        raise DimensionMismatch("trajectories differ in length")

    basis_mat = np.column_stack([vectorize(b) for b in basis_states])
    gram = basis_mat.conj().T @ basis_mat
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > numerics.basis_cond_max:
        raise SingularBasis(f"basis Gram matrix condition number {cond:.3e}")

    out = np.empty((steps, dim * dim, dim * dim), dtype=complex)
    for n in range(steps):
        evolved = np.column_stack([vectorize(traj[n]) for traj in trajectories])
        # E @ basis_mat = evolved  <=>  basis_mat.T @ E.T = evolved.T
        out[n] = np.linalg.solve(basis_mat.T, evolved.T).T
    return DynamicalMapSeries(dt=dt, t0=t0, maps=out)


# ---------------------------------------------------------------------------
# dense linear-algebra operations
# ---------------------------------------------------------------------------

def singular_values(superop: np.ndarray) -> np.ndarray:
    """Singular values of the matrix representation, descending; a stack of
    superoperators gives one row per map."""
    return np.linalg.svd(np.asarray(superop, dtype=complex), compute_uv=False)


def invert(
    superop: np.ndarray,
    cond_threshold: float | None = None,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> np.ndarray:
    """Exact inverse of a map, guarded against near-singularity.

    Raises :class:`NearSingularMap` when sigma_min/sigma_max falls below
    ``cond_threshold`` (default from the numerics record).
    """
    if cond_threshold is None:
        cond_threshold = numerics.sv_ratio_min
    superop = np.asarray(superop, dtype=complex)
    sv = singular_values(superop)
    smax = float(sv[0])
    smin = float(sv[-1])
    if smax == 0.0 or smin / smax < cond_threshold:
        raise NearSingularMap(smin, smax)
    return np.linalg.inv(superop)


def logm(
    superop: np.ndarray,
    dt: float,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> np.ndarray:
    """Principal matrix logarithm divided by dt: the generator of the map.

    Uses an eigendecomposition; falls back to inverse scaling-and-squaring
    when the eigenvector matrix is poorly conditioned. Eigenvalues on (or
    numerically touching) the negative real axis have no principal logarithm
    and raise :class:`BranchAmbiguity`.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    superop = np.asarray(superop, dtype=complex)
    evals, evecs = np.linalg.eig(superop)

    if np.any(evals == 0):
        raise BranchAmbiguity("map has a zero eigenvalue; logarithm undefined")
    args = np.angle(evals)
    dist_to_cut = np.pi - np.abs(args)
    if np.any(dist_to_cut < numerics.branch_tol):
        worst = evals[np.argmin(dist_to_cut)]
        raise BranchAmbiguity(
            f"eigenvalue {worst:.6e} lies within {numerics.branch_tol:.1e} of the "
            "negative real axis"
        )

    cond = np.linalg.cond(evecs)
    if not np.isfinite(cond) or cond > numerics.eigvec_cond_max:
        raise NonDiagonalizable(f"eigenvector condition number {cond:.3e}")
    if cond > numerics.logm_fallback_cond:
        import scipy.linalg as sla

        log_map = sla.logm(superop)
    else:
        log_map = evecs @ np.diag(np.log(evals)) @ np.linalg.inv(evecs)
    return log_map / dt


def expm(gen: np.ndarray, dt: float) -> np.ndarray:
    """Map over a step of length dt: exp(gen * dt), by scaling-and-squaring."""
    import scipy.linalg as sla

    return sla.expm(np.asarray(gen, dtype=complex) * dt)


def frobenius_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the elementwise difference of two superoperators."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
