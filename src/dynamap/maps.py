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
    DynamapError,
    NonDiagonalizable,
    SingularBasis,
)

__all__ = [
    "DynamicalMapSeries",
    "vectorize",
    "devectorize",
    "from_trajectories",
    "singular_values",
    "logm",
    "expm",
    "hamiltonian_superop",
    "dissipator_superop",
    "lindblad_generator",
    "trace_functional",
    "is_trace_preserving",
    "is_hermitian",
    "pauli",
    "matrix_units",
]

#: Hermiticity residual max |M - M^dag| allowed by :func:`is_hermitian`
HERMITICITY_TOL = 1e-12
#: trace-functional residual allowed by :func:`is_trace_preserving`
TRACE_TOL = 1e-10
#: largest basis Gram condition number :func:`from_trajectories` accepts
BASIS_COND_MAX = 1e12
#: eigenvalue argument distance from pi below which :func:`logm` refuses
BRANCH_TOL = 1e-6
#: eigenvector condition number beyond which a map counts as non-diagonalizable:
#: the eigendecomposition logarithm loses about cond * eps, 1e-10 at 1e6
EIGVEC_COND_MAX = 1e6

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
    h: np.ndarray, jump_ops: list[np.ndarray], rates: list[float]
) -> np.ndarray:
    """Assemble -i[h, .] + sum_j rates[j] * D[jump_ops[j]] as a superoperator."""
    gen = hamiltonian_superop(h)
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

def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL)


def is_trace_preserving(superop: np.ndarray) -> bool:
    """Check vec(I)^dag E = vec(I)^dag within ``TRACE_TOL``, read at call time."""
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    w = trace_functional(dim)
    return bool(np.max(np.abs(w @ superop - w)) <= TRACE_TOL)


# ---------------------------------------------------------------------------
# map series
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DynamicalMapSeries:
    """Cumulative maps E(t0 + n dt, t0) for n = 1..N on a uniform grid.

    ``maps[n-1]`` propagates vectorized states from t0 to t0 + n dt.
    Instances are immutable; the backing array is marked read-only. Every
    source and the cache reader build one, so a map with a non-finite entry
    is refused here, as a :class:`DynamapError`.
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
        bad = np.count_nonzero(~np.isfinite(maps).all(axis=(1, 2)))
        if bad:
            raise DynamapError(f"{bad} of {len(maps)} maps have a non-finite entry")
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
        if not 0 <= n <= len(self):
            raise DimensionMismatch(f"requested {n} maps, have {len(self)}")
        return DynamicalMapSeries(dt=self.dt, t0=self.t0, maps=self.maps[:n])


def from_trajectories(
    basis_states: list[np.ndarray],
    trajectories: list[list[np.ndarray]],
    dt: float,
    t0: float = 0.0,
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
    if not np.isfinite(cond) or cond > BASIS_COND_MAX:
        raise SingularBasis(f"basis Gram matrix condition number {cond:.3e}")

    # evolved[n] holds vec(traj[b][n]) in column b; E_n @ basis_mat = evolved[n]
    # <=> basis_mat.T @ E_n.T = evolved[n].T, one system per step
    evolved = np.array([[vectorize(state) for state in traj] for traj in trajectories])
    out = np.linalg.solve(basis_mat.T, evolved.transpose(1, 0, 2)).transpose(0, 2, 1)
    return DynamicalMapSeries(dt=dt, t0=t0, maps=out)


# ---------------------------------------------------------------------------
# dense linear-algebra operations
# ---------------------------------------------------------------------------

def singular_values(superop: np.ndarray) -> np.ndarray:
    """Singular values of the matrix representation, descending; a stack of
    superoperators gives one row per map."""
    return np.linalg.svd(np.asarray(superop, dtype=complex), compute_uv=False)


def logm(superop: np.ndarray, dt: float) -> np.ndarray:
    """Principal matrix logarithm divided by dt: the generator of the map.

    Uses an eigendecomposition, V diag(log lambda) V^-1. Eigenvalues that
    are zero or on (or numerically touching) the negative real axis have no
    principal logarithm and raise :class:`BranchAmbiguity`; an eigenvector
    condition number above ``EIGVEC_COND_MAX``, where the logarithm would
    lose more than about 1e-10, raises :class:`NonDiagonalizable`. This is
    :func:`_logm_stack` on a stack of one map.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    gens, failures = _logm_stack(np.asarray(superop, dtype=complex)[None], dt)
    if failures:
        raise failures[0]
    return gens[0]


def _logm_stack(maps: np.ndarray, dt: float) -> tuple[np.ndarray, dict[int, Exception]]:
    """Generators log(maps[i]) / dt of a stack of maps, in one batched pass.

    Returns the generators and, for each map that has no logarithm, its
    position mapped to the exception :func:`logm` raises for it; the rows of
    those maps are zero. One batched ``eig``, ``cond`` and ``inv`` serve every
    map.
    """
    evals, evecs = np.linalg.eig(maps)
    dist_to_cut = np.pi - np.abs(np.angle(evals))
    cond = np.linalg.cond(evecs)
    zero = np.any(evals == 0, axis=1)
    near_cut = np.any(dist_to_cut < BRANCH_TOL, axis=1)
    # a NaN condition number fails this test too
    defective = ~(cond <= EIGVEC_COND_MAX)

    failures: dict[int, Exception] = {}
    failed = zero | near_cut | defective
    for i in np.flatnonzero(failed).tolist():
        if zero[i]:
            failures[i] = BranchAmbiguity("map has a zero eigenvalue; logarithm undefined")
        elif near_cut[i]:
            worst = evals[i, np.argmin(dist_to_cut[i])]
            failures[i] = BranchAmbiguity(
                f"eigenvalue {worst:.6e} lies within {BRANCH_TOL:.1e} of the "
                "negative real axis"
            )
        else:
            failures[i] = NonDiagonalizable(f"eigenvector condition number {cond[i]:.3e}")

    gens = np.zeros_like(maps)
    vecs = evecs[~failed]
    gens[~failed] = (vecs * np.log(evals[~failed])[:, None, :]) @ np.linalg.inv(vecs)
    return gens / dt, failures


# Pade coefficients b_0..b_m of the [m/m] approximant to exp, the bounds
# theta_m on the scaled norm up to which it is accurate to unit roundoff, and
# the reciprocals 1/c_m of the leading backward-error coefficients (Al-Mohy
# & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), Table 3.1 and eq. 5.1).
# theta_13 = 4.25 is the bound of the reference implementation the tests
# compare against.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}
_BACKWARD_C = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
               9: 5914384781877411840000.0,
               13: 113250775606021113483283660800000000.0}


def _onenorm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> int:
    """Extra squarings that keep the order-m backward error at unit roundoff:
    the bound from ||abs(A)^(2m+1)||_1, formed by 2m+1 products with a
    vector of ones (Al-Mohy & Higham 2009, eq. 5.1)."""
    abs_a = np.abs(a)
    v = np.ones(a.shape[0])
    for _ in range(2 * m + 1):
        v = v @ abs_a
    power_norm = float(v.max())
    if power_norm == 0.0:
        return 0
    alpha = power_norm / (_onenorm(a) * _BACKWARD_C[m])
    return max(int(np.ceil(np.log2(alpha / 2.0**-53) / (2 * m))), 0)


def _add_terms(out: np.ndarray, coeffs, powers, scratch: np.ndarray | None) -> np.ndarray:
    """``out += c * p`` for each coefficient c and power p, in turn. Each
    ``c * p`` is formed in ``scratch``, or in ``p`` itself, which it spends,
    where ``scratch`` is None."""
    for c, p in zip(coeffs, powers):
        out += np.multiply(p, c, out=p if scratch is None else scratch)
    return out


def _add_identity(out: np.ndarray, c: float) -> np.ndarray:
    """``out + c I`` in place, rounded as ``out + c * eye`` and ``0 + c * eye
    + out`` round it: off the diagonal both add +0.0, which turns -0.0 into
    +0.0."""
    out += 0
    out.reshape(-1)[:: out.shape[0] + 1] += c
    return out


def _pade(pw: list, m: int) -> np.ndarray:
    """The [m/m] Pade approximant to exp(A), m <= 9, from ``pw`` = [A, A^2,
    A^4, ...], which it spends and empties. U = A (b_1 I + b_3 A^2 + ...)
    and V = b_0 I + b_2 A^2 + ... are summed from I up, as ``sum`` sums them
    from its leading 0; V is built in A^2's buffer, U in the scratch."""
    del pw[(m + 1) // 2:]
    b = _PADE[m]
    scratch = np.empty_like(pw[0])
    w = _add_terms(_add_identity(pw[1] * b[3], b[1]), b[5::2], pw[2:], scratch)
    pw[1] *= b[2]
    _add_terms(_add_identity(pw[1], b[0]), b[4::2], pw[2:], None)  # V
    u = np.matmul(pw[0], w, out=scratch)
    np.add(pw[1], u, out=w)  # V + U
    np.subtract(pw[1], u, out=u)  # V - U
    pw.clear()
    return np.linalg.solve(u, w)


def _bracket13(evens: list, c, inner: np.ndarray, out: np.ndarray, spend: bool) -> np.ndarray:
    """A^6 (c_0 A^6 + c_1 A^4 + c_2 A^2) + c_3 A^6 + c_4 A^4 + c_5 A^2 + c_6 I,
    summed left to right into ``out``, for ``evens`` = [A^6, A^4, A^2]. The
    parenthesis is built in ``inner``, which then holds the later terms, or,
    with ``spend``, the powers themselves do."""
    _add_terms(np.multiply(evens[0], c[0], out=inner), c[1:3], evens[1:], out)
    np.matmul(evens[0], inner, out=out)
    return _add_identity(_add_terms(out, c[3:6], evens, None if spend else inner), c[6])


def _pade13(pw: list) -> np.ndarray:
    """The [13/13] Pade approximant to exp(A) from ``pw`` = [A, A^2, A^4,
    A^6], which it spends and empties: U = A (A^6 (b_13 A^6 + b_11 A^4 +
    b_9 A^2) + b_7 A^6 + b_5 A^4 + b_3 A^2 + b_1 I) and V = A^6 (b_12 A^6 +
    b_10 A^4 + b_8 A^2) + b_6 A^6 + b_4 A^4 + b_2 A^2 + b_0 I."""
    b = _PADE[13]
    x, y = np.empty_like(pw[0]), np.empty_like(pw[0])
    _bracket13(pw[:0:-1], b[13::-2], x, y, spend=False)
    u = np.matmul(pw.pop(0), y, out=x)  # A is spent
    v = _bracket13(pw[::-1], b[12::-2], y, np.empty_like(y), spend=True)
    pw.clear()
    np.add(v, u, out=y)  # V + U
    np.subtract(v, u, out=u)  # V - U
    del v
    return np.linalg.solve(u, y)


def expm(gen: np.ndarray, dt: float) -> np.ndarray:
    """Map over a step of length dt: exp(gen * dt).

    Scaling and squaring with the Pade order and scaling chosen as in
    Al-Mohy & Higham (2009): orders 3, 5, 7, 9 or 13, picked from exact
    1-norms of A^4, A^6, A^8 and A^10 (at every size, where estimates would
    do for large matrices), then one
    ``np.linalg.solve`` and s squarings. A zero generator takes order 3,
    whose b_0 I solve returns the identity exactly. A non-finite entry of
    ``gen * dt``, or powers of it that overflow, raise :class:`DynamapError`.

    Working set: besides ``gen``, at most seven N x N complex arrays at any
    order, six at orders 3, 5 and 7 (1.9 GB at N = 4096). The powers live
    in one list, the Pade sums are built in place, and the powers are
    released before the solve, whose operands are V - U and V + U alone.
    """
    pw = [np.asarray(gen, dtype=complex) * dt]  # A, A^2, A^4, A^6, A^8
    if not np.isfinite(pw[0]).all():
        raise DynamapError(f"exp(G t) at t = {dt}: G t has a non-finite entry")
    pw.append(pw[0] @ pw[0])
    pw.append(pw[1] @ pw[1])
    pw.append(pw[2] @ pw[1])
    d4 = _onenorm(pw[2]) ** (1 / 4)
    d6 = _onenorm(pw[3]) ** (1 / 6)
    if max(d4, d6) < _THETA[3] and _ell(pw[0], 3) == 0:
        return _pade(pw, 3)
    if max(d4, d6) < _THETA[5] and _ell(pw[0], 5) == 0:
        return _pade(pw, 5)
    pw.append(pw[3] @ pw[1])
    d8 = _onenorm(pw[4]) ** (1 / 8)
    eta_3 = max(d6, d8)
    if eta_3 < _THETA[7] and _ell(pw[0], 7) == 0:
        return _pade(pw, 7)
    if eta_3 < _THETA[9] and _ell(pw[0], 9) == 0:
        return _pade(pw, 9)

    del pw[4]
    eta_5 = min(eta_3, max(d8, _onenorm(pw[2] @ pw[3]) ** (1 / 10)))
    if not eta_5 < np.inf:
        raise DynamapError(f"exp(G t) at t = {dt}: the powers of G t overflow")
    s = max(int(np.ceil(np.log2(eta_5 / _THETA[13]))), 0) if eta_5 > 0 else 0
    s += _ell(pw[0] * 2.0**-s, 13)
    for p, scale in zip(pw, (2.0**-s, 4.0**-s, 16.0**-s, 64.0**-s)):
        p *= scale
    out = _pade13(pw)
    for _ in range(s):
        out = out @ out
    return out
