"""Transfer-tensor decomposition and time-nonlocal extrapolation.

A series of cumulative maps E(t_n, t_0) is decomposed into tensors

    T(t_n) = E(t_n, t_0) - sum_{m=1}^{n-1} T(t_{n-m}) E(t_m, t_0),

so T(t_1) is the single-step map and later tensors carry the temporal
correlations. Resumming the recursion reproduces the input maps exactly,
and truncating the tensors beyond a memory cutoff turns the relation

    rho(t_n) = sum_k T(t_{n-k}) rho(t_k)

into a long-time propagation scheme that only needs short-time data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffExceedsData, DimensionMismatch
from .maps import DynamicalMapSeries, vectorize

__all__ = ["TransferTensorSeries", "decompose", "extrapolate", "tensor_norm_profile"]


@dataclass(frozen=True, eq=False)
class TransferTensorSeries:
    """Tensors T(t_n), n = 1..N, on the grid of the source map series."""

    dt: float
    tensors: np.ndarray = field(repr=False)

    def __post_init__(self):
        tensors = np.asarray(self.tensors, dtype=complex).copy()
        tensors.flags.writeable = False
        object.__setattr__(self, "tensors", tensors)

    def __len__(self) -> int:
        return self.tensors.shape[0]

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.tensors.shape[1])))

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, len(self) + 1)

    @property
    def norms(self) -> np.ndarray:
        """Frobenius norm of each tensor. numpy sums in memory order, so the
        squares are summed in one fixed layout, the (row, step, column) one
        in which :func:`decompose` builds the tensors."""
        by_row = self.tensors.transpose(1, 0, 2).copy()
        return np.linalg.norm(by_row.transpose(1, 0, 2), axis=(1, 2))


def decompose(series: DynamicalMapSeries) -> TransferTensorSeries:
    """Forward recursion for the transfer tensors of a map series."""
    if len(series) == 0:
        raise DimensionMismatch("empty map series")
    maps = series.maps
    n_steps, d2, _ = maps.shape
    # row block [T_0 | T_1 | ... | T_{N-1}] and column block [E_{N-1}; ...; E_0],
    # so that T_n = E_n - [T_0 ... T_{n-1}] [E_{n-1}; ...; E_0] is one matmul
    rows = np.empty((d2, n_steps * d2), dtype=complex)
    past = maps[::-1].reshape(-1, d2)
    rows[:, :d2] = maps[0]
    for n in range(1, n_steps):
        rows[:, n * d2 : (n + 1) * d2] = maps[n] - rows[:, : n * d2] @ past[(n_steps - n) * d2 :]
    tensors = rows.reshape(d2, n_steps, d2).transpose(1, 0, 2)
    return TransferTensorSeries(dt=series.dt, tensors=tensors)


def extrapolate(
    tensors: TransferTensorSeries,
    initial: np.ndarray,
    cutoff_steps: int,
    total_steps: int,
) -> np.ndarray:
    """Propagate an initial state with tensors truncated beyond the cutoff.

    Tensors with index above ``cutoff_steps`` are treated as zero, so
    vec(rho(t_n)) = sum_{j < min(n, k)} T(t_{j+1}) vec(rho(t_{n-1-j})). The
    states are kept newest first in one preallocated buffer (state n in row
    total_steps - n), so each step reads the rows right after the one it
    writes, a forward slice, and writes its sum there with ``out=``. Once
    ``cutoff_steps`` states exist, every step contracts all k tensors, with
    no per-step bound or slicing of the tensors. Returns the states at steps
    0..total_steps as an (total_steps + 1, D, D) array.
    """
    k = int(cutoff_steps)
    if k < 1:
        raise CutoffExceedsData("cutoff_steps must be at least 1")
    if k > len(tensors):
        raise CutoffExceedsData(
            f"cutoff of {k} steps exceeds the {len(tensors)} available tensors"
        )
    dim = tensors.dim
    active = tensors.tensors[:k]

    newest_first = np.empty((total_steps + 1, dim * dim), dtype=complex)
    newest_first[total_steps] = vectorize(initial)
    for n in range(1, min(k, total_steps + 1)):
        row = total_steps - n
        np.einsum("kab,kb->a", active[:n], newest_first[row + 1 : row + 1 + n],
                  out=newest_first[row])
    for row in range(total_steps - k, -1, -1):
        np.einsum("kab,kb->a", active, newest_first[row + 1 : row + 1 + k],
                  out=newest_first[row])
    vecs = newest_first[::-1]
    return vecs.reshape(total_steps + 1, dim, dim).transpose(0, 2, 1).copy()


def tensor_norm_profile(tensors: TransferTensorSeries) -> tuple[np.ndarray, np.ndarray]:
    """(time, Frobenius norm) pairs for decay diagnostics."""
    return tensors.times, tensors.norms
