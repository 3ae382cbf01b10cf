"""Binary containers and CSV exports for map and tensor series.

Container layout (little endian):

    magic   4 bytes   "DMAP" | "TTEN" | "LMAP"
    version u32       currently 1
    D       f64       Hilbert-space dimension
    N       f64       number of entries
    dt      f64
    t0      f64
    data    N * D^4 complex entries, (re, im) f64 pairs, each entry
            flattened in column-major order

Reads and writes are bit-exact round trips.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .maps import DynamicalMapSeries

MAGIC_DMAP = b"DMAP"
MAGIC_TTEN = b"TTEN"
MAGIC_LMAP = b"LMAP"
_VERSION = 1
_HEADER = struct.Struct("<4sI4d")


def _write_container(path, magic: bytes, dim: int, dt: float, t0: float, stack: np.ndarray) -> None:
    stack = np.asarray(stack, dtype=complex)
    n = stack.shape[0]
    payload = np.ascontiguousarray(
        stack.transpose(0, 2, 1).reshape(n, -1)  # column-major per entry
    ).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, _VERSION, float(dim), float(n), float(dt), float(t0)))
        fh.write(payload.tobytes())


def _read_container(path, magic: bytes) -> tuple[int, float, float, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise DimensionMismatch(f"{path}: truncated container")
    got_magic, version, dim_f, n_f, dt, t0 = _HEADER.unpack_from(raw)
    if got_magic != magic:
        raise DimensionMismatch(f"{path}: expected magic {magic!r}, found {got_magic!r}")
    if version != _VERSION:
        raise DimensionMismatch(f"{path}: unsupported container version {version}")
    dim = int(round(dim_f))
    n = int(round(n_f))
    expected = n * dim**4
    if len(raw) != _HEADER.size + 16 * expected:
        raise DimensionMismatch(
            f"{path}: expected {expected} complex entries, found {len(raw) - _HEADER.size} bytes"
        )
    body = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    stack = body.reshape(n, dim * dim, dim * dim).transpose(0, 2, 1).astype(complex)
    return dim, dt, t0, stack


def write_map_series(path, series: DynamicalMapSeries) -> None:
    _write_container(path, MAGIC_DMAP, series.dim, series.dt, series.t0, series.maps)


def read_map_series(path) -> DynamicalMapSeries:
    _dim, dt, t0, stack = _read_container(path, MAGIC_DMAP)
    return DynamicalMapSeries(dt=dt, t0=t0, maps=stack)


def write_tensor_series(path, tensors) -> None:
    """Store a :class:`~dynamap.ttm.TransferTensorSeries`."""
    dim = int(round(np.sqrt(tensors.tensors.shape[1])))
    _write_container(path, MAGIC_TTEN, dim, tensors.dt, 0.0, tensors.tensors)


def read_tensor_series(path):
    from .ttm import TransferTensorSeries

    _dim, dt, _t0, stack = _read_container(path, MAGIC_TTEN)
    return TransferTensorSeries.from_tensors(dt=dt, tensors=stack)


def write_local_series(path, local) -> None:
    """Store the maps of a :class:`~dynamap.timelocal.LocalMapSeries`.

    Singularity flags go into a CSV sidecar, see :func:`write_local_flags`.
    """
    dim = int(round(np.sqrt(local.maps.shape[1])))
    _write_container(path, MAGIC_LMAP, dim, local.dt, local.t0, local.maps)


def read_local_series(path, sv_ratios=None, flagged=None):
    from .timelocal import LocalMapSeries

    _dim, dt, t0, stack = _read_container(path, MAGIC_LMAP)
    n = stack.shape[0]
    if sv_ratios is None:
        sv_ratios = np.ones(n)
    if flagged is None:
        flagged = np.zeros(n, dtype=bool)
    return LocalMapSeries(dt=dt, t0=t0, maps=stack, sv_ratios=np.asarray(sv_ratios), flagged=np.asarray(flagged))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """One CSV field: empty, true/false, an integer, or a round-trip float."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """Header line, then one line of formatted fields per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_series_csv(path, series: DynamicalMapSeries) -> None:
    """Lossless text export: one row per entry, full float precision."""
    d2 = series.dim**2
    rows = (
        (n + 1, row, col, m[row, col].real, m[row, col].imag)
        for n, m in enumerate(series.maps) for col in range(d2) for row in range(d2)
    )
    _write_csv(path, ("n", "row", "col", "re", "im"), rows)


def read_series_csv(path, dt: float, t0: float = 0.0) -> DynamicalMapSeries:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_max = int(rows[:, 0].max())
    d2 = int(rows[:, 1].max()) + 1
    stack = np.zeros((n_max, d2, d2), dtype=complex)
    for n, row, col, re, im in rows:
        stack[int(n) - 1, int(row), int(col)] = re + 1j * im
    return DynamicalMapSeries(dt=dt, t0=t0, maps=stack)


def write_local_flags(path, local) -> None:
    """Sidecar for local-map singularity diagnostics."""
    rows = zip(range(len(local)), local.times, local.sv_ratios, local.flagged)
    _write_csv(path, ("n", "t", "sigma_min_over_max", "flagged"), rows)


def write_profile_csv(path, times, values, value_column: str) -> None:
    _write_csv(path, ("t", value_column), zip(times, values))


def write_compare_csv(path, result) -> None:
    """One row per cutoff of a :class:`~dynamap.harness.CompareResult`."""
    header = ("tau_c", "err_ttm", "err_tl", "tl_flagged", "tl_spectral_stable",
              "tdist_ttm", "tdist_tl")
    _write_csv(path, header, ((getattr(row, name) for name in header) for row in result.rows))


def write_singvals_csv(path, times: np.ndarray, sv_table: np.ndarray) -> None:
    header = ("t", *(f"sv_{i + 1}" for i in range(sv_table.shape[1])))
    _write_csv(path, header, ((t, *row) for t, row in zip(times, sv_table)))


def write_rates_csv(path, rates) -> None:
    """Rates CSV: t, gamma_1..gamma_{D^2-1}, min_rate, flagged; flagged rows
    leave every numeric field but t empty."""
    n_rates = rates.rates.shape[1]
    header = ("t", *(f"gamma_{i + 1}" for i in range(n_rates)), "min_rate", "flagged")
    empty = (None,) * (n_rates + 1)  # the rates and min_rate
    rows = zip(rates.times, rates.rates, rates.min_rate, rates.flagged)
    _write_csv(path, header, ((t, *empty, True) if flagged else (t, *gammas, low, False)
                              for t, gammas, low, flagged in rows))


def write_eta_csv(path, coeffs) -> None:
    """Influence coefficients eta_k as ``k,re,im``."""
    _write_csv(path, ("k", "re", "im"), ((k, v.real, v.imag) for k, v in enumerate(coeffs.eta)))
