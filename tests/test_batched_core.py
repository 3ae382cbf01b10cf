"""Batched linear-algebra core against the per-step loops it replaced.

The reference functions below are the per-step implementations of
``decompose``, ``local_maps``, ``stationarity_profile``, ``extrapolate`` and
``extrapolate_tl`` that the batched code replaced, kept verbatim as oracles.
``local_maps`` and both extrapolators do the same arithmetic in the same order
and must agree bit for bit; ``decompose`` and the Frobenius norms sum in
another order and are held to a tolerance fixed from double precision.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_lindblad_generator
from dynamap.errors import NearSingularMap, StationaryMapFlagged
from dynamap.maps import (
    DynamicalMapSeries,
    devectorize,
    expm,
    frobenius_diff,
    invert,
    singular_values,
    trace_functional,
    vectorize,
)
from dynamap.numerics import DEFAULT_NUMERICS
from dynamap.timelocal import (
    LocalMapSeries,
    extrapolate_tl,
    local_maps,
    stationarity_profile,
)
from dynamap.ttm import TransferTensorSeries, decompose, extrapolate

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# per-step references
# ---------------------------------------------------------------------------

def decompose_loop(series):
    maps = series.maps
    tensors = np.empty_like(maps)
    tensors[0] = maps[0]
    for n in range(1, len(series)):
        acc = maps[n].copy()
        for m in range(1, n + 1):
            acc -= tensors[n - m] @ maps[m - 1]
        tensors[n] = acc
    return tensors


def local_maps_loop(series, cond_threshold=DEFAULT_NUMERICS.sv_ratio_min):
    n_steps = len(series)
    maps = series.maps
    out = np.empty_like(maps)
    ratios = np.ones(n_steps)
    flags = np.zeros(n_steps, dtype=bool)
    out[0] = maps[0]
    for n in range(1, n_steps):
        prev = maps[n - 1]
        sv = singular_values(prev)
        ratios[n] = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
        try:
            out[n] = maps[n] @ invert(prev, cond_threshold=cond_threshold)
        except NearSingularMap:
            flags[n] = True
            out[n] = maps[n] @ np.linalg.pinv(prev)
    return LocalMapSeries(dt=series.dt, t0=series.t0, maps=out, sv_ratios=ratios, flagged=flags)


def stationarity_loop(local):
    return np.array(
        [frobenius_diff(local.maps[n], local.maps[n - 1]) for n in range(1, len(local))]
    )


def extrapolate_loop(tensors, initial, k, total_steps):
    dim = tensors.dim
    active = tensors.tensors[:k]
    states = np.empty((total_steps + 1, dim, dim), dtype=complex)
    states[0] = np.asarray(initial, dtype=complex)
    history = np.zeros((k, dim * dim), dtype=complex)
    history[0] = vectorize(initial)
    filled = 1
    for n in range(1, total_steps + 1):
        terms = min(filled, k)
        vec = np.einsum("kab,kb->a", active[:terms], history[:terms])
        states[n] = devectorize(vec)
        history[1:] = history[:-1]
        history[0] = vec
        filled = min(filled + 1, k)
    return states


def extrapolate_tl_loop(local, initial, k, total_steps):
    if local.flagged[k - 1]:
        raise StationaryMapFlagged("flagged stationary map")
    stationary = local.maps[k - 1]
    dim = local.dim
    states = np.empty((total_steps + 1, dim, dim), dtype=complex)
    states[0] = np.asarray(initial, dtype=complex)
    vec = vectorize(initial)
    for n in range(total_steps):
        step = local.maps[n] if n < k else stationary
        vec = step @ vec
        states[n + 1] = devectorize(vec)
    return states


# ---------------------------------------------------------------------------
# random trace-preserving series
# ---------------------------------------------------------------------------

def random_series(seed, dim, n_steps, singular_at, leak):
    """Cumulative maps of a time-dependent Lindblad generator: a fixed part
    plus a decaying kick, so the transfer tensors beyond the first are
    nonzero. With ``singular_at`` set, that step is the near-reset channel
    rho -> (1 - leak) Tr(rho) |0><0| + leak rho, which leaves every later
    cumulative map with sigma_min/sigma_max of about ``leak``."""
    rng = np.random.default_rng(seed)
    base = random_lindblad_generator(rng, dim)
    kick = random_lindblad_generator(rng, dim)
    ground = np.zeros((dim, dim), dtype=complex)
    ground[0, 0] = 1.0
    reset = np.outer(vectorize(ground), trace_functional(dim))
    near_reset = (1.0 - leak) * reset + leak * np.eye(dim * dim)
    maps, acc = [], np.eye(dim * dim, dtype=complex)
    for n in range(n_steps):
        step = near_reset if n == singular_at else expm(base + np.exp(-0.3 * n) * kick, 0.1)
        acc = step @ acc
        maps.append(acc)
    return DynamicalMapSeries(dt=0.1, t0=0.0, maps=np.stack(maps))


@st.composite
def series_cases(draw):
    n_steps = draw(st.integers(2, 24))
    singular = draw(st.booleans())
    return random_series(
        seed=draw(st.integers(0, 2**32 - 1)),
        dim=draw(st.sampled_from([2, 3])),
        n_steps=n_steps,
        singular_at=draw(st.integers(0, n_steps - 2)) if singular else None,
        leak=draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-7])),
    )


def random_state(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(series=series_cases())
def test_local_maps_equal_loop(series):
    got = local_maps(series)
    want = local_maps_loop(series)
    assert np.array_equal(got.maps, want.maps)
    assert np.array_equal(got.sv_ratios, want.sv_ratios)
    assert np.array_equal(got.flagged, want.flagged)
    # stationarity sums its squares in another order: a few ulp, relative
    _, diffs = stationarity_profile(got)
    ref = stationarity_loop(want)
    assert np.all(np.abs(diffs - ref) <= 4 * EPS * ref)


def test_pinv_branch_reached():
    series = random_series(seed=3, dim=2, n_steps=12, singular_at=4, leak=1e-10)
    local = local_maps(series)
    # maps[4] and every later map are near-singular: steps 5.. are flagged
    assert not local.flagged[:5].any() and local.flagged[5:].all()
    assert np.array_equal(local.maps, local_maps_loop(series).maps)


def test_zero_map_flagged_at_zero_threshold():
    maps = random_series(seed=5, dim=2, n_steps=6, singular_at=None, leak=0.0).maps.copy()
    maps[2] = 0.0
    series = DynamicalMapSeries(dt=0.1, t0=0.0, maps=maps)
    got = local_maps(series, cond_threshold=0.0)
    want = local_maps_loop(series, cond_threshold=0.0)
    assert got.flagged[3] and got.sv_ratios[3] == 0.0
    assert np.array_equal(got.flagged, want.flagged)
    assert np.array_equal(got.maps, want.maps)


@given(series=series_cases())
def test_decompose_matches_loop_and_reconstructs(series):
    tensors = decompose(series).tensors
    want = decompose_loop(series)
    assert np.max(np.abs(tensors - want)) <= 1e-13
    norms = TransferTensorSeries.from_tensors(series.dt, want).norms
    ref_norms = np.array([np.linalg.norm(t) for t in want])
    assert np.all(np.abs(norms - ref_norms) <= 4 * EPS * ref_norms)
    # resumming the recursion gives back every map
    rebuilt = np.empty_like(tensors)
    for n in range(len(series)):
        rebuilt[n] = tensors[n] + sum(
            (tensors[m] @ rebuilt[n - 1 - m] for m in range(n)), np.zeros_like(tensors[0])
        )
        assert np.linalg.norm(rebuilt[n] - series.maps[n]) <= 1e-12 * np.linalg.norm(series.maps[n])


@given(series=series_cases(), state_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_extrapolators_equal_loops(series, state_seed, data):
    n = len(series)
    k = data.draw(st.integers(1, n))
    total = data.draw(st.integers(0, 3 * n))
    rho = random_state(state_seed, series.dim)

    tensors = TransferTensorSeries.from_tensors(series.dt, decompose_loop(series))
    ttm_states = extrapolate(tensors, rho, k, total)
    assert np.array_equal(ttm_states, extrapolate_loop(tensors, rho, k, total))
    assert np.all(np.abs(np.trace(ttm_states, axis1=1, axis2=2) - 1.0) <= 1e-10)

    local = local_maps_loop(series)
    if local.flagged[k - 1]:
        with pytest.raises(StationaryMapFlagged):
            extrapolate_tl(local, rho, k, total)
        return
    tl_states = extrapolate_tl(local, rho, k, total)
    assert np.array_equal(tl_states, extrapolate_tl_loop(local, rho, k, total))
    # an inversion at sigma_min/sigma_max = r rounds the trace by up to ~eps/r
    # (at most 130 eps/r over 400 random series, loops and batched alike), so
    # near the flag threshold the 1e-10 bound widens by that amplification
    tol = max(1e-10, 1e3 * EPS / local.sv_ratios[:k].min())
    assert np.all(np.abs(np.trace(tl_states, axis1=1, axis2=2) - 1.0) <= tol)
