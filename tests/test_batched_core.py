"""Batched linear-algebra core against the per-step loops it replaced.

The reference functions below are the per-step implementations of
``decompose``, ``local_maps``, ``stationarity_profile``, ``extrapolate``,
``extrapolate_tl``, ``rate_series`` (with the per-map ``invert``, ``logm``
and ``canonical_decompose`` they called), ``from_trajectories`` and the
path integral's commuting recursion that the batched code replaced, kept
verbatim as oracles. ``local_maps``, ``from_trajectories`` and both
extrapolators do the same arithmetic in the same order and must agree bit
for bit (``extrapolate_tl`` steps with ``ndarray.dot``, its oracle with
``@``: both reach the same BLAS matrix-vector product); ``decompose``, the
Frobenius norms, the rates and the commuting phases sum in another order
and are held to a tolerance fixed from double precision. ``rate_series`` must flag exactly the steps the loop flags, for
the same reasons.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_hermitian, random_lindblad_generator, semigroup_series
from dynamap.errors import (
    BranchAmbiguity,
    DegenerateRates,
    DynamapError,
    NonDiagonalizable,
    NotTracePreserving,
    StationaryMapFlagged,
)
from dynamap.lindblad import (
    DEGENERATE_RATE_TOL,
    GENERATOR_TP_TOL,
    CanonicalForm,
    RateSeries,
    _canonical_design,
    _canonical_stack,
    rate_series,
)
from dynamap.maps import (
    BRANCH_TOL,
    EIGVEC_COND_MAX,
    HERMITICITY_TOL,
    DynamicalMapSeries,
    devectorize,
    expm,
    from_trajectories,
    _logm_stack,
    singular_values,
    trace_functional,
    vectorize,
)
from dynamap.harness import PRESETS, map_source, preset_config
from dynamap.models import SystemSpec
from dynamap.propagators import (
    InfluenceCoefficients,
    _path_setup,
    _propagate_commuting,
    eta_coefficients,
)
from dynamap.timelocal import (
    SV_RATIO_MIN,
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


class NearSingularMap(DynamapError):
    """A map was too close to singular to invert reliably.

    Carries the smallest and largest singular value of the offending map.
    """

    def __init__(self, sigma_min, sigma_max):
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        ratio = self.sigma_min / self.sigma_max if self.sigma_max > 0 else 0.0
        super().__init__(
            f"map is near-singular: sigma_min/sigma_max = {ratio:.3e} "
            f"(sigma_min={self.sigma_min:.3e}, sigma_max={self.sigma_max:.3e})"
        )


def invert(superop, cond_threshold=SV_RATIO_MIN):
    """Exact inverse of a map, guarded against near-singularity.

    Raises :class:`NearSingularMap` when sigma_min/sigma_max falls below
    ``cond_threshold``.
    """
    superop = np.asarray(superop, dtype=complex)
    sv = singular_values(superop)
    smax = float(sv[0])
    smin = float(sv[-1])
    if smax == 0.0 or smin / smax < cond_threshold:
        raise NearSingularMap(smin, smax)
    return np.linalg.inv(superop)


def local_maps_loop(series, cond_threshold=SV_RATIO_MIN):
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
        [np.linalg.norm(local.maps[n] - local.maps[n - 1]) for n in range(1, len(local))]
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


def logm_loop(superop, dt):
    if dt <= 0:
        raise ValueError("dt must be positive")
    superop = np.asarray(superop, dtype=complex)
    evals, evecs = np.linalg.eig(superop)

    if np.any(evals == 0):
        raise BranchAmbiguity("map has a zero eigenvalue; logarithm undefined")
    args = np.angle(evals)
    dist_to_cut = np.pi - np.abs(args)
    if np.any(dist_to_cut < BRANCH_TOL):
        worst = evals[np.argmin(dist_to_cut)]
        raise BranchAmbiguity(
            f"eigenvalue {worst:.6e} lies within {BRANCH_TOL:.1e} of the "
            "negative real axis"
        )

    cond = np.linalg.cond(evecs)
    if not np.isfinite(cond) or cond > EIGVEC_COND_MAX:
        raise NonDiagonalizable(f"eigenvector condition number {cond:.3e}")
    log_map = evecs @ np.diag(np.log(evals)) @ np.linalg.inv(evecs)
    return log_map / dt


def canonical_decompose_loop(gen):
    gen = np.asarray(gen, dtype=complex)
    d2 = gen.shape[0]
    dim = int(round(np.sqrt(d2)))
    w = trace_functional(dim)
    residual = float(np.max(np.abs(w @ gen)))
    scale = max(1.0, float(np.linalg.norm(gen)))
    if residual > GENERATOR_TP_TOL * scale:
        raise NotTracePreserving(
            f"trace functional residual {residual:.3e} exceeds tolerance "
            f"{GENERATOR_TP_TOL * scale:.3e}"
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
    if np.min(gaps) < DEGENERATE_RATE_TOL:
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


def rate_series_loop(local):
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
                gen = logm_loop(local.maps[n], local.dt)
                form = canonical_decompose_loop(gen)
        except (BranchAmbiguity, NonDiagonalizable, NotTracePreserving):
            flagged[n] = True
            continue
        rates[n] = form.rates
        min_rate[n] = float(np.min(form.rates))
    return RateSeries(times=local.times, rates=rates, min_rate=min_rate, flagged=flagged)


def from_trajectories_loop(basis_states, trajectories):
    dim = np.asarray(basis_states[0]).shape[0]
    basis_mat = np.column_stack([vectorize(b) for b in basis_states])
    steps = len(trajectories[0])
    out = np.empty((steps, dim * dim, dim * dim), dtype=complex)
    for n in range(steps):
        evolved = np.column_stack([vectorize(traj[n]) for traj in trajectories])
        # E @ basis_mat = evolved  <=>  basis_mat.T @ E.T = evolved.T
        out[n] = np.linalg.solve(basis_mat.T, evolved.T).T
    return out


def propagate_commuting_loop(energies, dt, n_steps, kmax, self_phi, lag_phi, d2):
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


def test_zero_map_flagged_at_zero_threshold(monkeypatch):
    maps = random_series(seed=5, dim=2, n_steps=6, singular_at=None, leak=0.0).maps.copy()
    maps[2] = 0.0
    series = DynamicalMapSeries(dt=0.1, t0=0.0, maps=maps)
    monkeypatch.setattr("dynamap.timelocal.SV_RATIO_MIN", 0.0)
    got = local_maps(series)
    want = local_maps_loop(series, cond_threshold=0.0)
    assert got.flagged[3] and got.sv_ratios[3] == 0.0
    assert np.array_equal(got.flagged, want.flagged)
    assert np.array_equal(got.maps, want.maps)


@given(series=series_cases())
def test_decompose_matches_loop_and_reconstructs(series):
    tensors = decompose(series).tensors
    want = decompose_loop(series)
    assert np.max(np.abs(tensors - want)) <= 1e-13
    norms = TransferTensorSeries(series.dt, want).norms
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

    tensors = TransferTensorSeries(series.dt, decompose_loop(series))
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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_extrapolate_tl_equals_loop_on_presets(name):
    # the same zgemv in the same order: every bit, NaN and signed zero alike
    config = preset_config(name)
    local = local_maps(map_source(config).maps(config.n_short))
    for k in map(config.cutoff_steps, config.tau_c):
        if not local.flagged[k - 1]:
            got = extrapolate_tl(local, config.initial, k, config.n_ref)
            want = extrapolate_tl_loop(local, config.initial, k, config.n_ref)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       n_steps=st.integers(1, 24), data=st.data())
def test_extrapolators_keep_hermitian_states_hermitian(seed, dim, n_steps, data):
    # a semigroup map preserves Hermiticity, and so must both extrapolations
    # of its series; rounding stays below 170 eps of the largest initial
    # entry over 400 random cases and below 200 eps over 2000 steps, so the
    # bound is HERMITICITY_TOL (1e-12, about 4500 eps) on that scale
    gen = random_lindblad_generator(np.random.default_rng(seed), dim)
    series = semigroup_series(gen, 0.1, n_steps)
    k = data.draw(st.integers(1, n_steps))
    total = data.draw(st.integers(0, 3 * n_steps))
    rho = random_hermitian(np.random.default_rng(seed + 1), dim)
    tol = HERMITICITY_TOL * np.max(np.abs(rho))
    for states in (extrapolate(decompose(series), rho, k, total),
                   extrapolate_tl(local_maps(series), rho, k, total)):
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) <= tol


# rate_series: the batched log V (log lambda) V^-1 and the one lstsq over all
# steps round in another order than the loop. Both errors scale as eps times
# the eigenvector condition number kappa(V) times the rate magnitude: at most
# 162 eps kappa over 600 random series, and 1.3e-15 absolute on the 1000-step
# embedding_pipeline series. The bound is 1e3 eps kappa max(1, max|rate|).
def assert_rates_match(local, got, want):
    assert np.array_equal(got.flagged, want.flagged)
    assert np.array_equal(np.isnan(got.rates), np.isnan(want.rates))
    assert np.array_equal(np.isnan(got.min_rate), np.isnan(want.min_rate))
    ok = ~want.flagged
    kappa = np.linalg.cond(np.linalg.eig(local.maps[ok])[1])
    tol = 1e3 * EPS * kappa * np.maximum(1.0, np.max(np.abs(want.rates[ok]), axis=1))
    assert np.all(np.abs(got.rates[ok] - want.rates[ok]) <= tol[:, None])
    assert np.all(np.abs(got.min_rate[ok] - want.min_rate[ok]) <= tol)


@given(series=series_cases())
def test_rate_series_matches_loop(series):
    local = local_maps(series)
    assert_rates_match(local, rate_series(local), rate_series_loop(local))


def coherence_map(block):
    """Trace-preserving qubit map that keeps the populations and sends the
    coherences (rho_10, rho_01) through ``block``."""
    m = np.eye(4, dtype=complex)
    m[1:3, 1:3] = block
    return m


def test_rate_series_flag_reasons():
    maps = np.stack([
        expm(random_lindblad_generator(np.random.default_rng(11)), 0.1),
        coherence_map(np.zeros((2, 2))),
        coherence_map(-0.5 * np.eye(2)),
        coherence_map([[0.9, 1.0], [0.0, 0.9 + 1e-15]]),  # kappa(V) ~ 1e15
        2.0 * np.eye(4),                                  # log is not trace preserving
        coherence_map([[0.9, 1.0], [0.0, 0.9 + 1e-7]]),   # kappa(V) ~ 1e7
        coherence_map([[0.9, 1.0], [0.0, 0.9 + 1e-5]]),   # kappa(V) ~ 1e5
    ])
    local = LocalMapSeries(
        dt=0.1, t0=0.0, maps=maps, sv_ratios=np.ones(len(maps)), flagged=np.zeros(len(maps))
    )

    def describe(err):
        return None if err is None else f"{type(err).__name__}: {err}"

    def loop_failure(m):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateRates)
                canonical_decompose_loop(logm_loop(m, local.dt))
        except (BranchAmbiguity, NonDiagonalizable, NotTracePreserving) as err:
            return err
        return None

    want = [describe(loop_failure(m)) for m in maps]
    assert [w and w.split(":")[0] for w in want] == [
        None, "BranchAmbiguity", "BranchAmbiguity", "NonDiagonalizable",
        "NotTracePreserving", "NonDiagonalizable", None,
    ]
    assert "zero eigenvalue" in want[1] and "negative real axis" in want[2]

    gens, failures = _logm_stack(maps, local.dt)
    failures.update(_canonical_stack(gens)[4])
    assert [describe(failures.get(i)) for i in range(len(maps))] == want

    got = rate_series(local)
    assert np.array_equal(got.flagged, [False, True, True, True, True, True, False])
    assert_rates_match(local, got, rate_series_loop(local))


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]), steps=st.integers(1, 20))
def test_from_trajectories_equals_loop(seed, dim, steps):
    rng = np.random.default_rng(seed)
    basis = [random_state(rng.integers(2**32), dim) for _ in range(dim * dim)]
    trajectories = [[random_state(rng.integers(2**32), dim) for _ in range(steps)]
                    for _ in basis]
    got = from_trajectories(basis, trajectories, dt=0.1)
    assert np.array_equal(got.maps, from_trajectories_loop(basis, trajectories))


@functools.lru_cache(maxsize=None)
def preset_eta(name):
    config = preset_config(name)
    return eta_coefficients(config.bath, 0.0, config.dt, 250)


@given(preset=st.sampled_from(["subohmic", "drude_lorentz", "qd_phonon"]),
       seed=st.integers(0, 2**32 - 1), kmax=st.integers(1, 250), n_steps=st.integers(1, 300))
def test_commuting_recursion_matches_loop(preset, seed, kmax, n_steps):
    # a spin-boson preset's eta on a random H_S that commutes with its
    # sigma_z / 2 coupling. The two phase sums round in another order: on
    # these phases that moves a map entry by under 1e-15, and the change
    # grows with the size of the summed phase.
    full = preset_eta(preset)
    coeffs = InfluenceCoefficients(dt=full.dt, kmax=kmax, eta=full.eta[:kmax + 1])
    h_s = np.diag(np.random.default_rng(seed).uniform(-1.0, 1.0, 2)).astype(complex)
    system = SystemSpec(h_s=h_s, coupling_op=0.5 * np.diag([1.0, -1.0]).astype(complex))
    _, h_eig, self_phi, lag_phi, commuting = _path_setup(system, coeffs)
    assert commuting
    args = (np.diag(h_eig).real, coeffs.dt, n_steps, kmax, self_phi, lag_phi, 4)
    got = _propagate_commuting(*args)
    want = propagate_commuting_loop(*args)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(got == 0, want == 0)
