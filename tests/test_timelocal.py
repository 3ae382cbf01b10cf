import numpy as np
import pytest

from conftest import EXCITED, SZ, random_lindblad_generator, semigroup_series
from dynamap.errors import CutoffExceedsData, StationaryMapFlagged
from dynamap.maps import (
    DynamicalMapSeries,
    devectorize,
    expm,
    pauli,
    vectorize,
)
from dynamap.models import SystemSpec, build_embedding
from dynamap.propagators import embedding_propagate, extended_spectrum
from dynamap.timelocal import (
    extrapolate_tl,
    local_maps,
    spectral_stability,
    stationarity_profile,
)
from dynamap.ttm import decompose, extrapolate


class TestLocalMaps:
    def test_identity_series(self):
        series = DynamicalMapSeries(dt=0.1, t0=0.0, maps=np.stack([np.eye(4, dtype=complex)] * 6))
        local = local_maps(series)
        assert not local.flagged.any()
        for m in local.maps:
            assert np.max(np.abs(m - np.eye(4))) < 1e-14

    def test_semigroup_gives_constant_step(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            gen = random_lindblad_generator(rng)
            series = semigroup_series(gen, 0.05, 30)
            local = local_maps(series)
            one = expm(gen, 0.05)
            assert not local.flagged.any()
            for m in local.maps:
                assert np.linalg.norm(m - one) < 1e-9

    def test_composition_consistency(self):
        rng = np.random.default_rng(2)
        maps = []
        acc = np.eye(4, dtype=complex)
        for _ in range(10):
            acc = expm(random_lindblad_generator(rng), 0.1) @ acc
            maps.append(acc)
        series = DynamicalMapSeries(dt=0.1, t0=0.0, maps=np.stack(maps))
        local = local_maps(series)
        assert not local.flagged.any()
        prod = np.eye(4, dtype=complex)
        for n in range(10):
            prod = local.maps[n] @ prod
            assert np.linalg.norm(prod - series.maps[n]) < 1e-8

    def test_flags_near_singular_inversions(self):
        # strongly dissipative semigroup: cumulative map loses rank over time
        gen = -2.0 * np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
        series = semigroup_series(gen, 1.0, 15)
        local = local_maps(series)
        assert local.flagged.any()
        assert not local.flagged[0]
        first = np.nonzero(local.flagged)[0][0]
        assert np.all(local.flagged[first:])
        assert np.all(local.sv_ratios[1:] <= 1.0)
        # flagged entries carry the least-squares fill, finite numbers
        assert np.all(np.isfinite(local.maps))


class TestStationarityProfile:
    def test_semigroup_is_stationary(self):
        rng = np.random.default_rng(3)
        series = semigroup_series(random_lindblad_generator(rng), 0.05, 25)
        times, diffs = stationarity_profile(local_maps(series))
        assert diffs.shape == (24,)
        assert np.max(diffs) <= 1e-12
        assert np.allclose(times, 0.05 * np.arange(1, 25))

    def test_maps_stationary_while_state_still_moving(self):
        # weakly coupled fast mode: single-step maps converge at the mode
        # decay rate while the system itself relaxes much more slowly
        system = SystemSpec(h_s=0.5 * pauli("x"), coupling_op=0.5 * pauli("z"))
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.1, decay=2.0, n_max=6)
        series = embedding_propagate(emb, 0.1, 400)
        local = local_maps(series)
        _, diffs = stationarity_profile(local)
        states = np.array([devectorize(m @ vectorize(EXCITED)) for m in series.maps])
        sz = np.einsum("nij,ji->n", states, SZ).real
        window = (diffs < 1e-6) & (np.abs(sz[1 : 1 + len(diffs)]) > 1e-2)
        assert np.count_nonzero(window) > 100

    def test_convergence_rate_set_by_slowest_discarded_mode(self):
        system = SystemSpec(h_s=0.5 * pauli("x"), coupling_op=0.5 * pauli("z"))
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.1, decay=2.0, n_max=6)
        series = embedding_propagate(emb, 0.1, 200)
        local = local_maps(series)
        times, diffs = stationarity_profile(local)
        evals = extended_spectrum(emb)
        decay = np.sort(-evals.real)
        slowest_discarded = decay[4]  # D^2 = 4 modes are retained
        # empirical decay rate between t=5 and t=15
        i1, i2 = 49, 149
        rate = np.log(diffs[i1] / diffs[i2]) / (times[i2] - times[i1])
        assert rate >= 0.8 * slowest_discarded
        assert rate <= 1.2 * slowest_discarded


class TestExtrapolateTl:
    def test_semigroup_exact_over_long_horizon(self):
        rng = np.random.default_rng(4)
        gen = random_lindblad_generator(rng)
        series = semigroup_series(gen, 0.05, 20)
        local = local_maps(series)
        states = extrapolate_tl(local, EXCITED, cutoff_steps=1, total_steps=10_000)
        exact = devectorize(expm(gen, 10_000 * 0.05) @ vectorize(EXCITED))
        sz_err = abs(np.trace(SZ @ (states[-1] - exact)))
        assert sz_err < 1e-9

    def test_exact_below_cutoff(self):
        rng = np.random.default_rng(5)
        maps = []
        acc = np.eye(4, dtype=complex)
        for _ in range(12):
            acc = expm(random_lindblad_generator(rng), 0.1) @ acc
            maps.append(acc)
        series = DynamicalMapSeries(dt=0.1, t0=0.0, maps=np.stack(maps))
        local = local_maps(series)
        states = extrapolate_tl(local, EXCITED, cutoff_steps=8, total_steps=12)
        for n in range(1, 9):
            exact = devectorize(series.maps[n - 1] @ vectorize(EXCITED))
            assert np.max(np.abs(states[n] - exact)) < 1e-10

    def test_flagged_cutoff_refused(self):
        gen = -2.0 * np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
        series = semigroup_series(gen, 1.0, 15)
        local = local_maps(series)
        first_flag = int(np.nonzero(local.flagged)[0][0])
        with pytest.raises(StationaryMapFlagged):
            extrapolate_tl(local, EXCITED, cutoff_steps=first_flag + 1, total_steps=30)

    def test_cutoff_beyond_data_rejected(self):
        rng = np.random.default_rng(6)
        series = semigroup_series(random_lindblad_generator(rng), 0.1, 5)
        with pytest.raises(CutoffExceedsData):
            extrapolate_tl(local_maps(series), EXCITED, cutoff_steps=6, total_steps=10)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_step_rejected_as_by_ttm(self, k):
        rng = np.random.default_rng(6)
        series = semigroup_series(random_lindblad_generator(rng), 0.1, 5)
        with pytest.raises(CutoffExceedsData, match="at least 1"):
            extrapolate_tl(local_maps(series), EXCITED, cutoff_steps=k, total_steps=10)
        with pytest.raises(CutoffExceedsData, match="at least 1"):
            extrapolate(decompose(series), EXCITED, cutoff_steps=k, total_steps=10)


class TestSpectralStability:
    def test_identity_stable(self):
        report = spectral_stability(np.eye(4))
        assert report.stable
        assert report.max_modulus == pytest.approx(1.0)

    def test_dissipative_semigroup_stable_with_unit_leading_eigenvalue(self):
        rng = np.random.default_rng(7)
        gen = random_lindblad_generator(rng)
        report = spectral_stability(expm(gen, 0.3))
        assert report.stable
        assert report.max_modulus == pytest.approx(1.0, abs=1e-9)
        assert abs(report.leading_eigenvalue - 1.0) < 1e-9

    def test_expanding_map_unstable(self):
        report = spectral_stability(np.diag([1.1, 0.5, 0.5, 0.5]))
        assert not report.stable
        assert report.max_modulus == pytest.approx(1.1)
