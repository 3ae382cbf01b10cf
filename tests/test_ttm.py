import numpy as np
import pytest

from conftest import EXCITED, SZ, random_lindblad_generator, semigroup_series
from dynamap.errors import CutoffExceedsData
from dynamap.maps import DynamicalMapSeries, devectorize, expm, vectorize
from dynamap.ttm import decompose, extrapolate, tensor_norm_profile


def random_tp_series(rng, steps, dt=0.1):
    """Products of distinct one-step maps: trace-preserving, non-semigroup."""
    maps = []
    acc = np.eye(4, dtype=complex)
    for _ in range(steps):
        acc = expm(random_lindblad_generator(rng), dt) @ acc
        maps.append(acc)
    return DynamicalMapSeries(dt=dt, t0=0.0, maps=np.stack(maps))


def resum(tensors, series):
    """Brute-force re-assembly of cumulative maps from tensors."""
    t = tensors.tensors
    maps = series.maps
    out = []
    for n in range(len(series)):
        acc = t[n].copy()
        for m in range(1, n + 1):
            acc = acc + t[n - m] @ maps[m - 1]
        out.append(acc)
    return out


class TestDecompose:
    def test_single_entry_equals_map(self):
        rng = np.random.default_rng(1)
        series = random_tp_series(rng, 1)
        tensors = decompose(series)
        assert np.array_equal(tensors.tensors[0], series.maps[0])

    def test_markovian_series_has_single_tensor(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            series = semigroup_series(random_lindblad_generator(rng), 0.05, 12)
            tensors = decompose(series)
            assert np.max(np.abs(tensors.tensors[0] - series.maps[0])) < 1e-14
            assert np.max(tensors.norms[1:]) <= 1e-12

    def test_resummation_recovers_maps(self):
        rng = np.random.default_rng(3)
        series = random_tp_series(rng, 6)
        tensors = decompose(series)
        for n, rebuilt in enumerate(resum(tensors, series)):
            assert np.max(np.abs(rebuilt - series.maps[n])) < 1e-12

    def test_reconstruction_relative_error(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            series = random_tp_series(rng, 20)
            tensors = decompose(series)
            for n, rebuilt in enumerate(resum(tensors, series)):
                norm = np.linalg.norm(series.maps[n])
                assert np.linalg.norm(rebuilt - series.maps[n]) <= 1e-12 * norm


class TestExtrapolate:
    def test_untruncated_matches_direct_propagation(self):
        rng = np.random.default_rng(5)
        series = random_tp_series(rng, 15)
        tensors = decompose(series)
        states = extrapolate(tensors, EXCITED, cutoff_steps=15, total_steps=15)
        assert np.array_equal(states[0], EXCITED)
        for n in range(1, 16):
            exact = devectorize(series.maps[n - 1] @ vectorize(EXCITED))
            assert np.max(np.abs(states[n] - exact)) < 1e-12

    def test_markovian_tensors_give_powers(self):
        rng = np.random.default_rng(6)
        gen = random_lindblad_generator(rng)
        series = semigroup_series(gen, 0.1, 10)
        tensors = decompose(series)
        states = extrapolate(tensors, EXCITED, cutoff_steps=1, total_steps=40)
        step = series.maps[0]
        vec = vectorize(EXCITED)
        for n in range(1, 41):
            vec = step @ vec
            assert np.max(np.abs(states[n] - devectorize(vec))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        series = random_tp_series(rng, 8)
        tensors = decompose(series)
        rho_a = EXCITED
        rho_b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        alpha, beta = 0.3, 0.7
        combo = extrapolate(tensors, alpha * rho_a + beta * rho_b, 8, 20)
        separate = alpha * extrapolate(tensors, rho_a, 8, 20) + beta * extrapolate(
            tensors, rho_b, 8, 20
        )
        assert np.max(np.abs(combo - separate)) < 1e-12

    def test_trace_monitored_over_long_run(self):
        rng = np.random.default_rng(8)
        gen = random_lindblad_generator(rng)
        series = semigroup_series(gen, 0.05, 20)
        tensors = decompose(series)
        states = extrapolate(tensors, EXCITED, cutoff_steps=20, total_steps=10_000)
        traces = np.einsum("nii->n", states)
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_cutoff_exceeding_data_rejected(self):
        rng = np.random.default_rng(9)
        tensors = decompose(random_tp_series(rng, 5))
        with pytest.raises(CutoffExceedsData):
            extrapolate(tensors, EXCITED, cutoff_steps=6, total_steps=10)


class TestNormProfile:
    def test_markovian_profile(self):
        rng = np.random.default_rng(10)
        series = semigroup_series(random_lindblad_generator(rng), 0.1, 8)
        times, norms = tensor_norm_profile(decompose(series))
        assert np.allclose(times, 0.1 * np.arange(1, 9))
        assert norms[0] > 0.5
        assert np.max(norms[1:]) <= 1e-12
