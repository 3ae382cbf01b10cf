from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import SX, SY, SZ, random_hermitian, random_lindblad_generator
from dynamap import harness
from dynamap.errors import (
    BranchAmbiguity,
    DimensionMismatch,
    NonDiagonalizable,
    SingularBasis,
)
from dynamap.maps import (
    DynamicalMapSeries,
    devectorize,
    expm,
    from_trajectories,
    hamiltonian_superop,
    is_hermitian,
    is_trace_preserving,
    logm,
    matrix_units,
    singular_values,
    trace_functional,
    vectorize,
)
from test_batched_core import NearSingularMap, invert


class TestVectorize:
    def test_identity_column_stacking(self):
        assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))

    def test_basis_element_position(self):
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1.0
        vec = vectorize(e01)
        assert vec[2] == 1.0 and np.count_nonzero(vec) == 1

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(devectorize(vectorize(m)), m)

    def test_round_trip_many_dims(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4, 5):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert np.array_equal(devectorize(vectorize(m)), m)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            vectorize(np.zeros((2, 3)))


class TestFromTrajectories:
    def test_identity_evolution(self):
        basis = matrix_units(2)
        trajs = [[b.copy() for _ in range(4)] for b in basis]
        series = from_trajectories(basis, trajs, dt=0.1)
        for m in series.maps:
            assert np.max(np.abs(m - np.eye(4))) < 1e-14

    def test_matches_semigroup(self):
        rng = np.random.default_rng(3)
        gen = random_lindblad_generator(rng)
        dt, steps = 0.05, 6
        basis = matrix_units(2)
        trajs = [
            [devectorize(expm(gen, n * dt) @ vectorize(b)) for n in range(1, steps + 1)]
            for b in basis
        ]
        series = from_trajectories(basis, trajs, dt=dt)
        for n in range(steps):
            assert np.linalg.norm(series.maps[n] - expm(gen, (n + 1) * dt)) < 1e-10

    def test_basis_independence(self):
        rng = np.random.default_rng(4)
        gen = random_lindblad_generator(rng)
        dt, steps = 0.05, 5
        half = 0.5 * np.eye(2, dtype=complex)
        pauli_states = [half, half + 0.5 * SX, half + 0.5 * SY, half + 0.5 * SZ]

        def run(basis):
            trajs = [
                [devectorize(expm(gen, n * dt) @ vectorize(b)) for n in range(1, steps + 1)]
                for b in basis
            ]
            return from_trajectories(basis, trajs, dt=dt)

        a = run(matrix_units(2))
        b = run(pauli_states)
        for n in range(steps):
            assert np.linalg.norm(a.maps[n] - b.maps[n]) < 1e-10

    def test_singular_basis_rejected(self):
        basis = matrix_units(2)
        basis[3] = basis[0]  # linearly dependent
        trajs = [[b.copy()] for b in basis]
        with pytest.raises(SingularBasis):
            from_trajectories(basis, trajs, dt=0.1)

    def test_trace_preservation_propagates(self):
        rng = np.random.default_rng(5)
        gen = random_lindblad_generator(rng, n_jumps=2)
        dt, steps = 0.04, 8
        basis = matrix_units(2)
        trajs = [
            [devectorize(expm(gen, n * dt) @ vectorize(b)) for n in range(1, steps + 1)]
            for b in basis
        ]
        series = from_trajectories(basis, trajs, dt=dt)
        for m in series.maps:
            assert is_trace_preserving(m)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(4)), np.ones(4))

    def test_rank_deficient_map(self):
        # two initial states evolve to the same output: column space collapses
        m = np.zeros((4, 4), dtype=complex)
        target = vectorize(np.array([[0.5, 0], [0, 0.5]], dtype=complex))
        m[:, 0] = target
        m[:, 3] = target
        m[:, 1] = vectorize(SX) / 2
        m[:, 2] = vectorize(SY) / 2
        sv = singular_values(m)
        assert sv[-1] < 1e-12
        assert np.all(np.diff(sv) <= 1e-15)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = random_hermitian(rng, 2)
        u = expm(-1j * h, 1.0)
        conj = np.kron(u.conj(), u)
        before = singular_values(m)
        after = singular_values(conj @ m @ conj.conj().T)
        assert np.max(np.abs(before - after)) < 1e-12


class TestInvert:
    """The guarded inverse that ``local_maps_loop`` in test_batched_core uses."""

    def test_identity(self):
        assert np.allclose(invert(np.eye(4)), np.eye(4))

    def test_semigroup_inverse(self):
        rng = np.random.default_rng(13)
        gen = random_lindblad_generator(rng)
        fwd = expm(gen, 0.05)
        assert np.linalg.norm(invert(fwd) - expm(gen, -0.05)) < 1e-9

    def test_near_singular_raises_with_details(self):
        m = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(NearSingularMap) as err:
            invert(m)
        assert err.value.sigma_min == 0.0
        assert err.value.sigma_max == 1.0


class TestLogmExpm:
    def test_identity_gives_zero(self):
        gen = logm(np.eye(4, dtype=complex), 0.1)
        assert np.max(np.abs(gen)) < 1e-12

    def test_recovers_generator(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            gen = random_lindblad_generator(rng)
            dt = 0.05  # keeps eigenvalue arguments well inside the branch
            rebuilt = logm(expm(gen, dt), dt)
            assert np.linalg.norm(rebuilt - gen) < 1e-8 * max(1.0, np.linalg.norm(gen))

    def test_negative_real_eigenvalue_raises(self):
        with pytest.raises(BranchAmbiguity):
            logm(np.diag([-0.5, 1.0, 1.0, 1.0]).astype(complex), 0.1)

    def test_zero_eigenvalue_raises(self):
        with pytest.raises(BranchAmbiguity):
            logm(np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex), 0.1)

    def test_defective_map_raises(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        m[1, 1] = 1.0 + 1e-15
        with pytest.raises(NonDiagonalizable):
            logm(m, 0.1)

    def test_poorly_conditioned_uses_fallback(self):
        m = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        m[0, 1] = 1.0
        m[1, 1] = 2.0 + 1e-7  # eigenvector condition ~ 1e7: fallback regime
        gen = logm(m, 0.1)
        assert np.linalg.norm(expm(gen, 0.1) - m) < 1e-8 * np.linalg.norm(m)

    def test_expm_zero_generator(self):
        assert np.array_equal(expm(np.zeros((4, 4)), 1.0), np.eye(4))

    def test_expm_diagonal(self):
        gen = np.diag([-1.0, -2.0, -3.0, -4.0]).astype(complex)
        out = expm(gen, 1.0)
        assert np.allclose(np.diag(out), np.exp(np.diag(gen)), rtol=1e-12)

    def test_expm_semigroup_property(self):
        rng = np.random.default_rng(19)
        gen = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = expm(gen, 0.3) @ expm(gen, 0.45)
        rhs = expm(gen, 0.75)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_round_trip_series(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            gen = random_lindblad_generator(rng)
            m = expm(gen, 0.08)
            assert np.linalg.norm(expm(logm(m, 0.08), 0.08) - m) <= 1e-8 * np.linalg.norm(m)


class TestExpmAgainstScipy:
    """``maps.expm`` against ``scipy.linalg.expm``, the implementation of the
    same Al-Mohy & Higham algorithm it replaced. The two round in another
    order; s squarings amplify that by up to 2^s. A one-step map, whose
    scaled norm needs no squaring, is held to 1e-14 relative (Frobenius); a
    map over t_ref to 1e-12."""

    PIPELINE = str(Path(__file__).parents[1] / "perfbench" / "configs" / "embedding_pipeline.ini")

    @staticmethod
    def rel_err(gen, t):
        want = scipy.linalg.expm(np.asarray(gen, dtype=complex) * t)
        return np.linalg.norm(expm(gen, t) - want) / np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["embedding", PIPELINE, "lindblad"])
    def test_source_generators(self, name):
        config = harness.load_config(name)
        gen = harness.map_source(config).maps.args[0].generator  # the embedding
        assert self.rel_err(gen, config.dt) <= 1e-14
        assert self.rel_err(gen, config.t_ref) <= 1e-12
        if gen.shape == (196, 196):
            assert self.rel_err(gen, 400.0) <= 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        log_scale=st.floats(-6.0, 3.0),
    )
    def test_random_lindblad_generators(self, seed, dim, log_scale):
        gen = random_lindblad_generator(np.random.default_rng(seed), dim)
        t = 10.0**log_scale
        one_step = np.abs(gen * t).sum(axis=0).max() <= 1.0
        assert self.rel_err(gen, t) <= (1e-14 if one_step else 1e-12)

    def test_non_normal(self):
        # nilpotent plus diagonal: far from normal, so the Pade order and the
        # squaring count come from the norms of the powers, not of A
        rng = np.random.default_rng(41)
        gen = np.diag(-rng.uniform(0.1, 1.0, 6)) + np.triu(rng.normal(size=(6, 6)), 1)
        assert self.rel_err(gen, 0.1) <= 1e-14
        assert self.rel_err(gen, 50.0) <= 1e-12


class TestSeriesType:
    def test_times_and_head(self):
        maps = np.stack([np.eye(4, dtype=complex)] * 5)
        series = DynamicalMapSeries(dt=0.5, t0=1.0, maps=maps)
        assert np.allclose(series.times, [1.5, 2.0, 2.5, 3.0, 3.5])
        assert len(series.head(2)) == 2
        assert series.dim == 2

    @pytest.mark.parametrize("n", [-1, -5, 6])
    def test_head_outside_the_series_is_refused(self, n):
        series = DynamicalMapSeries(dt=0.5, t0=1.0, maps=np.stack([np.eye(4, dtype=complex)] * 5))
        with pytest.raises(DimensionMismatch, match=f"requested {n} maps, have 5"):
            series.head(n)
        assert len(series.head(0)) == 0

    def test_immutable(self):
        series = DynamicalMapSeries(dt=0.5, t0=0.0, maps=np.stack([np.eye(4, dtype=complex)]))
        with pytest.raises(ValueError):
            series.maps[0, 0, 0] = 2.0

    def test_is_hermitian_reads_the_tolerance_at_call_time(self, monkeypatch):
        m = np.array([[0.0, 1e-9], [0.0, 0.0]])
        assert not is_hermitian(m)
        monkeypatch.setattr("dynamap.maps.HERMITICITY_TOL", 1e-8)
        assert is_hermitian(m)

    def test_is_trace_preserving_reads_the_tolerance_at_call_time(self, monkeypatch):
        m = np.eye(4, dtype=complex)
        m[0, 0] += 1e-9
        assert not is_trace_preserving(m)
        monkeypatch.setattr("dynamap.maps.TRACE_TOL", 1e-8)
        assert is_trace_preserving(m)

    def test_trace_functional(self):
        w = trace_functional(2)
        rho = np.array([[0.25, 1j], [-1j, 0.75]])
        assert w @ vectorize(rho) == pytest.approx(1.0)

    def test_hamiltonian_superop_action(self):
        h = random_hermitian(np.random.default_rng(31), 2)
        rho = random_hermitian(np.random.default_rng(37), 2)
        lhs = devectorize(hamiltonian_superop(h) @ vectorize(rho))
        rhs = -1j * (h @ rho - rho @ h)
        assert np.max(np.abs(lhs - rhs)) < 1e-14
