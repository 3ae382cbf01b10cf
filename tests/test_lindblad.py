import warnings

import numpy as np
import pytest

from conftest import SZ, random_tp_generator
from dynamap.errors import DegenerateRates, NotTracePreserving
from dynamap.lindblad import (
    canonical_decompose,
    gell_mann_basis,
    rate_series,
    reassemble,
)
from dynamap.maps import (
    DynamicalMapSeries,
    expm,
    pauli,
    trace_functional,
)
from dynamap.timelocal import local_maps


def dephasing_generator(gamma):
    """gamma (sz rho sz - rho), written out as an explicit superoperator."""
    eye = np.eye(2)
    return gamma * (np.kron(SZ.T, SZ) - np.kron(eye, eye))


class TestGellMannBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthonormal_traceless_hermitian(self, dim):
        basis = gell_mann_basis(dim)
        assert len(basis) == dim * dim - 1
        for i, a in enumerate(basis):
            assert abs(np.trace(a)) < 1e-14
            assert np.max(np.abs(a - a.conj().T)) < 1e-14
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert np.trace(a.conj().T @ b) == pytest.approx(expected, abs=1e-14)


class TestCanonicalDecompose:
    def test_unitary_generator_has_zero_rates(self):
        gen = -1j * (np.kron(np.eye(2), 0.5 * pauli("x")) - np.kron(0.5 * pauli("x").T, np.eye(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRates)
            form = canonical_decompose(gen)
        assert np.max(np.abs(form.rates)) < 1e-10
        assert np.max(np.abs(form.h_eff - 0.5 * pauli("x"))) < 1e-10

    def test_dephasing_recovers_rate_and_operator(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRates)
            form = canonical_decompose(dephasing_generator(0.3))
        assert form.rates[0] == pytest.approx(0.3, abs=1e-10)
        assert np.max(np.abs(form.rates[1:])) < 1e-10
        assert np.max(np.abs(form.ops[0] - SZ)) < 1e-10

    def test_operators_unit_two_norm_and_orthogonal(self):
        rng = np.random.default_rng(1)
        gen = random_tp_generator(rng, 3)
        form = canonical_decompose(gen)
        for op in form.ops:
            assert np.linalg.norm(op, 2) == pytest.approx(1.0, abs=1e-10)
            assert abs(np.trace(op)) < 1e-10
        for i, a in enumerate(form.ops):
            for j, b in enumerate(form.ops):
                if i != j:
                    assert abs(np.trace(a.conj().T @ b)) < 1e-10

    def test_h_eff_hermitian_traceless(self):
        rng = np.random.default_rng(2)
        form = canonical_decompose(random_tp_generator(rng, 2))
        assert np.max(np.abs(form.h_eff - form.h_eff.conj().T)) < 1e-12
        assert abs(np.trace(form.h_eff)) < 1e-12

    def test_rejects_non_trace_preserving(self):
        gen = np.eye(4, dtype=complex)
        with pytest.raises(NotTracePreserving):
            canonical_decompose(gen)

    def test_degenerate_rates_warn(self):
        with pytest.warns(DegenerateRates):
            canonical_decompose(dephasing_generator(0.3))

    def test_rates_sorted_by_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            form = canonical_decompose(random_tp_generator(rng, 2))
            mags = np.abs(form.rates)
            assert np.all(np.diff(mags) <= 1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_generators(self, dim):
        rng = np.random.default_rng(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRates)
            for _ in range(25):
                gen = random_tp_generator(rng, dim)
                rebuilt = reassemble(canonical_decompose(gen))
                assert np.linalg.norm(rebuilt - gen) <= 1e-9 * np.linalg.norm(gen)

    def test_dephasing_exact(self):
        gen = dephasing_generator(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRates)
            rebuilt = reassemble(canonical_decompose(gen))
        assert np.max(np.abs(rebuilt - gen)) < 1e-12

    def test_rates_scale_linearly_with_fixed_operators(self):
        rng = np.random.default_rng(5)
        gen = random_tp_generator(rng, 2)
        form = canonical_decompose(gen)
        assert np.min(np.abs(np.diff(np.abs(form.rates)))) > 1e-6  # nondegenerate draw
        scaled = canonical_decompose(2.5 * gen)
        assert np.allclose(scaled.rates, 2.5 * form.rates, atol=1e-10)
        for a, b in zip(scaled.ops, form.ops):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_predictions_gauge_independent(self):
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRates)
            for _ in range(5):
                gen = random_tp_generator(rng, 2)
                rebuilt = reassemble(canonical_decompose(gen))
                a = expm(rebuilt, 0.2)
                b = expm(gen, 0.2)
                assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)

    def test_reassemble_empty_form(self):
        from dynamap.lindblad import CanonicalForm

        form = CanonicalForm(h_eff=np.zeros((2, 2)), rates=np.zeros(0), ops=())
        assert np.max(np.abs(reassemble(form))) == 0.0

    def test_reassembled_generator_annihilates_trace(self):
        rng = np.random.default_rng(11)
        gen = reassemble(canonical_decompose(random_tp_generator(rng, 2)))
        w = trace_functional(2)
        assert np.max(np.abs(w @ gen)) < 1e-12


class TestRateSeries:
    def test_constant_for_semigroup(self):
        rng = np.random.default_rng(13)
        gen = random_tp_generator(rng, 2, definite=True)
        form = canonical_decompose(gen)
        dt = 0.05
        series = DynamicalMapSeries(
            dt=dt, t0=0.0, maps=np.stack([expm(gen, n * dt) for n in range(1, 13)])
        )
        rates = rate_series(local_maps(series))
        assert not rates.flagged.any()
        for row in rates.rates:
            assert np.allclose(row, form.rates, atol=1e-8)
        assert np.allclose(rates.min_rate, np.min(form.rates), atol=1e-8)

    def test_flagged_rows_are_nan(self):
        gen = -2.0 * np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
        series = DynamicalMapSeries(
            dt=1.0, t0=0.0, maps=np.stack([expm(gen, n) for n in range(1, 16)])
        )
        local = local_maps(series)
        rates = rate_series(local)
        assert rates.flagged.any()
        assert np.all(np.isnan(rates.rates[rates.flagged]))
        assert np.all(np.isfinite(rates.rates[~rates.flagged]))

    def test_negative_rate_detected(self):
        # indefinite coefficient matrix: one channel flows backwards
        rng = np.random.default_rng(17)
        found_negative = False
        for _ in range(10):
            gen = random_tp_generator(rng, 2)
            dt = 0.02
            series = DynamicalMapSeries(
                dt=dt, t0=0.0, maps=np.stack([expm(gen, n * dt) for n in range(1, 4)])
            )
            rates = rate_series(local_maps(series))
            if np.all(rates.min_rate < 0):
                found_negative = True
                break
        assert found_negative
