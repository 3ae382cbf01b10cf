from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import EXCITED, SX, SZ
from dynamap.errors import MemoryBudgetExceeded, NonDiagonalizableCoupling, QuadratureFailure
from dynamap.maps import expm, is_trace_preserving, vectorize, devectorize
from dynamap.models import (
    DrudeLorentzDensity,
    EmbeddingSpec,
    QDPhononDensity,
    SubOhmicDensity,
    SystemSpec,
    TabulatedDensity,
    bath_correlation,
    builtin_model,
)
from dynamap.numerics import DEFAULT_NUMERICS, NumericsConfig
from dynamap.propagators import (
    InfluenceCoefficients,
    embedding_propagate,
    embedding_state,
    eta_coefficients,
    quapi_propagate,
    _readout,
)

SUB = SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0)
DL = DrudeLorentzDensity(lam=0.1, gamma=1.0)
QD = QDPhononDensity(c_e=0.1271, c_h=-0.0635, omega_e=2.555, omega_h=2.938)
ZERO = TabulatedDensity(omegas=(0.0, 1.0), values=(0.0, 0.0))
# triangle with its kinks at decade breakpoints (peak 1, support cutoff 20)
TRIANGLE = TabulatedDensity(omegas=(0.0, 1.0, 10.0), values=(0.0, 0.5, 0.0))


def truncate(coeffs, kmax):
    return InfluenceCoefficients(dt=coeffs.dt, kmax=kmax, eta=coeffs.eta[: kmax + 1])


class TestEmbeddingPropagate:
    def test_decoupled_mode_gives_bare_unitary(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        spec = EmbeddingSpec(system=system, mode_frequency=1.0, coupling=0.0, decay=0.5, n_max=4)
        series = embedding_propagate(spec, 0.1, 30)
        for n in range(1, 31):
            u = expm(-1j * system.h_s, n * 0.1)
            assert np.max(np.abs(series.maps[n - 1] - np.kron(u.conj(), u))) < 1e-12

    def test_matches_direct_extended_exponential(self):
        from dynamap.models import build_embedding

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(
            EmbeddingSpec(system=system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        )
        dt = 0.1
        series = embedding_propagate(emb, dt, 60)
        for n in (1, 7, 23, 60):
            direct = emb.project @ expm(emb.generator, n * dt) @ emb.embed
            assert np.max(np.abs(series.maps[n - 1] - direct)) < 1e-10

    def test_composition_fails_but_extended_identity_holds(self):
        # non-Markovianity witness: E(t_{n+m}) != E(t_n) E(t_m) in general
        from dynamap.models import build_embedding

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(
            EmbeddingSpec(system=system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        )
        series = embedding_propagate(emb, 0.1, 40)
        composed = series.maps[19] @ series.maps[19]
        assert np.max(np.abs(series.maps[39] - composed)) > 1e-6

    def test_trace_and_hermiticity_preserved(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        spec = EmbeddingSpec(system=system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        series = embedding_propagate(spec, 0.1, 40)
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        for m in series.maps:
            assert is_trace_preserving(m, 1e-10)
            out = devectorize(m @ vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_embedding_state_at_grid_point(self):
        from dynamap.models import build_embedding

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(
            EmbeddingSpec(system=system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        )
        series = embedding_propagate(emb, 0.1, 50)
        direct = embedding_state(emb, EXCITED, 5.0)
        powered = devectorize(series.maps[49] @ vectorize(EXCITED))
        assert np.max(np.abs(direct - powered)) < 1e-10


def window_integral(sd, temperature, dt, k):
    """eta_k from its definition, int (dt - |u|) C(k dt + u) du over the
    step window(s), by adaptive quadrature over bath_correlation."""
    corr = cache(lambda t: bath_correlation(sd, temperature, t))
    lo = 0.0 if k == 0 else -dt
    points = None if k == 0 else [0.0]
    re, im = (
        quad(lambda u: part((dt - abs(u)) * corr(k * dt + u)), lo, dt, points=points,
             epsabs=1e-14, epsrel=1e-10, limit=200)[0]
        for part in (np.real, np.imag)
    )
    return complex(re, im)


class TestEtaCoefficients:
    def test_zero_density_gives_zero(self):
        coeffs = eta_coefficients(ZERO, 0.0, 0.1, 4)
        assert np.max(np.abs(coeffs.eta)) == 0.0

    @pytest.mark.parametrize(
        "sd, temperature, dt, kmax",
        [
            (SUB, 0.0, 0.08, 5),
            (DL, 0.0, 0.05, 5),
            (DL, 1.0, 0.05, 10),
            (QD, 0.0, 0.05, 8),
            (TRIANGLE, 0.5, 0.1, 10),
        ],
        ids=["subohmic", "drude_lorentz", "drude_lorentz_T1", "qd_phonon", "tabulated_T0.5"],
    )
    def test_matches_window_integral_of_correlation(self, sd, temperature, dt, kmax):
        coeffs = eta_coefficients(sd, temperature, dt, kmax)
        for k in (0, 1, kmax):
            oracle = window_integral(sd, temperature, dt, k)
            assert abs(coeffs.eta[k] - oracle) <= 1e-7 * abs(oracle), k

    def test_unreachable_eta_rtol_raises(self):
        # linear interpolation between the nodes leaves kinks inside the
        # decade segments, which holds the quadrature to ~1e-9 relative:
        # enough for the default eta_rtol, not for 1e-12, where the rule's
        # floor 1e-10 |C(0)| dt^2 is what remains. The coarser quad_rtol
        # only lets C(0) itself through the kinks.
        w = np.linspace(0.0, 8.0, 9)
        kinked = TabulatedDensity(
            omegas=tuple(w), values=tuple(0.3 * w * np.exp(-w / 2.0) * (w < 8.0))
        )
        numerics = NumericsConfig(quad_rtol=1e-5)
        eta_coefficients(kinked, 0.0, 0.1, 5, numerics=numerics)
        with pytest.raises(QuadratureFailure):
            eta_coefficients(kinked, 0.0, 0.1, 5, numerics=replace(numerics, eta_rtol=1e-12))

    def test_diagonal_window_against_double_trapezoid(self):
        dt = 0.05
        coeffs = eta_coefficients(DL, 0.0, dt, 1)
        # triangular reduction of the ordered double window integral; C has a
        # logarithmic short-time singularity, so the trapezoid mesh is graded
        taus = np.concatenate([[0.0], np.geomspace(1e-9 * dt, dt, 8001)])
        cvals = np.array([bath_correlation(DL, 0.0, t) for t in taus])
        oracle = np.trapezoid((dt - taus) * cvals, taus)
        assert abs(coeffs.eta[0] - oracle) <= 1e-6 * abs(oracle)

    def test_lag_window_against_double_trapezoid(self):
        dt = 0.08
        k = 3
        coeffs = eta_coefficients(SUB, 0.0, dt, k)
        n_grid = 161
        grid = np.linspace(0.0, dt, n_grid)
        # brute-force double integral over the window pair at lag k; the
        # integrand depends on u - v only, so evaluate C per diagonal
        deltas = {}
        for i in range(n_grid):
            for j in range(n_grid):
                deltas.setdefault(i - j, k * dt + grid[i] - grid[j])
        cvals = {key: bath_correlation(SUB, 0.0, t) for key, t in deltas.items()}
        cmat = np.array([[cvals[i - j] for j in range(n_grid)] for i in range(n_grid)])
        oracle = np.trapezoid(np.trapezoid(cmat, grid, axis=1), grid)
        assert abs(coeffs.eta[k] - oracle) <= 1e-5 * abs(oracle)

    def test_subohmic_lag_decay_is_algebraic(self):
        coeffs = eta_coefficients(SUB, 0.0, 0.1, 20)
        k = np.arange(4, 21)
        mags = np.abs(coeffs.eta[4:])
        slope = np.polyfit(np.log(k), np.log(mags), 1)[0]
        assert slope < -0.5

    def test_magnitudes_decay_overall(self):
        coeffs = eta_coefficients(SUB, 0.0, 0.08, 10)
        mags = np.abs(coeffs.eta)
        assert mags[-1] < mags[1]
        assert np.all(np.isfinite(coeffs.eta))


class TestQuapiPropagate:
    def test_zero_coupling_is_bare_unitary(self):
        system, _, _ = builtin_model("subohmic")
        coeffs = eta_coefficients(ZERO, 0.0, 0.08, 3)
        series = quapi_propagate(system, coeffs, 40)
        for n in range(1, 41):
            u = expm(-1j * system.h_s, n * 0.08)
            assert np.max(np.abs(series.maps[n - 1] - np.kron(u.conj(), u))) < 1e-10

    def test_commuting_branch_matches_dense(self, subohmic_run):
        _, _, eta, _ = subohmic_run
        coeffs = truncate(eta, 4)
        system = SystemSpec(h_s=np.zeros((2, 2)), coupling_op=0.5 * SZ)
        commuting = quapi_propagate(system, coeffs, 8)
        # a numerically off-diagonal Hamiltonian forces the dense tensor path
        system_dense = SystemSpec(
            h_s=np.array([[0.0, 1e-300], [1e-300, 0.0]]), coupling_op=0.5 * SZ
        )
        dense = quapi_propagate(system_dense, coeffs, 8)
        assert np.max(np.abs(commuting.maps - dense.maps)) < 1e-12

    def test_trace_preserving(self, subohmic_run):
        _, _, _, series = subohmic_run
        for m in series.maps[::25]:
            assert is_trace_preserving(m, 1e-8)

    def test_hermiticity_preserved(self, subohmic_run):
        _, _, _, series = subohmic_run
        rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]], dtype=complex)
        for m in series.maps[::50]:
            out = devectorize(m @ vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_memory_hierarchy_converges(self, subohmic_run):
        system, _, eta, _ = subohmic_run
        n_steps = 30
        final = {}
        for kmax in range(1, 6):
            series = quapi_propagate(system, truncate(eta, kmax), n_steps)
            final[kmax] = series.maps[-1]
        diffs = [np.linalg.norm(final[k + 1] - final[k]) for k in range(1, 5)]
        for a, b in zip(diffs[:-1], diffs[1:]):
            assert b <= a + 1e-10

    def test_subohmic_shape(self, subohmic_run):
        # fast decaying oscillation at early times, slow monotone decay later
        _, _, _, series = subohmic_run
        states = np.array([devectorize(m @ vectorize(EXCITED)) for m in series.maps])
        sz = np.einsum("nij,ji->n", states, SZ).real
        early = sz[: int(10 / 0.08)]
        assert early.min() < -0.05  # oscillates through zero
        late = sz[int(25 / 0.08) :]
        assert np.max(np.abs(late)) < 0.02  # decayed

    def test_memory_budget_guard(self):
        system, _, _ = builtin_model("subohmic")
        coeffs = InfluenceCoefficients(dt=0.08, kmax=3, eta=np.ones(4, dtype=complex))
        tight = NumericsConfig(memory_budget=100.0)
        with pytest.raises(MemoryBudgetExceeded):
            quapi_propagate(system, coeffs, 5, numerics=tight)

    def test_memory_budget_is_peak_bytes(self):
        # the dense recursion's largest array holds (D^2)^(kmax+2) complex128
        system, _, _ = builtin_model("subohmic")
        coeffs = InfluenceCoefficients(dt=0.08, kmax=3, eta=np.full(4, 0.01, dtype=complex))
        peak = 16 * 4 ** (3 + 2)
        with pytest.raises(MemoryBudgetExceeded):
            quapi_propagate(system, coeffs, 5, numerics=NumericsConfig(memory_budget=peak - 1))
        quapi_propagate(system, coeffs, 5, numerics=NumericsConfig(memory_budget=peak))
        # the default still admits kmax = 8 at D = 2
        assert 16 * 4 ** (8 + 2) <= DEFAULT_NUMERICS.memory_budget

    def test_readout_rounded_once(self):
        # each map entry sum_{h,l} k_half[a, l] tensor[b, h, l] against its
        # exact rational value: within half an ulp plus the accumulation error
        # of the platform's long double (about a tenth of an ulp on x86-64).
        # Terms of similar phase, as in the propagator, keep that error small.
        rng = np.random.default_rng(7)
        shape = (4,) * 5  # batch, three history variables, latest
        tensor = 1.0 + 0.2 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        k_half = 1.0 + 0.2 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        got = _readout(tensor, k_half)
        history = tensor.reshape(4, -1, 4)
        unit = 0.5 * float(np.finfo(np.longdouble).eps)
        n_ops = history.shape[1] * 4 + 4
        for a in range(4):
            for b in range(4):
                re = im = Fraction(0)
                size = 0.0
                for h in range(history.shape[1]):
                    for l in range(4):
                        kr, ki = Fraction(k_half[a, l].real), Fraction(k_half[a, l].imag)
                        tr, ti = Fraction(history[b, h, l].real), Fraction(history[b, h, l].imag)
                        re += kr * tr - ki * ti
                        im += kr * ti + ki * tr
                        size += 2.0 * abs(k_half[a, l]) * abs(history[b, h, l])
                for part, exact in ((got[a, b].real, re), (got[a, b].imag, im)):
                    bound = 0.5 * np.spacing(abs(float(exact))) + 2.0 * n_ops * unit * size
                    assert abs(Fraction(part) - exact) <= Fraction(bound)

    def test_non_hermitian_coupling_rejected(self):
        system = object.__new__(SystemSpec)
        object.__setattr__(system, "h_s", np.zeros((2, 2), dtype=complex))
        object.__setattr__(system, "coupling_op", np.array([[0, 1], [0, 0]], dtype=complex))
        object.__setattr__(system, "temperature", 0.0)
        coeffs = InfluenceCoefficients(dt=0.1, kmax=1, eta=np.zeros(2, dtype=complex))
        with pytest.raises(NonDiagonalizableCoupling):
            quapi_propagate(system, coeffs, 3)


class TestStationarityBeforeEquilibration:
    def test_window_and_extrapolation_on_scale_separated_model(self):
        import dynamap as dm

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        from dynamap.models import build_embedding

        emb = build_embedding(
            EmbeddingSpec(system=system, mode_frequency=1.0, coupling=0.1, decay=2.0, n_max=6)
        )
        dt = 0.1
        series = embedding_propagate(emb, dt, 600)
        local = dm.local_maps(series)
        times, diffs = dm.stationarity_profile(local)
        states = np.array([devectorize(m @ vectorize(EXCITED)) for m in series.maps])
        sz = np.einsum("nij,ji->n", states, SZ).real
        window = (diffs < 1e-6) & (np.abs(sz[1 : 1 + len(diffs)]) > 1e-2)
        assert window.any()
        # pick a cutoff well inside the window and extrapolate to 10 tau_c
        idx = np.nonzero(window)[0]
        k = int(idx[idx.size // 2]) + 1
        tau_c = k * dt
        tl_states = dm.extrapolate_tl(local, EXCITED, k, int(round(10 * tau_c / dt)))
        oracle = embedding_state(emb, EXCITED, 10 * tau_c)
        err = abs(np.trace(SZ @ (tl_states[-1] - oracle)).real)
        assert err <= 1e-6
