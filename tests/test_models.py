import numpy as np
import pytest

from conftest import SX, SZ, bath_correlation
from dynamap.errors import NegativeFrequency, TruncationGuard, UnknownModel
from dynamap.harness import preset_config
from dynamap.maps import pauli, vectorize
from dynamap.models import (
    DrudeLorentzDensity,
    QDPhononDensity,
    SubOhmicDensity,
    SystemSpec,
    TabulatedDensity,
    build_embedding,
    load_tabulated,
    spectral_density_eval,
    stationary_state,
    support_cutoff,
)
from dynamap.propagators import eta_coefficients

SUB = SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0)
DL = DrudeLorentzDensity(lam=0.1, gamma=1.0)
QD = QDPhononDensity(c_e=0.1271, c_h=-0.0635, omega_e=2.555, omega_h=2.938)
ZERO = TabulatedDensity(omegas=(0.0, 1.0, 2.0), values=(0.0, 0.0, 0.0))


class TestSpectralDensities:
    def test_subohmic_low_frequency_power(self):
        w = np.logspace(-4, -2, 40)
        j = spectral_density_eval(SUB, w)
        slope = np.polyfit(np.log(w), np.log(j), 1)[0]
        assert slope == pytest.approx(0.7, abs=0.01)

    def test_drude_lorentz_hand_value(self):
        # 2 * 0.1 * 1 * 1 / (1 + 1)
        assert spectral_density_eval(DL, 1.0) == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("sd", [SUB, DL, QD])
    def test_vanishes_at_zero(self, sd):
        assert spectral_density_eval(sd, 0.0) == 0.0

    @pytest.mark.parametrize("sd", [SUB, DL, QD])
    def test_nonnegative_and_finite_over_support(self, sd):
        w = np.linspace(0.0, support_cutoff(sd), 20001)
        j = spectral_density_eval(sd, w)
        assert np.all(j >= 0.0)
        assert np.all(np.isfinite(j))

    def test_negative_frequency_rejected(self):
        with pytest.raises(NegativeFrequency):
            spectral_density_eval(SUB, -0.1)

    def test_tabulated_interpolation(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("0.0,0.0\n1.0,0.5\n2.0,0.0\n")
        sd = load_tabulated(path)
        assert spectral_density_eval(sd, 0.5) == pytest.approx(0.25)
        assert spectral_density_eval(sd, 5.0) == 0.0

    @pytest.mark.parametrize("omegas, values", [
        ((2.0, 0.0, 1.0), (0.0, 0.0, 0.5)), ((-1.0, 1.0), (0.7, 0.0)),
        ((0.0, 1.0, 1.0), (0.0, 0.5, 0.2)), ((0.0, 1.0), (0.0, 0.5, 0.0)), ((1.0,), (0.5,)),
        ((0.0, np.inf), (0.0, 0.5)), ((0.0, 1.0), (0.0, np.nan)),
    ], ids=["unsorted", "negative_omega", "repeated_omega", "unequal_lengths", "one_node",
            "infinite_omega", "nan_value"])
    def test_tabulated_density_refuses_bad_tables(self, omegas, values):
        with pytest.raises(ValueError):
            TabulatedDensity(omegas=omegas, values=values)

    def test_tabulated_file_is_sorted(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("2.0,0.0\n0.0,0.0\n1.0,0.5\n")
        sd = load_tabulated(path)
        assert sd.omegas == (0.0, 1.0, 2.0)
        assert spectral_density_eval(sd, np.array([0.5, 1.0, 1.5])) == pytest.approx([0.25, 0.5, 0.25])

    def test_qd_parameters_as_published(self):
        config = preset_config("qd_phonon")
        sd = config.bath
        assert sd.omega_h == pytest.approx(2.938)
        assert sd.c_e == pytest.approx(0.1271)
        assert sd.c_h == pytest.approx(-0.0635)
        assert config.dt == pytest.approx(0.05)


class TestBathCorrelation:
    def test_zero_density_gives_zero(self):
        assert bath_correlation(ZERO, 0.0, 1.3) == 0.0

    def test_initial_value_real_positive(self):
        c0 = bath_correlation(SUB, 0.0, 0.0)
        assert c0.imag == 0.0
        assert c0.real > 0.0

    @pytest.mark.parametrize("sd", [SUB, DL])
    def test_initial_value_against_trapezoid(self, sd):
        c0 = bath_correlation(sd, 0.0, 0.0)
        wmax = support_cutoff(sd)
        # dense log-spaced oracle grid handles both the peak and the tail
        w = np.concatenate([np.linspace(1e-12, 10.0, 2_000_001),
                            np.logspace(1.0, np.log10(wmax), 2_000_001)])
        w = np.sort(w)
        oracle = np.trapezoid(sd.profile(w), w)
        assert abs(c0.real - oracle) <= 1e-6 * abs(oracle)

    @pytest.mark.parametrize("n_nodes", [9, 17, 33])
    def test_tabulated_nodes_are_breakpoints(self, n_nodes):
        # J is linear between the nodes, so C(0) = int J at T = 0 is the
        # trapezoid sum over the table exactly; a kink inside a segment held
        # the quadrature above quad_rtol
        w = np.linspace(0.0, 8.0, n_nodes)
        table = TabulatedDensity(omegas=tuple(w), values=tuple(0.3 * w * np.exp(-w / 2.0)))
        c0 = bath_correlation(table, 0.0, 0.0)
        assert c0.real == pytest.approx(np.trapezoid(table.values, w), rel=1e-10)

    def test_imaginary_part_temperature_independent(self):
        for t in (0.3, 0.7, 1.9):
            cold = bath_correlation(DL, 0.0, t)
            warm = bath_correlation(DL, 1.0, t)
            assert abs(cold.imag - warm.imag) <= 1e-8

    def test_conjugate_symmetry_split(self):
        # real part even, imaginary part odd: C(-t) = conj(C(t))
        wmax = support_cutoff(SUB)
        w = np.linspace(1e-12, wmax, 2_000_001)
        j = SUB.profile(w)
        for t in (0.4, 1.1):
            c = bath_correlation(SUB, 0.0, t)
            re_neg = np.trapezoid(j * np.cos(w * -t), w)
            im_neg = -np.trapezoid(j * np.sin(w * -t), w)
            assert re_neg == pytest.approx(c.real, abs=1e-6)
            assert im_neg == pytest.approx(-c.imag, abs=1e-6)

    def test_support_cutoff_reads_the_floor_at_call_time(self, monkeypatch):
        default = support_cutoff(SUB)
        monkeypatch.setattr("dynamap.models.SUPPORT_FLOOR", 1e-6)
        assert support_cutoff(SUB) < default

    def test_vanishing_density_has_no_support_and_no_influence(self):
        silent = SubOhmicDensity(alpha=0.0, s=0.7, omega_c=5.0)
        assert support_cutoff(silent) == 0.0
        assert not np.any(eta_coefficients(silent, 0.0, 0.08, 3).eta)

    def test_continuity(self):
        a = bath_correlation(SUB, 0.0, 1.0)
        b = bath_correlation(SUB, 0.0, 1.0 + 1e-5)
        assert abs(a - b) < 1e-3

    def test_thermal_enhances_real_part(self):
        cold = bath_correlation(DL, 0.0, 0.2)
        warm = bath_correlation(DL, 2.0, 0.2)
        assert warm.real > cold.real


class TestSystemAndEmbedding:
    def test_system_requires_hermitian(self):
        with pytest.raises(ValueError):
            SystemSpec(h_s=np.array([[0, 1], [0, 0]], dtype=complex), coupling_op=SZ)

    def test_truncation_guard(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        with pytest.raises(TruncationGuard):
            build_embedding(system, mode_frequency=1.0, coupling=0.1, decay=1.0, n_max=40)

    def test_project_inverts_embed(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.3, decay=0.5, n_max=3)
        assert np.allclose(emb.project @ emb.embed, np.eye(4))

    def test_decoupled_mode_stationary_state_annihilated(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.0, decay=0.7, n_max=4)
        vacuum = np.zeros((5, 5), dtype=complex)
        vacuum[0, 0] = 1.0
        steady = np.kron(np.eye(2) / 2.0, vacuum)
        residual = emb.generator @ vectorize(steady)
        assert np.max(np.abs(residual)) < 1e-12

    def test_driven_mode_fixed_point(self):
        # H_S = 0, O = sz/2: each sector drives the mode to a coherent state
        # with |alpha|^2 = (g/2)^2 / (W^2 + kappa^2/4)
        from dynamap.maps import expm

        system = SystemSpec(h_s=np.zeros((2, 2)), coupling_op=0.5 * SZ)
        g, mode_w, kappa, n_max = 0.3, 1.0, 0.8, 12
        emb = build_embedding(system, mode_frequency=mode_w, coupling=g, decay=kappa, n_max=n_max)
        dext = 2 * (n_max + 1)
        rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
        vec = expm(emb.generator, 200.0) @ (emb.embed @ vectorize(rho0))
        rho_ext = vec.reshape((dext, dext), order="F")
        lower = np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), 1).astype(complex)
        number = np.kron(np.eye(2), lower.conj().T @ lower)
        occupation = np.trace(number @ rho_ext).real
        expected = (g / 2.0) ** 2 / (mode_w**2 + kappa**2 / 4.0)
        assert occupation == pytest.approx(expected, abs=1e-8)

    def test_stronger_damping_shortens_memory(self):
        # adiabatic elimination: as the mode decay grows the reduced dynamics
        # approaches a semigroup, so the transfer-tensor tail shrinks
        from dynamap.propagators import embedding_propagate
        from dynamap.ttm import decompose

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        tails = []
        for kappa in (10.0, 25.0, 50.0):
            emb = build_embedding(system, mode_frequency=1.0, coupling=1.0, decay=kappa, n_max=8)
            series = embedding_propagate(emb, 0.05, 60)
            tensors = decompose(series)
            tails.append(float(np.sum(tensors.norms[1:])))
        assert tails[0] > tails[1] > tails[2]

    def test_stationary_state_unit_trace(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        rho = stationary_state(emb)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


class TestBuiltinModels:
    def test_subohmic_grid(self):
        config = preset_config("subohmic")
        system, sd = config.system, config.bath
        assert config.dt == pytest.approx(0.08)
        assert sd.s == pytest.approx(0.7)
        assert sd.alpha == pytest.approx(0.2)
        assert sd.omega_c == pytest.approx(5.0)
        assert np.allclose(system.h_s, 0.5 * SX)
        assert np.allclose(system.coupling_op, 0.5 * SZ)
        assert system.temperature == 0.0

    def test_drude_lorentz_coupling_ratio(self):
        config = preset_config("drude_lorentz")
        sd = config.bath
        assert sd.lam / sd.gamma == pytest.approx(0.1)
        assert config.dt == pytest.approx(0.05)

    def test_drude_lorentz_bias_and_driving(self):
        system = preset_config("drude_lorentz").system
        assert np.allclose(system.h_s, 0.5 * (-pauli("z") + pauli("x")))

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            preset_config("critically_damped")
