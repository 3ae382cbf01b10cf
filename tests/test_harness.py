import numpy as np
import pytest

from conftest import EXCITED, SZ
from dynamap import harness
from dynamap.cli import main as cli_main
from dynamap.errors import ConfigError
from dynamap.harness import (
    EmbeddingPropagator,
    LindbladPropagator,
    SweepConfig,
    exact_reference_state,
    generate_maps,
    load_config,
    observable_series,
    preset_config,
    run_compare,
    trace_distance,
)
from dynamap.models import SubOhmicDensity, SystemSpec
from dynamap.maps import devectorize, expm, lindblad_generator, pauli, vectorize
from dynamap.propagators import eta_coefficients


def embedding_config(**overrides):
    base = dict(
        label="demo",
        system=SystemSpec(h_s=0.5 * pauli("x"), coupling_op=0.5 * pauli("z")),
        propagator=EmbeddingPropagator(mode_frequency=1.0, coupling=0.1, decay=2.0, n_max=6),
        dt=0.1,
        n_short=160,
        t_ref=100.0,
        tau_c=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestObservableSeries:
    def test_polarized_state(self):
        times, vals = observable_series(EXCITED[None, :, :], SZ, dt=0.1)
        assert vals[0] == pytest.approx(1.0)
        assert times[0] == 0.0

    def test_maximally_mixed(self):
        mixed = 0.5 * np.eye(2, dtype=complex)
        _, vals = observable_series(mixed[None, :, :], SZ, dt=0.1)
        assert vals[0] == pytest.approx(0.0)

    def test_imaginary_residue_warns(self):
        skew = np.array([[0.5, 0.5j], [0.2j, 0.5]], dtype=complex)
        with pytest.warns(UserWarning):
            observable_series(skew[None, :, :], pauli("x"), dt=0.1)

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(ValueError):
            observable_series(EXCITED[None, :, :], np.array([[0, 1], [0, 0]]), dt=0.1)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        ground = np.array([[0, 0], [0, 1]], dtype=complex)
        assert trace_distance(EXCITED, ground) == pytest.approx(1.0)

    def test_identical_states(self):
        assert trace_distance(EXCITED, EXCITED) == 0.0


class TestConfigValidation:
    def test_t_ref_must_exceed_cutoffs(self):
        with pytest.raises(ConfigError):
            embedding_config(t_ref=10.0, tau_c=(5.0, 15.0))

    def test_horizon_must_cover_cutoffs(self):
        with pytest.raises(ConfigError):
            embedding_config(n_short=30, tau_c=(8.0,))

    def test_quapi_needs_bath(self):
        from dynamap.harness import QuapiPropagator

        with pytest.raises(ConfigError):
            embedding_config(propagator=QuapiPropagator(kmax=3), bath=None)

    def test_presets_load(self):
        for name in ("subohmic", "drude_lorentz", "qd_phonon", "embedding", "lindblad"):
            config = preset_config(name)
            assert config.n_short * config.dt >= max(config.tau_c)

    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_text(
            "[system]\nhx = 0.5\noz = 0.5\ntemperature = 0.0\n\n"
            "[bath]\nkind = subohmic\nalpha = 0.2\ns = 0.7\nomega_c = 5.0\n\n"
            "[grid]\ndt = 0.08\nn_short = 50\nt_ref = 10.0\n\n"
            "[propagator]\ntype = quapi\nkmax = 3\n\n"
            "[extrapolation]\ntau_c = 0.4, 0.8\nobservable = sigma_z\ninitial = excited\n"
        )
        config = load_config(str(path))
        assert config.dt == pytest.approx(0.08)
        assert config.tau_c == (0.4, 0.8)
        assert config.propagator.kmax == 3
        assert config.bath.alpha == pytest.approx(0.2)
        assert np.allclose(config.system.h_s, 0.5 * pauli("x"))

    def test_ini_preset_with_overrides(self, tmp_path):
        path = tmp_path / "override.ini"
        path.write_text(
            "[system]\npreset = embedding\n\n[extrapolation]\ntau_c = 1.0, 2.0\n"
        )
        config = load_config(str(path))
        assert config.tau_c == (1.0, 2.0)
        assert isinstance(config.propagator, EmbeddingPropagator)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")


class TestSemigroupSource:
    """The semigroup source runs as an embedding without a mode; the plain
    single-step loop is the reference."""

    def test_maps_equal_single_step_loop(self):
        config = preset_config("lindblad")
        sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        gen = lindblad_generator(config.system.h_s, [sigma_minus], [0.3])
        one_step = expm(gen, config.dt)
        acc = np.eye(4, dtype=complex)
        reference = []
        for _ in range(config.n_short):
            acc = one_step @ acc
            reference.append(acc)
        series = generate_maps(config)
        assert np.array_equal(series.maps, np.stack(reference))
        exact = devectorize(expm(gen, config.t_ref) @ vectorize(config.initial))
        assert np.array_equal(exact_reference_state(config, series), exact)


class TestRunCompare:
    def test_semigroup_model_both_methods_exact(self):
        config = SweepConfig(
            label="lindblad",
            system=SystemSpec(h_s=0.5 * pauli("x"), coupling_op=0.5 * pauli("z")),
            propagator=LindbladPropagator(jump="sigma_minus", rate=0.3),
            dt=0.1,
            n_short=60,
            t_ref=30.0,
            tau_c=(0.5, 1.0, 3.0),
        )
        result = run_compare(config)
        for row in result.rows:
            assert row.err_ttm <= 1e-9
            assert row.err_tl <= 1e-9
            assert not row.tl_flagged
            assert row.tl_spectral_stable

    def test_embedding_model_trends(self):
        result = run_compare(embedding_config())
        errs_tl = np.array([row.err_tl for row in result.rows])
        errs_ttm = np.array([row.err_ttm for row in result.rows])
        assert errs_tl[-1] <= 1e-6
        assert errs_ttm[-1] <= errs_ttm[0]
        assert np.all(np.isfinite(errs_ttm))
        # profiles come back aligned with the data horizon
        times, diffs = result.stationarity
        assert len(times) == len(diffs) == 159
        sv_times, sv_table = result.singular_values
        assert sv_table.shape == (160, 4)

    def test_rows_sorted_and_columns_consistent(self):
        config = embedding_config(tau_c=(4.0, 0.5, 2.0))
        result = run_compare(config)
        taus = [row.tau_c for row in result.rows]
        assert taus == sorted(taus)

    def test_error_columns_nonnegative_or_flagged_nan(self):
        # include a cutoff inside the flagged late-time region
        config = embedding_config(
            propagator=EmbeddingPropagator(
                mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6
            ),
            n_short=900,
            t_ref=150.0,
            tau_c=(1.0, 4.0, 85.0),
        )
        result = run_compare(config)
        saw_nan = False
        for row in result.rows:
            assert row.err_ttm >= 0.0
            # err_tl is nan exactly where the cutoff map is flagged or
            # spectrally unstable
            assert np.isnan(row.err_tl) == (row.tl_flagged or not row.tl_spectral_stable)
            if np.isnan(row.err_tl):
                saw_nan = True
            else:
                assert row.err_tl >= 0.0
        assert saw_nan

    def test_workers_give_identical_rows(self):
        serial = run_compare(embedding_config())
        parallel = run_compare(embedding_config(workers=2))
        for a, b in zip(serial.rows, parallel.rows):
            assert a == b


class TestCli:
    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = cli_main(["compare", "--config", "not_a_model", "--out", str(tmp_path)])
        assert code == 2

    def test_flagged_cutoffs_exit_3(self, tmp_path):
        ini = tmp_path / "flagged.ini"
        ini.write_text(
            "[system]\npreset = embedding\n\n"
            "[grid]\ndt = 0.1\nn_short = 900\nt_ref = 200.0\n\n"
            "[extrapolation]\ntau_c = 88.0\n"
        )
        code = cli_main(["tl", "--config", str(ini), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_generate_then_compare(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["generate", "--config", "embedding", "--out", str(out)]) == 0
        assert (out / "maps.dmap").exists()
        assert cli_main(["compare", "--config", "embedding", "--out", str(out)]) == 0
        compare = (out / "compare.csv").read_text().splitlines()
        assert compare[0] == "tau_c,err_ttm,err_tl,tl_flagged,tl_spectral_stable,tdist_ttm,tdist_tl"
        assert len(compare) == 1 + 4
        for name in ("stationarity.csv", "tensor_norms.csv", "singvals.csv"):
            assert (out / name).exists()

    def test_subcommands_write_expected_files(self, tmp_path):
        out = tmp_path / "cmds"
        assert cli_main(["ttm", "--config", "embedding", "--out", str(out)]) == 0
        assert (out / "tensors.tten").exists()
        assert (out / "tensor_norms.csv").exists()
        assert (out / "ttm_obs_tauc0.5.csv").exists()
        assert cli_main(["tl", "--config", "embedding", "--out", str(out)]) == 0
        assert (out / "local_flags.csv").exists()
        assert (out / "tl_obs_tauc4.csv").exists()
        assert cli_main(["rates", "--config", "embedding", "--out", str(out)]) == 0
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[0] == "t,gamma_1,gamma_2,gamma_3,min_rate,flagged"
        assert cli_main(["singvals", "--config", "embedding", "--out", str(out)]) == 0
        assert (out / "singvals.csv").read_text().splitlines()[0] == "t,sv_1,sv_2,sv_3,sv_4"

    def test_tau_c_and_t_ref_overrides(self, tmp_path):
        out = tmp_path / "ovr"
        code = cli_main(
            ["compare", "--config", "embedding", "--out", str(out),
             "--tau-c", "1.0,3.0", "--t-ref", "50.0"]
        )
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("1.0,")
        assert lines[2].startswith("3.0,")

    def test_dump_eta(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(
            "[system]\nhx = 0.5\noz = 0.5\n\n"
            "[bath]\nkind = subohmic\nalpha = 0.2\ns = 0.7\nomega_c = 5.0\n\n"
            "[grid]\ndt = 0.08\nn_short = 10\nt_ref = 2.0\n\n"
            "[propagator]\ntype = quapi\nkmax = 2\n\n"
            "[extrapolation]\ntau_c = 0.4\n"
        )
        out = tmp_path / "eta_out"
        code = cli_main(["generate", "--config", str(ini), "--out", str(out), "--dump-eta"])
        assert code == 0
        lines = (out / "eta.csv").read_text().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 4
        sd = SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0)
        expected = eta_coefficients(sd, 0.0, 0.08, 2).eta
        for k, line in enumerate(lines[1:]):
            idx, re, im = line.split(",")
            assert int(idx) == k
            assert complex(float(re), float(im)) == expected[k]

    def test_tl_skips_spectrally_unstable_cutoff(self, tmp_path, capsys):
        ini = tmp_path / "unstable.ini"
        ini.write_text("[system]\npreset = embedding\n\n[grid]\nn_short = 160\n")
        out = tmp_path / "tl"
        code = cli_main(
            ["tl", "--config", str(ini), "--out", str(out), "--t-ref", "400", "--tau-c", "1.0,16.0"]
        )
        assert code == 0
        assert (out / "tl_obs_tauc1.csv").exists()
        assert not (out / "tl_obs_tauc16.csv").exists()
        assert "tau_c = 16: stationary map spectrally unstable" in capsys.readouterr().err

    def test_cached_maps_of_another_config_not_reused(self, tmp_path):
        a, b = tmp_path / "a.ini", tmp_path / "b.ini"
        a.write_text("[system]\npreset = lindblad\n\n[propagator]\ntype = lindblad\nrate = 0.3\n")
        b.write_text(a.read_text().replace("rate = 0.3", "rate = 0.6"))
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert cli_main(["generate", "--config", str(a), "--out", str(shared)]) == 0
        assert cli_main(["ttm", "--config", str(b), "--out", str(shared)]) == 0
        assert cli_main(["ttm", "--config", str(b), "--out", str(fresh)]) == 0
        got = (shared / "ttm_obs_tauc1.csv").read_text()
        assert got == (fresh / "ttm_obs_tauc1.csv").read_text()
        t, value = got.splitlines()[10].split(",")
        assert float(t) == pytest.approx(0.9)
        assert float(value) == pytest.approx(0.70827, abs=1e-5)

    def test_cached_maps_reused_only_with_key(self, tmp_path, monkeypatch):
        out = tmp_path / "cache"
        calls = []
        real = harness.generate_maps

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_maps", counted)
        assert cli_main(["generate", "--config", "lindblad", "--out", str(out)]) == 0
        assert cli_main(["ttm", "--config", "lindblad", "--out", str(out)]) == 0
        assert len(calls) == 1
        (out / "maps.key").unlink()  # outputs written before the key existed
        assert cli_main(["ttm", "--config", "lindblad", "--out", str(out)]) == 0
        assert len(calls) == 2
