import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import EXCITED, SZ
from dynamap import harness
from dynamap.cli import main as cli_main
from dynamap.errors import ConfigError
from dynamap.harness import (
    EmbeddingPropagator,
    LindbladPropagator,
    QuapiPropagator,
    SweepConfig,
    compare_series,
    load_config,
    map_source,
    maps_key,
    observable_series,
    preset_config,
    run_compare,
    trace_distance,
)
from dynamap.lindblad import canonical_decompose, rate_series
from dynamap.models import (
    DrudeLorentzDensity,
    QDPhononDensity,
    SubOhmicDensity,
    SystemSpec,
    TabulatedDensity,
    build_embedding,
)
from dynamap.maps import devectorize, expm, lindblad_generator, pauli, vectorize
from dynamap.propagators import eta_coefficients
from dynamap.timelocal import extrapolate_tl, local_maps, spectral_stability
from dynamap.ttm import decompose, extrapolate


def child_env(**extra):
    """The environment of a fresh interpreter that imports this dynamap."""
    src = str(Path(harness.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def embedding_config(**overrides):
    base = dict(
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
        with pytest.raises(ConfigError):
            embedding_config(propagator=QuapiPropagator(kmax=3), bath=None)

    @pytest.mark.parametrize("overrides", [
        {"dt": float("nan")}, {"dt": float("inf")},
        {"t_ref": float("nan")}, {"t_ref": float("inf")},
        {"tau_c": (0.5, float("nan"))}, {"tau_c": (-1.0,)}, {"tau_c": (0.0, 1.0)},
    ], ids=["dt_nan", "dt_inf", "t_ref_nan", "t_ref_inf", "tau_c_nan", "tau_c_negative",
            "tau_c_zero"])
    def test_non_finite_or_non_positive_rejected(self, overrides):
        with pytest.raises(ConfigError):
            embedding_config(**overrides)

    def test_ini_bad_tau_c_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[system]\npreset = lindblad\n\n[extrapolation]\ntau_c = 1.0,,2.0\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_presets_load(self):
        for name in ("subohmic", "drude_lorentz", "qd_phonon", "embedding", "lindblad"):
            config = preset_config(name)
            assert config.n_short * config.dt >= max(config.tau_c)
            again = preset_config(name)  # each call owns its observable and initial state
            assert not np.shares_memory(config.observable, again.observable)
            assert not np.shares_memory(config.initial, again.initial)

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

    @pytest.mark.parametrize("overrides", [
        {"tau_c": (0.05, 1.0)}, {"tau_c": (0.25,)}, {"t_ref": 100.05}, {"t_ref": -10.0},
    ], ids=["tau_c_half_step", "tau_c_off_grid", "t_ref_off_grid", "t_ref_negative"])
    def test_times_off_the_step_grid_rejected(self, overrides):
        with pytest.raises(ConfigError, match="whole number of dt"):
            embedding_config(**overrides)


def pauli_components(op):
    """The identity and Pauli components of a 2x2 operator."""
    return [np.trace(m @ op) / 2 for m in (np.eye(2), pauli("x"), pauli("y"), pauli("z"))]


def config_values(config):
    """Every value of a SweepConfig, with the operators by Pauli components."""
    h, o = (pauli_components(op) for op in (config.system.h_s, config.system.coupling_op))
    values = {
        "h": h, "o": o, "temperature": config.system.temperature,
        "observable": config.observable.tolist(), "initial": config.initial.tolist(),
    }
    for name in ("bath", "propagator", "dt", "n_short", "t_ref", "tau_c"):
        values[name] = getattr(config, name)
    return values


def write_ini(path, sections):
    """An INI file of ``{section: {key: value}}``."""
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    ))
    return str(path)


BATH_KEYS = {
    "subohmic": {"alpha": 0.2, "s": 0.7, "omega_c": 5.0},
    "drude_lorentz": {"lam": 0.1, "gamma": 1.0},
    "qd_phonon": {"c_e": 0.1271, "c_h": -0.0635, "omega_e": 2.555, "omega_h": 2.938},
    "custom_table": {"path": "table.csv"},
}
EMBEDDING_KEYS = {"mode_frequency": 1.0, "coupling": 0.4, "decay": 0.5, "n_max": 6}


def full_ini(bath_kind="subohmic", propagator=None):
    """Every section of a config without a preset, each key given."""
    return {
        "system": {"hx": 0.5, "oz": 0.5},
        "bath": {"kind": bath_kind, **BATH_KEYS[bath_kind]},
        "grid": {"dt": 0.1, "n_short": 20, "t_ref": 5.0},
        "propagator": dict(propagator or {"type": "quapi", "kmax": 2}),
        "extrapolation": {"tau_c": "0.5, 1.0"},
    }


def removals():
    """A config without a preset, less one required key, for each such key."""
    for kind in BATH_KEYS:
        for key in ("kind", *BATH_KEYS[kind]):
            yield pytest.param(full_ini(kind), "bath", key, id=f"{kind}-{key}")
    embedding = {"type": "embedding", **EMBEDDING_KEYS}
    for key in embedding:
        yield pytest.param(full_ini(propagator=embedding), "propagator", key, id=f"embedding-{key}")
    for section, key in (("grid", "dt"), ("grid", "n_short"), ("grid", "t_ref"),
                         ("extrapolation", "tau_c")):
        yield pytest.param(full_ini(), section, key, id=f"{section}-{key}")


def overrides():
    """One override of each preset value that the reader can set, per preset."""
    for preset in harness.PRESETS:
        config = preset_config(preset)
        yield preset, "system", "temperature", 1.0
        yield preset, "system", "hx", 0.25
        yield preset, "system", "hz", 0.3
        yield preset, "system", "oz", 0.25
        if isinstance(config.bath, DrudeLorentzDensity):
            yield preset, "bath", "lam", 0.2
        if isinstance(config.propagator, QuapiPropagator):
            yield preset, "propagator", "kmax", 3
        if isinstance(config.propagator, EmbeddingPropagator):
            yield preset, "propagator", "n_max", 8
        yield preset, "grid", "dt", config.dt / 2


class TestConfigReader:
    @pytest.mark.parametrize("sections, section, key", removals())
    def test_missing_required_key_exits_2(self, tmp_path, capsys, sections, section, key):
        (tmp_path / "table.csv").write_text("0.0,0.0\n1.0,0.1\n")
        whole = write_ini(tmp_path / "whole.ini", sections)
        del sections[section][key]
        ini = write_ini(tmp_path / "less.ini", sections)
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(tmp_path)  # the custom table's path is relative
            assert isinstance(load_config(whole), SweepConfig)
            code = cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, text", [
        ("system", "hz", "high"), ("system", "temperature", "warm"), ("grid", "n_short", "2.5"),
        ("propagator", "kmax", "deep"), ("extrapolation", "observable", "sigma_w"),
        ("extrapolation", "initial", "up"),
    ])
    def test_malformed_key_exits_2(self, tmp_path, capsys, section, key, text):
        sections = full_ini()
        sections[section][key] = text
        ini = write_ini(tmp_path / "bad.ini", sections)
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert f"{key} = {text!r}" in capsys.readouterr().err

    def test_unknown_jump_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "jump.ini", {
            "system": {"preset": "lindblad"}, "propagator": {"jump": "sigma_w"},
        })
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert "jump = 'sigma_w'" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, key, text", [
        ("drude_lorentz", "kmax", "0"), ("embedding", "n_max", "0"),
        ("lindblad", "rate", "-1"), ("embedding", "decay", "-0.5"), ("lindblad", "rate", "nan"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, preset, key, text):
        ini = write_ini(tmp_path / "range.ini", {
            "system": {"preset": preset}, "propagator": {key: text},
        })
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert f"{key} = " in capsys.readouterr().err
        assert not (tmp_path / "out" / "singvals.csv").exists()

    @pytest.mark.parametrize("propagator", [
        {"type": "embedding", **EMBEDDING_KEYS, "mode_frequency": "nan"},
        {"type": "embedding", **EMBEDDING_KEYS, "coupling": "inf"},
        {"type": "embedding", **EMBEDDING_KEYS, "decay": "inf"},
        {"type": "lindblad", "rate": "inf"},
    ], ids=["mode_frequency-nan", "coupling-inf", "decay-inf", "rate-inf"])
    def test_non_finite_propagator_value_exits_2(self, tmp_path, capsys, propagator):
        key, text = next((k, v) for k, v in propagator.items() if v in ("nan", "inf"))
        ini = write_ini(tmp_path / "non_finite.ini",
                        {"system": {"preset": "lindblad"}, "propagator": propagator})
        assert cli_main(["generate", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert f"{key} = {text} must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_generator_exits_3(self, tmp_path, capsys):
        # a finite mode frequency whose generator entries overflow
        ini = write_ini(tmp_path / "overflow.ini", {
            "system": {"preset": "lindblad"},
            "propagator": {"type": "embedding", **EMBEDDING_KEYS, "mode_frequency": 1e308},
        })
        assert cli_main(["generate", "--config", ini, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "non-finite entry" in err
        assert not (tmp_path / "out" / "maps.dmap").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_generator_warns_nothing(self, tmp_path, capsys):
        # build_embedding overflows under np.errstate; expm refuses the
        # generator, and the exit-3 line is all that is printed
        ini = write_ini(tmp_path / "overflow.ini", {
            "system": {"preset": "lindblad"},
            "propagator": {"type": "embedding", **EMBEDDING_KEYS, "mode_frequency": 1e308},
        })
        assert cli_main(["generate", "--config", ini, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", ["hz", "oz"])
    def test_non_finite_maps_exit_3(self, tmp_path, capsys, key):
        # finite parameters whose path-integral phases overflow: every
        # command stops with one line, and no map container is written
        ini = write_ini(tmp_path / "huge.ini", {"system": {"preset": "subohmic", key: 1e308}})
        out = tmp_path / "out"
        for command in ("generate", "ttm", "tl", "rates", "singvals", "compare"):
            assert cli_main([command, "--config", ini, "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: ") and err.count("\n") == 1
            assert "maps have a non-finite entry" in err
        assert not (out / "maps.dmap").exists() and not (out / "maps.key").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", ["hx", "hy", "hz", "ox", "oy", "oz"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_system_value_exits_2(self, tmp_path, capsys, key, text):
        ini = write_ini(tmp_path / "system.ini", {"system": {"preset": "lindblad", key: text}})
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert "h_s and coupling_op must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["lindblad", None])
    @pytest.mark.parametrize("key", ["h_s", "coupling_op"])
    def test_operator_field_is_no_system_key(self, tmp_path, capsys, preset, key):
        system = {key: "1"} if preset is None else {"preset": preset, key: "1"}
        ini = write_ini(tmp_path / "system.ini", {"system": system})
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        settable = ["hx", "hy", "hz", "ox", "oy", "oz", "preset", "temperature"]
        err = capsys.readouterr().err
        assert f"[system] has no key {key!r}; expected one of {settable}" in err

    @pytest.mark.parametrize("section, key, text", [
        ("extrapolation", "dt", "0.05"), ("extrapolation", "n_short", "200"),
        ("extrapolation", "t_ref", "60.0"), ("grid", "tau_c", "1.0"),
        ("grid", "observable", "sigma_x"), ("grid", "initial", "plus"),
    ])
    def test_key_of_the_other_section_exits_2(self, tmp_path, capsys, section, key, text):
        owned = {"grid": ["dt", "n_short", "t_ref"],
                 "extrapolation": ["initial", "observable", "tau_c"]}
        ini = write_ini(tmp_path / "misplaced.ini",
                        {"system": {"preset": "lindblad"}, section: {key: text}})
        assert cli_main(["tl", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] has no key {key!r}; expected one of {owned[section]}" in err

    @pytest.mark.parametrize("section, key, bath_kind", [
        ("grid", "n_sohrt", "drude_lorentz"), ("grid", "label", "drude_lorentz"),
        ("system", "lam", "drude_lorentz"), ("bath", "lamda", "drude_lorentz"),
        ("bath", "lam", "none"), ("bath", "lam", "custom_table"),
        ("propagator", "kmx", "drude_lorentz"), ("extrapolation", "tauc", "drude_lorentz"),
        ("extrapolation", "cond_threshold", "drude_lorentz"),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, section, key, bath_kind):
        sections = {"system": {"preset": "drude_lorentz"}, "bath": {"kind": bath_kind},
                    "propagator": {"type": "quapi"}}
        if bath_kind == "custom_table":
            sections["bath"]["path"] = "table.csv"
        sections.setdefault(section, {})[key] = 1
        ini = write_ini(tmp_path / "typo.ini", sections)
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert f"[{section}] has no key {key!r}" in capsys.readouterr().err

    def test_bath_kind_none(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        ini = write_ini(tmp_path / "none.ini",
                        {"system": {"preset": "embedding"}, "bath": {"kind": "none"}})
        assert load_config(ini).bath is None
        assert cli_main(["singvals", "--config", ini, "--out", out]) == 0
        ini = write_ini(tmp_path / "none.ini",
                        {"system": {"preset": "drude_lorentz"}, "bath": {"kind": "none"}})
        assert cli_main(["singvals", "--config", ini, "--out", out]) == 2
        assert "needs a bath" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "gird.ini", {
            "system": {"preset": "lindblad"}, "gird": {"n_short": 5},
        })
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert "section [gird]" in capsys.readouterr().err

    def test_default_section_exits_2(self, tmp_path, capsys):
        # configparser would copy the key into every section
        ini = write_ini(tmp_path / "default.ini", {
            "DEFAULT": {"dt": 0.05}, "system": {"preset": "lindblad"},
        })
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert "section [DEFAULT]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fragment", [
        ("[system]\npreset = lindblad\npreset = embedding\n", "option 'preset'"),
        ("[system]\npreset = lindblad\n[system]\nhz = 0.1\n", "section 'system'"),
        ("preset = lindblad\n", "no section headers"),
        ("[system]\npreset = lindblad\n[extrapolation]\ntau_c = 1%\n", "tau_c '1%'"),
    ], ids=["duplicate_key", "duplicate_section", "no_section_header", "percent"])
    def test_ini_syntax_error_exits_2(self, tmp_path, capsys, text, fragment):
        ini = tmp_path / "syntax.ini"
        ini.write_text(text)
        assert cli_main(["singvals", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"[system]\nhz = \xff\xfe\n"],
                             ids=["directory", "not_utf8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        ini = tmp_path / "config.ini"
        if content is None:
            ini.mkdir()
        else:
            ini.write_bytes(content)
        assert cli_main(["singvals", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert f"config file {str(ini)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("table", [
        None, "0.0\n1.0\n", "0.0,0.0,1.0\n1.0,0.5,2.0\n", "-1.0,0.7\n1.0,0.0\n",
        "0.0,0.0\n1.0,nan\n",
    ], ids=["directory", "one_column", "three_columns", "negative_omega", "nan"])
    def test_bad_custom_table_exits_2(self, tmp_path, capsys, table):
        path = tmp_path / "table.csv"
        if table is None:
            path.mkdir()
        else:
            path.write_text(table)
        ini = write_ini(tmp_path / "table.ini", {
            "system": {"preset": "drude_lorentz"}, "bath": {"kind": "custom_table", "path": path},
        })
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert f"table {str(path)!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "singvals.csv").exists()

    def test_repeated_omega_table_exits_2(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("0.0,0.0\n1.0,0.5\n1.0,0.4\n2.0,0.0\n")
        ini = write_ini(tmp_path / "table.ini", {
            "system": {"preset": "drude_lorentz"}, "bath": {"kind": "custom_table", "path": path},
        })
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"table {str(path)!r}" in err and "strictly increasing" in err

    def test_empty_table_prints_only_the_config_error(self, tmp_path):
        # a fresh interpreter: pytest records warnings instead of printing them
        path = tmp_path / "table.csv"
        path.write_text("")
        ini = write_ini(tmp_path / "table.ini", {
            "system": {"preset": "drude_lorentz"}, "bath": {"kind": "custom_table", "path": path},
        })
        done = subprocess.run(
            [sys.executable, "-m", "dynamap", "singvals", "--config", ini,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(),
        )
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"configuration error: [bath] table {str(path)!r}")

    @pytest.mark.parametrize("preset, section, key, text", [
        ("drude_lorentz", "system", "temperature", "nan"),
        ("drude_lorentz", "system", "temperature", "inf"),
    ])
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, preset, section, key, text):
        ini = write_ini(tmp_path / "range.ini", {"system": {"preset": preset}, section: {key: text}})
        assert cli_main(["singvals", "--config", ini, "--out", str(tmp_path / "out")]) == 2
        assert f"{key} = {text}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "singvals.csv").exists()

    def test_perfbench_configs_load_as_their_overrides(self):
        configs = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
        pipeline = load_config(str(configs / "embedding_pipeline.ini"))
        assert config_values(pipeline) == config_values(replace(
            preset_config("embedding"), n_short=1000, t_ref=400.0,
            tau_c=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        ))
        deep = load_config(str(configs / "quapi_deep_memory.ini"))
        assert config_values(deep) == config_values(replace(
            preset_config("qd_phonon"), n_short=150, t_ref=10.0,
            propagator=QuapiPropagator(kmax=8),
        ))

    @pytest.mark.parametrize("name", ["subohmic", "drude_lorentz", "embedding"])
    def test_config_files_load_as_their_presets(self, name):
        root = Path(__file__).resolve().parents[1]
        loaded = load_config(str(root / "configs" / f"{name}.ini"))
        preset = preset_config(name)
        assert config_values(loaded) == config_values(preset)
        assert harness.maps_key(loaded) == harness.maps_key(preset)

    @pytest.mark.parametrize("preset, section, key, value", overrides())
    def test_one_override_changes_one_value(self, tmp_path, preset, section, key, value):
        sections = {"system": {"preset": preset}}
        sections.setdefault(section, {})[key] = value
        ini = write_ini(tmp_path / f"{preset}.ini", sections)
        want = config_values(preset_config(preset))
        axis = {"hx": 1, "hz": 3, "oz": 3}
        if key in axis:
            want[key[0]][axis[key]] = value
        elif section in ("bath", "propagator"):
            want[section] = replace(want[section], **{key: value})
        else:
            want[key] = value
        assert config_values(load_config(ini)) == want

    def test_partial_preset_overrides(self, tmp_path):
        def load(sections):
            return load_config(write_ini(tmp_path / "partial.ini", sections))

        config = load({"system": {"preset": "drude_lorentz"}, "bath": {"lam": 0.2}})
        assert config.bath == DrudeLorentzDensity(lam=0.2, gamma=1.0)
        config = load({"system": {"preset": "drude_lorentz", "temperature": 1.0, "hz": 0.3}})
        assert config.system.temperature == 1.0
        assert pauli_components(config.system.h_s) == [0.0, 0.5, 0.0, 0.3]
        config = load({"system": {"preset": "drude_lorentz", "hx": 0.5}})
        assert pauli_components(config.system.h_s) == [0.0, 0.5, 0.0, -0.5]
        assert pauli_components(config.system.coupling_op) == [0.0, 0.0, 0.0, 0.5]
        config = load({"system": {"preset": "embedding"}, "propagator": {"n_max": 8}})
        assert config.propagator == EmbeddingPropagator(
            mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=8
        )


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
        source = map_source(config)
        assert np.array_equal(source.maps(config.n_short).maps, np.stack(reference))
        exact = devectorize(expm(gen, config.t_ref) @ vectorize(config.initial))
        assert np.array_equal(source.state(config.initial, config.n_ref), exact)


class TestMapSource:
    @pytest.mark.parametrize("name", sorted(harness.PRESETS))
    def test_state_is_last_map_applied(self, name):
        # the path integral carries the state through the maps' recursion;
        # the exact sources exponentiate to n dt instead of powering one step
        config = preset_config(name)
        source = map_source(config)
        n = config.n_short
        want = devectorize(source.maps(n).maps[n - 1] @ vectorize(config.initial))
        got = source.state(config.initial, n)
        if source.coeffs is None:
            assert np.max(np.abs(got - want)) <= 1e-13
        else:
            assert np.array_equal(got, want)


def drude_lorentz_maps():
    return map_source(preset_config("drude_lorentz")).maps(6)


ARRAY_RECORDS = {
    "SweepConfig": lambda: preset_config("drude_lorentz"),
    "SystemSpec": lambda: preset_config("drude_lorentz").system,
    "Embedding": lambda: build_embedding(preset_config("embedding").system, mode_frequency=1.0,
                                         coupling=0.4, decay=0.5, n_max=2),
    "DynamicalMapSeries": drude_lorentz_maps,
    "TransferTensorSeries": lambda: decompose(drude_lorentz_maps()),
    "LocalMapSeries": lambda: local_maps(drude_lorentz_maps()),
    "InfluenceCoefficients": lambda: map_source(preset_config("drude_lorentz")).coeffs,
    "CanonicalForm": lambda: canonical_decompose(
        lindblad_generator(pauli("x"), [pauli("z"), pauli("y")], [0.3, 0.1])
    ),
    "RateSeries": lambda: rate_series(local_maps(drude_lorentz_maps())),
    "CompareResult": lambda: run_compare(replace(preset_config("lindblad"), t_ref=10.0)),
    "MapSource": lambda: map_source(preset_config("drude_lorentz")),
}

SCALAR_RECORDS = {
    "SubOhmicDensity": lambda: SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0),
    "DrudeLorentzDensity": lambda: DrudeLorentzDensity(lam=0.1, gamma=1.0),
    "QDPhononDensity": lambda: QDPhononDensity(c_e=0.1, c_h=-0.1, omega_e=2.0, omega_h=3.0),
    "TabulatedDensity": lambda: TabulatedDensity(omegas=(0.0, 1.0), values=(0.0, 0.5)),
    "QuapiPropagator": lambda: QuapiPropagator(kmax=5),
    "EmbeddingPropagator": lambda: EmbeddingPropagator(**EMBEDDING_KEYS),
    "LindbladPropagator": LindbladPropagator,
    "CompareRow": lambda: harness.CompareRow(1.0, 0.1, 0.2, False, True, 0.3, 0.4),
    "SpectralStability": lambda: spectral_stability(np.eye(4)),
}


class TestRecordEquality:
    # a record that holds an array is equal only to itself, as numpy gives no
    # truth value to an array comparison; configs compare by maps_key instead
    @pytest.mark.parametrize("name", list(ARRAY_RECORDS))
    def test_array_records_compare_by_identity(self, name):
        a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
        assert type(a).__name__ == name
        assert a == a and a != b
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("name", list(SCALAR_RECORDS))
    def test_scalar_records_compare_by_value(self, name):
        a, b = SCALAR_RECORDS[name](), SCALAR_RECORDS[name]()
        assert type(a).__name__ == name
        assert a is not b and a == b and hash(a) == hash(b)

    def test_equal_presets_have_equal_maps_keys(self):
        a, b = preset_config("subohmic"), preset_config("subohmic")
        assert a != b and maps_key(a) == maps_key(b)


class TestRunCompare:
    def test_semigroup_model_both_methods_exact(self):
        config = SweepConfig(
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

    def test_errors_are_last_trajectory_values_against_the_exact_value(self):
        config = preset_config("embedding")
        source = map_source(config)
        exact_state = source.state(config.initial, config.n_ref)
        (exact,) = observable_series(exact_state[None], config.observable, config.dt)[1]
        series = source.maps(config.n_short)
        tensors, local = decompose(series), local_maps(series)

        def last_value(states):
            return observable_series(states, config.observable, config.dt)[1][-1]

        for row in compare_series(series, exact_state, config).rows:
            k = config.cutoff_steps(row.tau_c)
            ttm = extrapolate(tensors, config.initial, k, config.n_ref)
            tl = extrapolate_tl(local, config.initial, k, config.n_ref)
            assert row.err_ttm == abs(last_value(ttm) - exact)
            assert row.err_tl == abs(last_value(tl) - exact)

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


class TestCli:
    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = cli_main(["compare", "--config", "not_a_model", "--out", str(tmp_path)])
        assert code == 2

    def test_mistyped_preset_name_lists_the_presets(self, tmp_path, capsys):
        assert cli_main(["singvals", "--config", "subohmc", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "no preset named 'subohmc'" in err
        assert all(repr(name) in err for name in harness.PRESETS)

    @pytest.mark.parametrize("name", ["foo.ini", "configs/subohmc"])
    def test_missing_config_file_names_the_file(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["singvals", "--config", name, "--out", "out"]) == 2
        assert f"config file {name!r}: No such file or directory" in capsys.readouterr().err

    def test_memory_budget_exits_3(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "deep.ini",
                        {"system": {"preset": "drude_lorentz"}, "propagator": {"kmax": 14}})
        assert cli_main(["generate", "--config", ini, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "exceed the budget" in err

    @pytest.mark.parametrize("command, blocked", [
        ("generate", "out/maps.key"), ("compare", "out/compare.csv"), ("singvals", None),
    ])
    def test_unwritable_output_exits_2_and_names_it(
        self, tmp_path, capsys, monkeypatch, command, blocked
    ):
        # a directory where a file goes, or an --out that is a file
        monkeypatch.chdir(tmp_path)
        if blocked:
            Path(blocked).mkdir(parents=True)
        else:
            Path("out").write_text("")
        assert cli_main([command, "--config", "lindblad", "--out", "out"]) == 2
        reason = "Is a directory" if blocked else "File exists"
        assert capsys.readouterr().err == f"cannot write {blocked or 'out'}: {reason}\n"

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

    def test_observable_names_its_column(self, tmp_path):
        ini = tmp_path / "sx.ini"
        ini.write_text("[system]\npreset = embedding\n\n[extrapolation]\nobservable = sigma_x\n")
        out = tmp_path / "sx"
        for command in ("ttm", "tl"):
            assert cli_main([command, "--config", str(ini), "--out", str(out), "--tau-c", "1.0"]) == 0
            lines = (out / f"{command}_obs_tauc1.csv").read_text().splitlines()
            assert lines[0] == "t,sigma_x"
            assert lines[1] == "0.0,0.0"  # <sigma_x> of the excited initial state

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

    @pytest.mark.parametrize("flag, value", [
        ("--tau-c", "0.4,,0.8"), ("--tau-c", "nan"), ("--tau-c", "-1"),
        ("--t-ref", "nan"), ("--t-ref", "inf"),
        ("--tau-c", "0.01,0.1"), ("--tau-c", "0.15"), ("--t-ref", "50.04"),
    ])
    def test_bad_tau_c_or_t_ref_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        code = cli_main(["compare", "--config", "lindblad", "--out", str(out), flag, value])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (out / "compare.csv").exists()

    def test_off_grid_t_ref_exits_2(self, tmp_path):
        # the exact reference would be taken at 5.04, the schemes stop at 5.0
        code = cli_main(["compare", "--config", "embedding", "--out", str(tmp_path),
                         "--t-ref", "5.04", "--tau-c", "0.5,4.0"])
        assert code == 2

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
        real = harness.embedding_propagate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "embedding_propagate", counted)
        assert cli_main(["generate", "--config", "lindblad", "--out", str(out)]) == 0
        assert cli_main(["ttm", "--config", "lindblad", "--out", str(out)]) == 0
        assert len(calls) == 1
        (out / "maps.key").unlink()  # outputs written before the key existed
        assert cli_main(["ttm", "--config", "lindblad", "--out", str(out)]) == 0
        assert len(calls) == 2

    def test_maps_key_is_the_config_text(self, tmp_path):
        def hex_of(*entries):
            return np.array(entries, dtype="<c16").tobytes().hex()

        out = tmp_path / "key"
        assert cli_main(["generate", "--config", "lindblad", "--out", str(out)]) == 0
        assert (out / "maps.key").read_text().split("\n") == [
            hex_of(0, 0.5, 0.5, 0),  # h_s = sigma_x / 2, row by row
            hex_of(0.5, 0, 0, -0.5),  # coupling_op = sigma_z / 2
            "(2, 2)",
            "0.0",
            "None",
            "LindbladPropagator(jump='sigma_minus', rate=0.3)",
            "0.1",
            "",
        ]
        assert (out / "maps.key").read_text() == maps_key(preset_config("lindblad")) + "\n"

    def test_one_ulp_changes_one_line_of_the_key(self):
        config = preset_config("lindblad")
        h_s = config.system.h_s.copy()
        h_s[0, 0] = np.nextafter(0.0, 1.0)
        moved = {
            0: replace(config, system=replace(config.system, h_s=h_s)),
            6: replace(config, dt=np.nextafter(config.dt, 1.0)),
        }
        key = maps_key(config).split("\n")
        for line, other in moved.items():
            other_key = maps_key(other).split("\n")
            assert len(key) == len(other_key) == 7
            assert [i for i in range(7) if key[i] != other_key[i]] == [line]

    @pytest.mark.parametrize("damage", ["key_not_utf8", "key_is_directory", "maps_truncated"])
    def test_unreadable_cache_is_a_miss(self, tmp_path, damage):
        def files(folder):
            return {p.name: p.is_dir() or p.read_bytes() for p in folder.iterdir()}

        out, fresh = tmp_path / "cache", tmp_path / "fresh"
        assert cli_main(["generate", "--config", "lindblad", "--out", str(out)]) == 0
        if damage == "key_not_utf8":
            (out / "maps.key").write_bytes(b"\xff\xfe")
        elif damage == "key_is_directory":
            (out / "maps.key").unlink()
            (out / "maps.key").mkdir()
        else:
            (out / "maps.dmap").write_bytes((out / "maps.dmap").read_bytes()[:100])
        damaged = files(out)
        assert cli_main(["singvals", "--config", "lindblad", "--out", str(out)]) == 0
        assert cli_main(["singvals", "--config", "lindblad", "--out", str(fresh)]) == 0
        # what a fresh run writes, and the damaged cache left as it was:
        # generate is its only writer
        assert files(out) == {**damaged, **files(fresh)}

    def test_compare_reuses_generated_quapi_maps(self, tmp_path, monkeypatch):
        # t_ref = 2.0 lies past n_short dt = 0.8: compare reads its reference
        # from a propagated state, so the n_short maps of generate suffice
        ini = tmp_path / "quapi.ini"
        ini.write_text(
            "[system]\nhx = 0.5\noz = 0.5\n\n"
            "[bath]\nkind = subohmic\nalpha = 0.2\ns = 0.7\nomega_c = 5.0\n\n"
            "[grid]\ndt = 0.08\nn_short = 10\nt_ref = 2.0\n\n"
            "[propagator]\ntype = quapi\nkmax = 2\n\n"
            "[extrapolation]\ntau_c = 0.4\n"
        )
        out = tmp_path / "cache"
        calls = []

        def counting(name):
            real = getattr(harness, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return counted

        for name in ("quapi_propagate", "eta_coefficients"):
            monkeypatch.setattr(harness, name, counting(name))

        def counts():
            return calls.count("quapi_propagate"), calls.count("eta_coefficients")

        assert cli_main(["generate", "--config", str(ini), "--out", str(out)]) == 0
        assert counts() == (1, 1)
        # the generated maps carry all that ttm and tl read: no eta is computed
        for command in ("ttm", "tl"):
            assert cli_main([command, "--config", str(ini), "--out", str(out)]) == 0
        assert counts() == (1, 1)
        # compare's reference state needs eta, not the maps
        assert cli_main(["compare", "--config", str(ini), "--out", str(out)]) == 0
        assert counts() == (1, 2)
        cached = (out / "compare.csv").read_text()
        fresh = tmp_path / "fresh"
        assert cli_main(["compare", "--config", str(ini), "--out", str(fresh)]) == 0
        assert counts() == (2, 3)
        assert (fresh / "compare.csv").read_text() == cached

    def test_load_config_loads_no_unused_modules(self):
        # no module of the package imports hashlib (maps_key is plain text);
        # configparser (INI files) and the lindblad module load on first use,
        # and the package still exports the lindblad names
        probe = (
            "import json, sys\nimport dynamap as dm\n"
            "for name in ('subohmic', 'embedding', 'lindblad'):\n    dm.load_config(name)\n"
            "unused = ('hashlib', 'configparser', 'dynamap.lindblad')\n"
            "print(json.dumps([m for m in unused if m in sys.modules]))\n"
            "assert dm.rate_series.__module__ == 'dynamap.lindblad'\n"
            "assert dm.CanonicalForm is sys.modules['dynamap.lindblad'].CanonicalForm\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []

    def test_pipeline_loads_no_hashlib(self, tmp_path):
        out = str(tmp_path / "maps")
        probe = "import json, sys\nfrom dynamap.cli import main\n" + "".join(
            f"assert main([{cmd!r}, '--config', 'lindblad', '--out', {out!r}]) == 0\n"
            for cmd in ("generate", "ttm", "tl", "rates", "singvals", "compare")
        ) + "print(json.dumps([m for m in ('hashlib', '_hashlib') if m in sys.modules]))"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []

    def test_every_command_runs_without_scipy(self, tmp_path):
        # a fresh interpreter whose import system refuses scipy runs every
        # command on every preset and shipped config: scipy is a test-only
        # dependency (the pytest warning filter has imported scipy.integrate
        # into this interpreter)
        root = Path(__file__).resolve().parents[1]
        configs = list(harness.PRESETS) + [
            str(path) for path in sorted(root.glob("configs/*.ini"))
            + sorted(root.glob("perfbench/configs/*.ini"))
        ]
        assert len(configs) == 10
        commands = [["generate", "--dump-eta"], ["ttm"], ["tl"], ["rates"], ["singvals"],
                    ["compare"]]
        runs = [[*command, "--config", config, "--out", str(tmp_path / f"out{i}")]
                for i, config in enumerate(configs) for command in commands]
        probe = (
            "import json, sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "from dynamap.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            # nor numpy.ma, which np.unique would import on the eta path
            "numpy_ma = [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']]\n"
            "print(json.dumps([codes, numpy_ma]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert done.returncode == 0, done.stderr
        codes, numpy_ma = json.loads(done.stdout.splitlines()[-1])
        failed = [" ".join(argv) for argv, code in zip(runs, codes) if code != 0]
        assert failed == [], done.stderr
        assert numpy_ma == []

    @pytest.mark.parametrize(
        "kmax, grid",
        [(5, "n_short = 50\n"), (8, "n_short = 12\n\n[extrapolation]\ntau_c = 0.2, 0.4\n")],
        ids=["kmax5", "kmax8"],
    )
    def test_quapi_maps_independent_of_blas_threads(self, tmp_path, kmax, grid):
        # the full-window QUAPI step and the readout's sums are BLAS products;
        # the maps they write must not depend on the BLAS thread count (fresh
        # interpreters, since OpenBLAS reads it once at load). At kmax = 8
        # each map entry sums 4^7 history terms, in passes through the
        # readout's scratch
        ini = tmp_path / "quapi.ini"
        ini.write_text(
            f"[system]\npreset = qd_phonon\n\n[grid]\n{grid}\n"
            f"[propagator]\ntype = quapi\nkmax = {kmax}\n"
        )
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "dynamap", "generate", "--config", str(ini),
                 "--out", str(out)],
                env=child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            written.append((out / "maps.dmap").read_bytes())
        assert written[0] == written[1]


class TestTracer:
    """``perfbench/tracer.py`` wraps each layer function where a package
    module binds it; a source that kept them in a table built at import
    would drop their spans and counts."""

    SHARED = {"harness.load_config", "ttm.decompose", "ttm.extrapolate", "timelocal.local_maps",
              "timelocal.stationarity_profile", "timelocal.extrapolate_tl",
              "maps.singular_values", "serialization"}

    def spans(self, tmp_path, config):
        root = Path(__file__).resolve().parents[1]
        record = tmp_path / "spans.json"
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(record), "compare",
             "--config", config, "--out", str(tmp_path / "out")],
            env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(record.read_text())["spans"]

    def test_embedding_layers_traced(self, tmp_path):
        names = {span["name"] for span in self.spans(tmp_path, "lindblad")}
        assert names == self.SHARED | {"propagators.embedding_propagate"}

    def test_path_integral_layers_traced(self, tmp_path):
        ini = tmp_path / "quapi.ini"
        ini.write_text("[system]\npreset = qd_phonon\n\n[grid]\nn_short = 40\nt_ref = 4.0\n\n"
                       "[propagator]\nkmax = 2\n\n[extrapolation]\ntau_c = 0.5, 1.0\n")
        spans = self.spans(tmp_path, str(ini))
        names = {span["name"] for span in spans}
        assert names == self.SHARED | {"propagators.eta_coefficients",
                                       "propagators.quapi_propagate"}
        (quapi,) = (span for span in spans if span["name"] == "propagators.quapi_propagate")
        assert quapi["counts"] == {"steps": 40, "peak_entries": 4 ** 4}

