"""Run configuration, map generation, and the extrapolation comparison sweep.

A sweep takes one model, generates its short-time maps once, and for every
memory cutoff tau_c in the list runs both extrapolation schemes out to a
reference time, recording the error of each against the exact propagation.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, UnknownModel
from .maps import (
    DynamicalMapSeries,
    is_hermitian,
    lindblad_generator,
    pauli,
    singular_values,
)
from .models import (
    DrudeLorentzDensity,
    Embedding,
    QDPhononDensity,
    SpectralDensity,
    SubOhmicDensity,
    SystemSpec,
    build_embedding,
    load_tabulated,
)
from .propagators import (
    InfluenceCoefficients,
    embedding_propagate,
    embedding_state,
    eta_coefficients,
    quapi_propagate,
    quapi_state,
)
from .timelocal import extrapolate_tl, local_maps, stationarity_profile, tl_refusal
from .ttm import decompose, extrapolate, tensor_norm_profile

__all__ = [
    "QuapiPropagator",
    "EmbeddingPropagator",
    "LindbladPropagator",
    "SweepConfig",
    "CompareRow",
    "CompareResult",
    "observable_series",
    "trace_distance",
    "MapSource",
    "map_source",
    "maps_key",
    "run_compare",
    "compare_series",
    "load_config",
    "preset_config",
    "PRESETS",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Out-of-range values are configuration errors (``not x >= 0`` refuses NaN)
@dataclass(frozen=True)
class QuapiPropagator:
    kmax: int = 5

    def __post_init__(self):
        if not self.kmax >= 1:
            raise ConfigError(f"kmax = {self.kmax} must be at least 1")


@dataclass(frozen=True)
class EmbeddingPropagator:
    mode_frequency: float
    coupling: float
    decay: float
    n_max: int

    def __post_init__(self):
        if not self.decay >= 0:
            raise ConfigError(f"decay = {self.decay} must be non-negative")
        if not self.n_max >= 1:
            raise ConfigError(f"n_max = {self.n_max} must be at least 1")


@dataclass(frozen=True)
class LindbladPropagator:
    """Time-independent semigroup source, mainly for validation runs."""

    jump: str = "sigma_minus"
    rate: float = 0.5

    def __post_init__(self):
        if self.jump not in _JUMP_OPS:
            raise ConfigError(f"jump = {self.jump!r}: expected {sorted(_JUMP_OPS)}")
        if not self.rate >= 0:
            raise ConfigError(f"rate = {self.rate} must be non-negative")


_JUMP_OPS = {
    "sigma_minus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "sigma_plus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "sigma_z": pauli("z"),
    "sigma_x": pauli("x"),
}

_OBSERVABLES = {"sigma_x": pauli("x"), "sigma_y": pauli("y"), "sigma_z": pauli("z")}


def _observable_name(observable: np.ndarray) -> str:
    """The config name of ``observable``, which heads its CSV column;
    "observable" for a matrix that has none."""
    names = (name for name, op in _OBSERVABLES.items() if np.array_equal(op, observable))
    return next(names, "observable")


_INITIAL_STATES = {
    "excited": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "ground": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "plus": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "mixed": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Everything one comparison sweep needs; validated on construction."""

    system: SystemSpec
    propagator: QuapiPropagator | EmbeddingPropagator | LindbladPropagator
    dt: float
    n_short: int
    t_ref: float
    tau_c: tuple[float, ...]
    bath: SpectralDensity | None = None
    observable: np.ndarray = field(default_factory=lambda: pauli("z"), repr=False)
    initial: np.ndarray = field(
        default_factory=lambda: _INITIAL_STATES["excited"].copy(), repr=False
    )

    def __post_init__(self):
        if not (0 < self.dt < np.inf) or self.n_short < 1:
            raise ConfigError("dt must be finite and positive and n_short at least 1")
        if not np.isfinite(self.t_ref):
            raise ConfigError(f"t_ref = {self.t_ref} must be finite")
        if not self.tau_c:
            raise ConfigError("tau_c list must not be empty")
        if not all(0 < tau < np.inf for tau in self.tau_c):
            raise ConfigError(f"every tau_c must be finite and positive, got {self.tau_c}")
        for name, t in (("t_ref", self.t_ref), *(("tau_c", tau) for tau in self.tau_c)):
            steps = t / self.dt
            if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
                raise ConfigError(
                    f"{name} = {t} is not a positive whole number of dt = {self.dt} steps"
                )
        worst = max(self.tau_c)
        if self.t_ref <= worst:
            raise ConfigError(f"t_ref = {self.t_ref} must exceed max(tau_c) = {worst}")
        if self.n_short < self.cutoff_steps(worst):
            raise ConfigError(
                f"data horizon n_short*dt = {self.n_short * self.dt} is shorter "
                f"than max(tau_c) = {worst}"
            )
        if isinstance(self.propagator, QuapiPropagator) and self.bath is None:
            raise ConfigError("the path-integral propagator needs a bath")

    # t_ref and every tau_c are whole numbers of steps, checked on construction

    @property
    def n_ref(self) -> int:
        return round(self.t_ref / self.dt)

    def cutoff_steps(self, tau: float) -> int:
        return round(tau / self.dt)


# Every preset couples by sigma_z/2 at T = 0: name -> (H_S, bath, propagator,
# dt, n_short, t_ref, tau_c). The sub-ohmic one is at desk scale, over a
# t = 40 horizon; its cutoff sweep spans the regime where truncation errors
# are above machine noise (the effective memory of the truncated source is
# below ~1.5 time units). The quantum-dot one is in units of 1/ps: the
# super-ohmic acoustic-phonon density of a 4 nm GaAs dot.
_DRIVEN = 0.5 * pauli("x")
_BIASED = 0.5 * (-pauli("z") + pauli("x"))
_SPIN_BOSON_TAU_C = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5)
PRESETS = {
    "subohmic": (_DRIVEN, SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0),
                 QuapiPropagator(kmax=5), 0.08, 500, 40.0,
                 (0.16, 0.24, 0.32, 0.48, 0.64, 0.8, 0.96, 1.2)),
    "drude_lorentz": (_BIASED, DrudeLorentzDensity(lam=0.1, gamma=1.0),
                      QuapiPropagator(kmax=5), 0.05, 100, 100.0, _SPIN_BOSON_TAU_C),
    "qd_phonon": (_BIASED, QDPhononDensity(c_e=0.1271, c_h=-0.0635, omega_e=2.555, omega_h=2.938),
                  QuapiPropagator(kmax=5), 0.05, 100, 100.0, _SPIN_BOSON_TAU_C),
    "embedding": (_DRIVEN, None,
                  EmbeddingPropagator(mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6),
                  0.1, 120, 200.0, (0.5, 1.0, 2.0, 4.0)),
    "lindblad": (_DRIVEN, None, LindbladPropagator(jump="sigma_minus", rate=0.3),
                 0.1, 100, 50.0, (1.0, 2.0, 5.0)),
}


def preset_config(name: str) -> SweepConfig:
    """A fresh config of the preset ``name``, built from its row of PRESETS."""
    try:
        h_s, bath, propagator, dt, n_short, t_ref, tau_c = PRESETS[name]
    except KeyError:
        raise UnknownModel(
            f"no preset named {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return SweepConfig(system=SystemSpec(h_s=h_s, coupling_op=0.5 * pauli("z")), bath=bath,
                       propagator=propagator, dt=dt, n_short=n_short, t_ref=t_ref, tau_c=tau_c)


def _parse_tau_c(text: str) -> tuple[float, ...]:
    """The comma-separated cutoff list of the config file or of ``--tau-c``."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"tau_c {text!r} is not a comma-separated list of numbers") from None


# The record classes that [bath] kind and [propagator] type name; a bath may
# also be kind = custom_table (a table file at ``path``) or none.
_BATHS = {"subohmic": SubOhmicDensity, "drude_lorentz": DrudeLorentzDensity,
          "qd_phonon": QDPhononDensity}
_PROPAGATORS = {"quapi": QuapiPropagator, "embedding": EmbeddingPropagator,
                "lindblad": LindbladPropagator}
# INI text -> value, by a field's annotation (a string, as annotations are
# postponed); the matrix fields take a name from their own table instead.
_PARSERS = {"int": int, "float": float, "str": str,
            "tuple[float, ...]": _parse_tau_c}
_NAMED = {"observable": _OBSERVABLES, "initial": _INITIAL_STATES}


def _parse(name: str, annotation: str, text: str):
    """The value of key ``name``, of type ``annotation``, written as ``text``."""
    choices = _NAMED.get(name)
    try:
        return choices[text] if choices else _PARSERS[annotation](text)
    except (KeyError, ValueError):
        expected = sorted(choices) if choices else annotation
        raise ConfigError(f"{name} = {text!r}: expected {expected}") from None


def _refuse_unknown(section: str, keys, known) -> None:
    """ConfigError naming the first key of INI ``section`` not in ``known``."""
    for key in keys:
        if key not in known:
            raise ConfigError(f"[{section}] has no key {key!r}; expected one of {sorted(known)}")


def _record(cls, sections, base, where: str, known=(), **values):
    """A ``cls`` record with ``values``, then with each key of ``sections``
    (INI section name -> keys) that names an init field, parsed by the
    field's annotation; a key that is neither such a field nor in ``known``
    is a :class:`ConfigError`. Every other field is ``base``'s when ``base``
    is a ``cls``, else the field's default."""
    init = {f.name: f for f in fields(cls) if f.init and f.name not in values}
    for section, keys in sections.items():
        _refuse_unknown(section, keys, {*init, *known})
        values.update((key, _parse(key, init[key].type, text))
                      for key, text in keys.items() if key in init)
    if type(base) is cls:
        return replace(base, **values)
    for name, f in init.items():
        if name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} needs key {name!r}")
    return cls(**values)


def _read_kind(table, kind_key: str, keys, base, section: str):
    """The record of an INI section whose ``kind_key`` names its class in
    ``table``; without that key, a record of the class of ``base``."""
    kind = keys.get(kind_key)
    if kind not in table and (kind is not None or base is None):
        raise ConfigError(f"[{section}] needs key {kind_key!r} from {sorted(table)}, got {kind!r}")
    return _record(table.get(kind, type(base)), {section: keys}, base, f"[{section}]",
                   known={kind_key})


def _unreadable(what: str, path: str, exc: Exception) -> ConfigError:
    """The ConfigError for a file at ``path`` that cannot be read or parsed."""
    return ConfigError(f"{what} {path!r}: {getattr(exc, 'strerror', None) or exc}")


def _read_bath(keys, base: SpectralDensity | None) -> SpectralDensity | None:
    if keys.get("kind") == "none":
        _refuse_unknown("bath", keys, {"kind"})
        return None
    if keys.get("kind") == "custom_table":
        _refuse_unknown("bath", keys, {"kind", "path"})
        if "path" not in keys:
            raise ConfigError("[bath] kind = custom_table needs key 'path'")
        try:
            return load_tabulated(keys["path"])
        except (OSError, ValueError) as exc:
            raise _unreadable("[bath] table", keys["path"], exc) from None
    return _read_kind(_BATHS, "kind", keys, base, "bath")


def _read_system(keys, base: SystemSpec | None) -> SystemSpec:
    """Each of hx, hy, hz (ox, oy, oz) replaces one Pauli component of H_S
    (of the coupling operator); the others are ``base``'s, else zero."""
    ops = {}
    for name, prefix in (("h_s", "h"), ("coupling_op", "o")):
        if base is not None and not any(prefix + a in keys for a in "xyz"):
            continue
        x, y, z = (
            _parse(prefix + a, "float", keys[prefix + a]) if prefix + a in keys
            else 0.0 if base is None
            else float(np.trace(pauli(a) @ getattr(base, name)).real) / 2
            for a in "xyz"
        )
        ops[name] = x * pauli("x") + y * pauli("y") + z * pauli("z")
    return _record(SystemSpec, {"system": keys}, base, "[system]",
                   known={"preset", *(p + a for p in "ho" for a in "xyz")}, **ops)


_SECTIONS = ("system", "bath", "grid", "propagator", "extrapolation")


def load_config(path_or_preset: str) -> SweepConfig:
    """Load a sweep configuration from an INI file or a preset name.

    The file uses sections [system], [bath], [grid], [propagator], and
    [extrapolation]; any other section, and any key that no record reads, is
    a :class:`ConfigError`. An optional ``preset`` key in [system] pulls a
    preset as the base: each given key then replaces exactly one value of
    the preset, and every value not given is the preset's. Without a preset,
    a value not given takes its record's default, and a required key that is
    missing is a :class:`ConfigError`. A name with no suffix and no
    directory that is no file is looked up as a preset, so a mistyped one
    is an :class:`UnknownModel` that lists the presets.
    """
    path = Path(path_or_preset)
    bare = path.name == path_or_preset and not path.suffix and not path.exists()
    if path_or_preset in PRESETS or bare:
        return preset_config(path_or_preset)
    import configparser

    # no interpolation: a '%' in a value reaches the key's own parser
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("config file", path_or_preset, exc) from None
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    # configparser copies [DEFAULT] into every section, so name it before any key check
    named = [parser.default_section] if parser.defaults() else []
    unknown = [name for name in named + parser.sections() if name not in _SECTIONS]
    if unknown:
        raise ConfigError(f"{path_or_preset!r} has section [{unknown[0]}]; expected {_SECTIONS}")
    sections = {name: parser[name] if parser.has_section(name) else {} for name in _SECTIONS}
    base = preset_config(sections["system"]["preset"]) if "preset" in sections["system"] else None

    try:
        system = _read_system(sections["system"], base and base.system)
        bath = base and base.bath
        if parser.has_section("bath"):
            bath = _read_bath(sections["bath"], bath)
        propagator = _read_kind(
            _PROPAGATORS, "type", sections["propagator"], base and base.propagator, "propagator"
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration {path_or_preset!r}: {exc}") from exc
    return _record(SweepConfig, {name: sections[name] for name in ("grid", "extrapolation")},
                   base, "a config without a preset", system=system, bath=bath,
                   propagator=propagator)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def observable_series(
    states: np.ndarray, observable: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Expectation value Tr(O rho) per step; warns on imaginary residue."""
    observable = np.asarray(observable, dtype=complex)
    if not is_hermitian(observable):
        raise ValueError("observable must be Hermitian")
    states = np.asarray(states, dtype=complex)
    if states.shape[-1] != observable.shape[0]:
        raise DimensionMismatch(
            f"states of dimension {states.shape[-1]} vs observable {observable.shape[0]}"
        )
    values = np.einsum("nij,ji->n", states, observable)
    worst = float(np.max(np.abs(values.imag))) if len(values) else 0.0
    if worst > 1e-8:
        warnings.warn(f"imaginary expectation-value residue {worst:.3e}", stacklevel=2)
    times = dt * np.arange(states.shape[0])
    return times, values.real


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) trace norm of the difference of two Hermitian matrices."""
    diff = np.asarray(a) - np.asarray(b)
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# map sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MapSource:
    """A config's maps, ``maps(n)`` = E(t_1, 0)..E(t_n, 0), and its exact
    states, ``state(rho0, n)`` = E(t_n, 0) rho0 without a map series;
    ``coeffs`` are the path integral's influence coefficients, else None."""

    maps: Callable[[int], DynamicalMapSeries]
    state: Callable[[np.ndarray, int], np.ndarray]
    coeffs: InfluenceCoefficients | None = None


def map_source(config: SweepConfig) -> MapSource:
    """The source of ``config``'s maps, the one place that tells sources
    apart: the path integral's ``state`` propagates the initial state alone
    (``quapi_state``), the exact sources exponentiate to n dt. It looks the
    propagators up in this module on each call, so a wrapper set in their
    place (``perfbench/tracer.py``) sees every use."""
    prop, system = config.propagator, config.system
    if isinstance(prop, QuapiPropagator):
        coeffs = eta_coefficients(config.bath, system.temperature, config.dt, prop.kmax)
        return MapSource(partial(quapi_propagate, system, coeffs),
                         partial(quapi_state, system, coeffs), coeffs)
    if isinstance(prop, EmbeddingPropagator):
        emb = build_embedding(system, **asdict(prop))
    else:
        identity = np.eye(system.dim**2, dtype=complex)
        generator = lindblad_generator(system.h_s, [_JUMP_OPS[prop.jump]], [prop.rate])
        emb = Embedding(generator, identity, identity)
    return MapSource(partial(embedding_propagate, emb, config.dt),
                     lambda rho0, n: embedding_state(emb, rho0, n * config.dt))


def maps_key(config: SweepConfig) -> str:
    """Everything that shapes the generated maps, one item per line: the hex
    of the raw bytes of the system operators (the numpy repr of an array is
    not lossless), then the reprs of their shape, the temperature, the bath,
    the propagator and dt."""
    system = config.system
    parts = (system.h_s.shape, system.temperature, config.bath, config.propagator, config.dt)
    return "\n".join([system.h_s.tobytes().hex(), system.coupling_op.tobytes().hex(),
                      *map(repr, parts)])


# ---------------------------------------------------------------------------
# comparison sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareRow:
    tau_c: float
    err_ttm: float
    err_tl: float
    tl_flagged: bool
    tl_spectral_stable: bool
    tdist_ttm: float
    tdist_tl: float


@dataclass(frozen=True, eq=False)
class CompareResult:
    rows: tuple[CompareRow, ...]
    stationarity: tuple[np.ndarray, np.ndarray]
    tensor_norms: tuple[np.ndarray, np.ndarray]
    singular_values: tuple[np.ndarray, np.ndarray]


def _last_value(states: np.ndarray, config: SweepConfig) -> float:
    """<O> in the last of ``states``, as :func:`observable_series` gives it."""
    return float(observable_series(states[-1:], config.observable, config.dt)[1][0])


def _compare_one(tensors, local, tau, config, exact_val, exact_state) -> CompareRow:
    k = config.cutoff_steps(tau)
    ttm_states = extrapolate(tensors, config.initial, k, config.n_ref)
    err_ttm = abs(_last_value(ttm_states, config) - exact_val)
    tdist_ttm = trace_distance(ttm_states[-1], exact_state)

    refusal, stab = tl_refusal(local, k)
    err_tl = np.nan
    tdist_tl = np.nan
    if refusal is None:
        tl_states = extrapolate_tl(local, config.initial, k, config.n_ref)
        val_tl = _last_value(tl_states, config)
        if np.isfinite(val_tl):
            err_tl = abs(val_tl - exact_val)
            tdist_tl = trace_distance(tl_states[-1], exact_state)
    return CompareRow(
        tau_c=float(tau),
        err_ttm=err_ttm,
        err_tl=err_tl,
        tl_flagged=bool(local.flagged[k - 1]),
        tl_spectral_stable=bool(stab.stable),
        tdist_ttm=tdist_ttm,
        tdist_tl=tdist_tl,
    )


def compare_series(
    series: DynamicalMapSeries,
    exact_state: np.ndarray,
    config: SweepConfig,
) -> CompareResult:
    """Run both extrapolation schemes from shared short-time maps.

    ``series`` must hold at least ``config.n_short`` maps; extrapolation data
    is restricted to that horizon even if more is available. Each error is
    that of <O> in the last extrapolated state against ``exact_state``.
    """
    short = series.head(config.n_short)
    tensors = decompose(short)
    local = local_maps(short)
    exact_val = _last_value(exact_state[None], config)

    rows = sorted(
        (_compare_one(tensors, local, tau, config, exact_val, exact_state) for tau in config.tau_c),
        key=lambda r: r.tau_c,
    )

    return CompareResult(
        rows=tuple(rows),
        stationarity=stationarity_profile(local),
        tensor_norms=tensor_norm_profile(tensors),
        singular_values=(short.times, singular_values(short.maps)),
    )


def run_compare(config: SweepConfig) -> CompareResult:
    """Propagate the source's reference state to n_ref before its maps are
    held, so that the two peaks do not add, then run the full comparison."""
    source = map_source(config)
    exact_state = source.state(config.initial, config.n_ref)
    return compare_series(source.maps(config.n_short), exact_state, config)
