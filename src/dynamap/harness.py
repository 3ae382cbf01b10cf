"""Run configuration, map generation, and the extrapolation comparison sweep.

A sweep takes one model, generates its short-time maps once, and for every
memory cutoff tau_c in the list runs both extrapolation schemes out to a
reference time, recording the error of each against the exact propagation.
"""

from __future__ import annotations

import configparser
import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, UnknownModel
from .maps import (
    DynamicalMapSeries,
    devectorize,
    is_hermitian,
    lindblad_generator,
    pauli,
    singular_values,
    vectorize,
)
from .models import (
    DrudeLorentzDensity,
    Embedding,
    EmbeddingSpec,
    QDPhononDensity,
    SpectralDensity,
    SubOhmicDensity,
    SystemSpec,
    build_embedding,
    builtin_model,
    load_tabulated,
)
from .numerics import DEFAULT_NUMERICS, NumericsConfig
from .propagators import (
    InfluenceCoefficients,
    embedding_propagate,
    embedding_state,
    eta_coefficients,
    quapi_propagate,
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
    "generate_maps",
    "exact_reference_state",
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

@dataclass(frozen=True)
class QuapiPropagator:
    kmax: int = 5


@dataclass(frozen=True)
class EmbeddingPropagator:
    mode_frequency: float
    coupling: float
    decay: float
    n_max: int


@dataclass(frozen=True)
class LindbladPropagator:
    """Time-independent semigroup source, mainly for validation runs."""

    jump: str = "sigma_minus"
    rate: float = 0.5


_JUMP_OPS = {
    "sigma_minus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "sigma_plus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "sigma_z": pauli("z"),
    "sigma_x": pauli("x"),
}

_OBSERVABLES = {"sigma_x": pauli("x"), "sigma_y": pauli("y"), "sigma_z": pauli("z")}

_INITIAL_STATES = {
    "excited": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "ground": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "plus": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "mixed": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


@dataclass(frozen=True)
class SweepConfig:
    """Everything one comparison sweep needs; validated on construction."""

    label: str
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
    cond_threshold: float | None = None
    workers: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.n_short < 1:
            raise ConfigError("dt must be positive and n_short at least 1")
        if not self.tau_c:
            raise ConfigError("tau_c list must not be empty")
        worst = max(self.tau_c)
        if self.t_ref <= worst:
            raise ConfigError(f"t_ref = {self.t_ref} must exceed max(tau_c) = {worst}")
        if self.n_short * self.dt < worst - 1e-9:
            raise ConfigError(
                f"data horizon n_short*dt = {self.n_short * self.dt} is shorter "
                f"than max(tau_c) = {worst}"
            )
        if isinstance(self.propagator, QuapiPropagator) and self.bath is None:
            raise ConfigError("the path-integral propagator needs a bath")

    @property
    def n_ref(self) -> int:
        return int(round(self.t_ref / self.dt))

    @property
    def n_maps(self) -> int:
        """Maps a sweep needs; the path integral reads its reference at n_ref."""
        needs_ref = isinstance(self.propagator, QuapiPropagator)
        return max(self.n_short, self.n_ref) if needs_ref else self.n_short

    def cutoff_steps(self, tau: float) -> int:
        return max(1, int(round(tau / self.dt)))


def _preset_subohmic() -> SweepConfig:
    """Driven sub-ohmic model at desk scale: memory-truncated path-integral
    source over a t = 40 horizon. The cutoff sweep spans the regime where
    truncation errors are above machine noise (the effective memory of the
    truncated source is below ~1.5 time units)."""
    system, bath, grid = builtin_model("subohmic")
    return SweepConfig(
        label="subohmic",
        system=system,
        bath=bath,
        propagator=QuapiPropagator(kmax=5),
        dt=grid.dt,
        n_short=500,
        t_ref=40.0,
        tau_c=(0.16, 0.24, 0.32, 0.48, 0.64, 0.8, 0.96, 1.2),
    )


def _preset_drude_lorentz() -> SweepConfig:
    system, bath, grid = builtin_model("drude_lorentz")
    return SweepConfig(
        label="drude_lorentz",
        system=system,
        bath=bath,
        propagator=QuapiPropagator(kmax=5),
        dt=grid.dt,
        n_short=100,
        t_ref=grid.t_ref,
        tau_c=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5),
    )


def _preset_qd_phonon() -> SweepConfig:
    system, bath, grid = builtin_model("qd_phonon")
    return SweepConfig(
        label="qd_phonon",
        system=system,
        bath=bath,
        propagator=QuapiPropagator(kmax=5),
        dt=grid.dt,
        n_short=100,
        t_ref=grid.t_ref,
        tau_c=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5),
    )


def _preset_embedding() -> SweepConfig:
    system = SystemSpec(h_s=0.5 * pauli("x"), coupling_op=0.5 * pauli("z"))
    return SweepConfig(
        label="embedding",
        system=system,
        propagator=EmbeddingPropagator(mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6),
        dt=0.1,
        n_short=120,
        t_ref=200.0,
        tau_c=(0.5, 1.0, 2.0, 4.0),
    )


def _preset_lindblad() -> SweepConfig:
    system = SystemSpec(h_s=0.5 * pauli("x"), coupling_op=0.5 * pauli("z"))
    return SweepConfig(
        label="lindblad",
        system=system,
        propagator=LindbladPropagator(jump="sigma_minus", rate=0.3),
        dt=0.1,
        n_short=100,
        t_ref=50.0,
        tau_c=(1.0, 2.0, 5.0),
    )


PRESETS = {
    "subohmic": _preset_subohmic,
    "drude_lorentz": _preset_drude_lorentz,
    "qd_phonon": _preset_qd_phonon,
    "embedding": _preset_embedding,
    "lindblad": _preset_lindblad,
}


def preset_config(name: str) -> SweepConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise UnknownModel(
            f"no preset named {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def _parse_bath(section) -> SpectralDensity:
    kind = section.get("kind", "subohmic")
    if kind == "subohmic":
        return SubOhmicDensity(
            alpha=section.getfloat("alpha"),
            s=section.getfloat("s"),
            omega_c=section.getfloat("omega_c"),
        )
    if kind == "drude_lorentz":
        return DrudeLorentzDensity(lam=section.getfloat("lam"), gamma=section.getfloat("gamma"))
    if kind == "qd_phonon":
        return QDPhononDensity(
            c_e=section.getfloat("c_e"),
            c_h=section.getfloat("c_h"),
            omega_e=section.getfloat("omega_e"),
            omega_h=section.getfloat("omega_h"),
        )
    if kind == "custom_table":
        return load_tabulated(section.get("path"))
    if kind == "none":
        return None
    raise ConfigError(f"unknown bath kind {kind!r}")


def load_config(path_or_preset: str) -> SweepConfig:
    """Load a sweep configuration from an INI file or a preset name.

    The file uses sections [system], [bath], [grid], [propagator], and
    [extrapolation]; an optional ``preset`` key in [system] pulls a preset as
    the base, with explicitly given keys overriding it.
    """
    if path_or_preset in PRESETS:
        return preset_config(path_or_preset)
    path = Path(path_or_preset)
    if not path.exists():
        raise ConfigError(f"config file {path_or_preset!r} not found")
    parser = configparser.ConfigParser()
    parser.read(path)

    base = None
    if parser.has_option("system", "preset"):
        base = preset_config(parser.get("system", "preset"))

    def system_from(section):
        h = (
            section.getfloat("hx", 0.0) * pauli("x")
            + section.getfloat("hy", 0.0) * pauli("y")
            + section.getfloat("hz", 0.0) * pauli("z")
        )
        o = (
            section.getfloat("ox", 0.0) * pauli("x")
            + section.getfloat("oy", 0.0) * pauli("y")
            + section.getfloat("oz", 0.0) * pauli("z")
        )
        return SystemSpec(h_s=h, coupling_op=o, temperature=section.getfloat("temperature", 0.0))

    try:
        if base is not None:
            system = base.system
            bath = base.bath
            if parser.has_option("system", "hx") or parser.has_option("system", "ox"):
                system = system_from(parser["system"])
            if parser.has_section("bath"):
                bath = _parse_bath(parser["bath"])
        else:
            system = system_from(parser["system"])
            bath = _parse_bath(parser["bath"]) if parser.has_section("bath") else None

        grid = parser["grid"] if parser.has_section("grid") else {}
        dt = float(grid.get("dt", base.dt if base else 0.1))
        n_short = int(grid.get("n_short", base.n_short if base else 100))
        t_ref = float(grid.get("t_ref", base.t_ref if base else 10.0))

        if parser.has_section("propagator"):
            psec = parser["propagator"]
            ptype = psec.get("type", "quapi")
            if ptype == "quapi":
                propagator = QuapiPropagator(kmax=psec.getint("kmax", 5))
            elif ptype == "embedding":
                propagator = EmbeddingPropagator(
                    mode_frequency=psec.getfloat("mode_frequency"),
                    coupling=psec.getfloat("coupling"),
                    decay=psec.getfloat("decay"),
                    n_max=psec.getint("n_max"),
                )
            elif ptype == "lindblad":
                propagator = LindbladPropagator(
                    jump=psec.get("jump", "sigma_minus"), rate=psec.getfloat("rate", 0.5)
                )
            else:
                raise ConfigError(f"unknown propagator type {ptype!r}")
        elif base is not None:
            propagator = base.propagator
        else:
            raise ConfigError("missing [propagator] section")

        ext = parser["extrapolation"] if parser.has_section("extrapolation") else {}
        if "tau_c" in ext:
            tau_c = tuple(float(x) for x in ext.get("tau_c").split(","))
        else:
            tau_c = base.tau_c if base else (1.0,)
        observable = _OBSERVABLES[ext.get("observable", "sigma_z")]
        initial = _INITIAL_STATES[ext.get("initial", "excited")]
        cond = float(ext["cond_threshold"]) if "cond_threshold" in ext else (
            base.cond_threshold if base else None
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration {path_or_preset!r}: {exc}") from exc

    return SweepConfig(
        label=path.stem,
        system=system,
        bath=bath,
        propagator=propagator,
        dt=dt,
        n_short=n_short,
        t_ref=t_ref,
        tau_c=tau_c,
        observable=observable,
        initial=initial,
        cond_threshold=cond,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def observable_series(
    states: np.ndarray,
    observable: np.ndarray,
    dt: float,
    t0: float = 0.0,
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
    times = t0 + dt * np.arange(states.shape[0])
    return times, values.real


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) trace norm of the difference of two Hermitian matrices."""
    diff = np.asarray(a) - np.asarray(b)
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# map generation and exact references
# ---------------------------------------------------------------------------

def _exact_embedding(config: SweepConfig) -> Embedding | None:
    """The one place that tells map sources apart: the embedding of an exact
    source (the semigroup one has no mode), or None for the path integral."""
    prop = config.propagator
    if isinstance(prop, EmbeddingPropagator):
        # the propagator holds exactly the mode parameters of the spec
        return build_embedding(EmbeddingSpec(system=config.system, **asdict(prop)))
    if isinstance(prop, LindbladPropagator):
        d = config.system.dim
        identity = np.eye(d * d, dtype=complex)
        generator = lindblad_generator(config.system.h_s, [_JUMP_OPS[prop.jump]], [prop.rate])
        return Embedding(
            generator=generator, embed=identity, project=identity, system_dim=d, mode_dim=1
        )
    return None


def generate_maps(
    config: SweepConfig,
    n_steps: int | None = None,
    coeffs: InfluenceCoefficients | None = None,
) -> DynamicalMapSeries:
    """Short-time cumulative maps from the configured propagator.

    ``coeffs`` are the path-integral influence coefficients when the caller
    already has them; otherwise a path-integral propagator computes them.
    """
    n = n_steps if n_steps is not None else config.n_short
    emb = _exact_embedding(config)
    if emb is not None:
        return embedding_propagate(emb, config.dt, n)
    if coeffs is None:
        coeffs = eta_coefficients(
            config.bath, config.system.temperature, config.dt, config.propagator.kmax
        )
    return quapi_propagate(config.system, coeffs, n)


def exact_reference_state(config: SweepConfig, series: DynamicalMapSeries) -> np.ndarray:
    """State at t_ref from the same source that produced the maps.

    For the embedding and semigroup sources this is a direct matrix
    exponential; for the path-integral source it is the map at step n_ref
    (``series`` must then extend to n_ref).
    """
    emb = _exact_embedding(config)
    if emb is not None:
        return embedding_state(emb, config.initial, config.t_ref)
    if len(series) < config.n_ref:
        raise ConfigError(
            f"need maps up to step {config.n_ref} for the exact reference, have {len(series)}"
        )
    return devectorize(series.maps[config.n_ref - 1] @ vectorize(config.initial))


def maps_key(config: SweepConfig) -> str:
    """sha256 hex digest of everything that shapes the generated maps: the
    system operators (as raw bytes, since the numpy repr of an array is not
    lossless), temperature, bath, propagator, dt and the default numerics."""
    system = config.system
    digest = hashlib.sha256(system.h_s.tobytes() + system.coupling_op.tobytes())
    for part in (system.h_s.shape, system.temperature, config.bath, config.propagator,
                 config.dt, DEFAULT_NUMERICS):
        digest.update(f"{part!r}\n".encode())
    return digest.hexdigest()


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


@dataclass(frozen=True)
class CompareResult:
    rows: tuple[CompareRow, ...]
    stationarity: tuple[np.ndarray, np.ndarray]
    tensor_norms: tuple[np.ndarray, np.ndarray]
    singular_values: tuple[np.ndarray, np.ndarray]
    exact_value: float


def _expectation(state: np.ndarray, observable: np.ndarray) -> float:
    return float(np.trace(observable @ state).real)


def _compare_one(args) -> CompareRow:
    (tensors, local, initial, k, n_ref, observable, exact_val, exact_state) = args
    ttm_states = extrapolate(tensors, initial, k, n_ref)
    val_ttm = _expectation(ttm_states[-1], observable)
    err_ttm = abs(val_ttm - exact_val)
    tdist_ttm = trace_distance(ttm_states[-1], exact_state)

    refusal, stab = tl_refusal(local, k)
    err_tl = np.nan
    tdist_tl = np.nan
    if refusal is None:
        tl_states = extrapolate_tl(local, initial, k, n_ref)
        val_tl = _expectation(tl_states[-1], observable)
        if np.isfinite(val_tl):
            err_tl = abs(val_tl - exact_val)
            tdist_tl = trace_distance(tl_states[-1], exact_state)
    return CompareRow(
        tau_c=k,  # rewritten by the caller to the requested time
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
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> CompareResult:
    """Run both extrapolation schemes from shared short-time maps.

    ``series`` must hold at least ``config.n_short`` maps; extrapolation data
    is restricted to that horizon even if more is available.
    """
    short = series.head(min(config.n_short, len(series)))
    tensors = decompose(short)
    local = local_maps(short, cond_threshold=config.cond_threshold, numerics=numerics)
    exact_val = _expectation(exact_state, config.observable)

    jobs = []
    for tau in config.tau_c:
        k = config.cutoff_steps(tau)
        jobs.append(
            (tensors, local, config.initial, k, config.n_ref, config.observable,
             exact_val, exact_state)
        )
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_compare_one, jobs))
    else:
        rows = [_compare_one(job) for job in jobs]
    rows = [replace(row, tau_c=float(tau)) for row, tau in zip(rows, config.tau_c)]
    rows.sort(key=lambda r: r.tau_c)

    return CompareResult(
        rows=tuple(rows),
        stationarity=stationarity_profile(local),
        tensor_norms=tensor_norm_profile(tensors),
        singular_values=(short.times, singular_values(short.maps)),
        exact_value=exact_val,
    )


def run_compare(config: SweepConfig, numerics: NumericsConfig = DEFAULT_NUMERICS) -> CompareResult:
    """Generate maps for the configured model and run the full comparison."""
    series = generate_maps(config, n_steps=config.n_maps)
    exact_state = exact_reference_state(config, series)
    return compare_series(series, exact_state, config, numerics=numerics)
