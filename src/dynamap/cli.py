"""Command-line interface.

Subcommands::

    generate   propagate the configured model, write maps.dmap and maps.key
    ttm        transfer-tensor decomposition + extrapolated observables
    tl         time-local maps, stationarity profile + extrapolated observables
    rates      canonical rates of the single-step maps
    singvals   singular values of the cumulative maps
    compare    full extrapolation-error sweep over the cutoff list

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import harness, serialization
from .errors import ConfigError, DynamapError, UnknownModel
from .harness import SweepConfig
from .lindblad import rate_series
from .maps import DynamicalMapSeries, singular_values
from .timelocal import extrapolate_tl, local_maps, stationarity_profile, tl_refusal
from .ttm import decompose, extrapolate, tensor_norm_profile


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="config file path or preset name")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--tau-c", help="comma-separated cutoff times, overrides the config")
    sub.add_argument("--t-ref", type=float, help="reference evaluation time override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynamap", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    gen = subs.add_parser("generate", help="propagate and write the map container")
    gen.add_argument("--dump-eta", action="store_true", help="also write eta.csv")
    for name in ("generate", "ttm", "tl", "rates", "singvals", "compare"):
        sub = gen if name == "generate" else subs.add_parser(name)
        _add_common(sub)
    return parser


def _load_config(args) -> SweepConfig:
    config = harness.load_config(args.config)
    updates = {}
    if args.tau_c:
        updates["tau_c"] = harness._parse_tau_c(args.tau_c)
    if args.t_ref is not None:
        updates["t_ref"] = args.t_ref
    return dataclasses.replace(config, **updates) if updates else config


def _obtain_series(
    config: SweepConfig, out: Path, source: harness.MapSource | None = None
) -> DynamicalMapSeries:
    """The first ``n_short`` maps: those ``generate`` left in ``out`` when
    its ``maps.key`` matches this config, otherwise generated by ``source``,
    or by a source built here on that miss when the caller has none."""
    cached, key = out / "maps.dmap", out / "maps.key"
    if cached.exists() and key.exists() and key.read_text().strip() == harness.maps_key(config):
        series = serialization.read_map_series(cached)
        if len(series) >= config.n_short:
            return series.head(config.n_short)
    return (source or harness.map_source(config)).maps(config.n_short)


def _cmd_generate(config: SweepConfig, out: Path, args) -> int:
    source = harness.map_source(config)
    series = source.maps(config.n_short)
    key = out / "maps.key"
    key.unlink(missing_ok=True)  # a stale key must not vouch for the new maps
    serialization.write_map_series(out / "maps.dmap", series)
    key.write_text(harness.maps_key(config) + "\n")
    if args.dump_eta and source.coeffs is not None:
        serialization.write_eta_csv(out / "eta.csv", source.coeffs)
    return 0


def _cmd_ttm(config: SweepConfig, out: Path, args) -> int:
    tensors = decompose(_obtain_series(config, out))
    serialization.write_tensor_series(out / "tensors.tten", tensors)
    times, norms = tensor_norm_profile(tensors)
    serialization.write_profile_csv(out / "tensor_norms.csv", times, norms, "tensor_norm")
    column = harness._observable_name(config.observable)
    for tau in config.tau_c:
        k = config.cutoff_steps(tau)
        states = extrapolate(tensors, config.initial, k, config.n_ref)
        t, vals = harness.observable_series(states, config.observable, config.dt)
        serialization.write_profile_csv(out / f"ttm_obs_tauc{tau:g}.csv", t, vals, column)
    return 0


def _cmd_tl(config: SweepConfig, out: Path, args) -> int:
    local = local_maps(_obtain_series(config, out), cond_threshold=config.cond_threshold)
    serialization.write_local_series(out / "local_maps.lmap", local)
    serialization.write_local_flags(out / "local_flags.csv", local)
    times, diffs = stationarity_profile(local)
    serialization.write_profile_csv(out / "stationarity.csv", times, diffs, "map_difference")
    column = harness._observable_name(config.observable)
    wrote_any = False
    for tau in config.tau_c:
        k = config.cutoff_steps(tau)
        refusal, _ = tl_refusal(local, k)
        if refusal is not None:
            print(f"tau_c = {tau:g}: {refusal}, skipping", file=sys.stderr)
            continue
        states = extrapolate_tl(local, config.initial, k, config.n_ref)
        t, vals = harness.observable_series(states, config.observable, config.dt)
        serialization.write_profile_csv(out / f"tl_obs_tauc{tau:g}.csv", t, vals, column)
        wrote_any = True
    return 0 if wrote_any else 3


def _cmd_rates(config: SweepConfig, out: Path, args) -> int:
    local = local_maps(_obtain_series(config, out), cond_threshold=config.cond_threshold)
    serialization.write_rates_csv(out / "rates.csv", rate_series(local))
    return 0


def _cmd_singvals(config: SweepConfig, out: Path, args) -> int:
    series = _obtain_series(config, out)
    serialization.write_singvals_csv(
        out / "singvals.csv", series.times, singular_values(series.maps)
    )
    return 0


def _cmd_compare(config: SweepConfig, out: Path, args) -> int:
    source = harness.map_source(config)
    # the reference state first, so that its scratch is freed before the maps are held
    exact_state = source.state(config.initial, config.n_ref)
    result = harness.compare_series(_obtain_series(config, out, source), exact_state, config)
    serialization.write_compare_csv(out / "compare.csv", result)
    serialization.write_profile_csv(
        out / "stationarity.csv", *result.stationarity, "map_difference"
    )
    serialization.write_profile_csv(
        out / "tensor_norms.csv", *result.tensor_norms, "tensor_norm"
    )
    serialization.write_singvals_csv(out / "singvals.csv", *result.singular_values)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "ttm": _cmd_ttm,
    "tl": _cmd_tl,
    "rates": _cmd_rates,
    "singvals": _cmd_singvals,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args)
    except (ConfigError, UnknownModel, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DynamapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
