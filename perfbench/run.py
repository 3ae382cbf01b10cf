#!/usr/bin/env python3
"""Cold-process benchmark of the ``dynamap`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client in a closed loop on one process at a time: every ``python -m
dynamap`` invocation runs in a fresh interpreter, against an empty ``--out``
directory, only after the previous one has finished, with BLAS and OpenMP
pinned to one thread and ``--workers`` left at 1. A fresh interpreter is
needed because bath correlations are memoised per process, and an empty
directory because a leftover ``maps.dmap`` is reused on a dt/length match and
would skip propagation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced samples with traced ones (see ``tracer.py``) and reports the
per-layer metrics plus the tracing overhead. Every invocation's outputs are
checked against ``expected.json``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list the environment, every failed check, and every metric
with its unit and sample count. ``--workload all`` runs every workload in both
modes. The seed shuffles the order of workloads and of independent
invocations; it never changes the physics inputs. Samples run in
``.bench_work/`` at the repository root, where a JSON record of each run
(environment, per-sample figures, check messages, spans) is kept.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TRACER = BENCH / "tracer.py"
EXPECTED = BENCH / "expected.json"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
# Absolute tolerance on compare.csv errors and on final observable values
# (sigma_z, so |value| <= 1): ten times the relative tolerance of the
# influence-coefficient quadrature (NumericsConfig.eta_rtol = 1e-7), which
# bounds how well the maps are defined. Perturbing every eta_k by that
# relative amount moves these values by at most 1.5e-8 on these workloads,
# so a more accurate eta still passes while a wrong map, tensor or
# extrapolation does not.
ATOL = 1e-6
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = {**os.environ, **THREAD_PIN, "PYTHONPATH": str(ROOT / "src")}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
SPAN_NAMES = [name for name, *_ in LAYERS] + ["serialization"]
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_NAMES},
    "propagators.quapi_propagate.ms_per_step": "ms",
    "propagators.quapi_propagate.peak_entries": "count-computed",
    "ttm.decompose.matmuls": "count-computed",
    "ttm.extrapolate.steps": "count",
    "timelocal.extrapolate_tl.steps": "count",
    "timelocal.local_maps.flagged": "count",
    "timelocal.local_maps.min_sv_ratio": "ratio",
    "lindblad.rate_series.flagged_frac": "fraction",
    "serialization.bytes": "B",
    "trace.overhead_s": "s",
    "trace.startup_s": "s",
    "trace.unaccounted_s": "s",
}

# Output files the README promises for each command.
PROMISED = {
    "generate": ("maps.dmap",),
    "ttm": ("tensors.tten", "tensor_norms.csv"),
    "tl": ("local_maps.lmap", "local_flags.csv", "stationarity.csv"),
    "rates": ("rates.csv",),
    "singvals": ("singvals.csv",),
    "compare": ("compare.csv", "stationarity.csv", "tensor_norms.csv", "singvals.csv"),
}


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no package source)."""


@dataclass(frozen=True)
class Invocation:
    command: str
    config: str  # preset name, or INI path relative to the repository root
    out: str  # output directory, relative to the sample directory

    @property
    def key(self) -> str:
        return f"{self.out}/{self.command}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # stages run in order; the invocations of one stage are independent
    stages: tuple[tuple[Invocation, ...], ...]

    def order(self, rng: random.Random) -> list[Invocation]:
        return [inv for stage in self.stages for inv in rng.sample(stage, len(stage))]


def _pipeline(config: str, *commands: str) -> tuple[tuple[Invocation, ...], ...]:
    first, *rest = (Invocation(c, config, "pipeline") for c in commands)
    return ((first,), tuple(rest))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spinboson_compare",
            "paper's error-vs-tau_c sweep on the three spin-boson baths; cold eta quadrature dominates",
            (tuple(Invocation("compare", p, p) for p in ("subohmic", "drude_lorentz", "qd_phonon")),),
        ),
        Workload(
            "embedding_pipeline",
            "1000-step exact embedding, generate/ttm/tl/rates/compare on one --out; decompose, "
            "local_maps, rate_series and file I/O dominate, no quadrature",
            _pipeline("perfbench/configs/embedding_pipeline.ini",
                      "generate", "ttm", "tl", "rates", "compare"),
        ),
        Workload(
            "quapi_deep_memory",
            "qd_phonon at kmax = 8, generate/ttm/tl; the dense path-tensor recursion dominates "
            "time and peak memory",
            _pipeline("perfbench/configs/quapi_deep_memory.ini", "generate", "ttm", "tl"),
        ),
    )
}


@dataclass
class Outcome:
    """One finished (or never started) invocation and its check results."""

    invocation: Invocation
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    trace: dict | None = None
    errors: list[str] = field(default_factory=list)  # output differs from expected.json
    violations: list[str] = field(default_factory=list)  # output breaks the README contract

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.violations)


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def spawn(argv: list[str], deadline: float, log_path: Path) -> tuple[float, float, float, int]:
    """Run ``argv`` from the repository root until it exits or ``deadline``.

    Returns wall seconds, CPU seconds (user + sys), max RSS in MB and the exit
    code. The child is waited for without being reaped, so the kill at the
    deadline can never reach a recycled pid.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                            os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


_PROBE = """
import json, platform, numpy, scipy, dynamap
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas, "dynamap": dynamap.__file__}))
"""

_SETUP = "import sys, dynamap; dynamap.load_config(sys.argv[1])"


def probe_environment(deadline: float) -> dict:
    """Import the package once (untimed warm-up) and describe the environment."""
    if not (ROOT / "src" / "dynamap" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'dynamap'}")
    WORK.mkdir(exist_ok=True)
    log = WORK / "probe.log"
    *_, code = spawn([sys.executable, "-c", _PROBE], deadline, log)
    text = log.read_text(errors="replace")
    if code != 0:
        raise BenchError(f"importing dynamap failed (exit {code}):\n{text[-2000:]}")
    env = json.loads(text.strip().splitlines()[-1])
    if not Path(env["dynamap"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"dynamap imported from {env['dynamap']}, not from {ROOT / 'src'}")
    return {
        **env,
        "thread_pin": THREAD_PIN,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# samples and output checks
# ---------------------------------------------------------------------------

def run_sample(workload: Workload, rng: random.Random, traced: bool, deadline: float,
               directory: Path, expected: dict) -> list[Outcome]:
    """One closed-loop pass over the workload's invocations.

    Each invocation's outputs are checked as soon as it ends, before later
    invocations of a pipeline overwrite shared files; checks are not timed.
    """
    directory.mkdir(parents=True)
    outcomes = []
    for inv in workload.order(rng):
        outcome = Outcome(inv)
        outcomes.append(outcome)
        if time.monotonic() >= deadline:
            outcome.errors.append(f"not run: run budget of {RUN_BUDGET_S:g} s exhausted")
            continue
        out = directory / inv.out
        out.mkdir(exist_ok=True)
        tag = f"{inv.out}-{inv.command}"
        spans = directory / f"{tag}.spans.json"
        launcher = [str(TRACER), str(spans)] if traced else ["-m", "dynamap"]
        argv = [sys.executable, *launcher, inv.command, "--config", inv.config, "--out", str(out)]
        log = directory / f"{tag}.log"
        outcome.wall_s, outcome.cpu_s, outcome.rss_mb, outcome.exit_code = spawn(
            argv, deadline, log
        )
        if outcome.exit_code != 0:
            tail = log.read_text(errors="replace").strip()[-300:]
            outcome.errors.append(f"exit code {outcome.exit_code}: {tail}")
            continue
        if traced:
            outcome.trace = json.loads(spans.read_text())
        check_outputs(outcome, out, expected.get(workload.name, {}).get(inv.key, {}))
    shutil.rmtree(directory)
    return outcomes


def check_outputs(outcome: Outcome, out: Path, expected: dict) -> None:
    """Promised files, and values against ``expected.json``, of a command
    that exited with 0."""
    for name in PROMISED[outcome.invocation.command]:
        if not (out / name).is_file():
            outcome.errors.append(f"{name} missing")
    for name, want in expected.items():
        path = out / name
        if not path.is_file():
            outcome.errors.append(f"{name} missing")
            continue
        try:
            if name == "compare.csv":
                errors, violations = check_compare(read_compare_csv(path), want)
                outcome.errors += errors
                outcome.violations += violations
            elif not close(got := final_value(path), want):
                outcome.errors.append(f"{name}: final value {got!r}, expected {want!r} +- {ATOL:g}")
        except (KeyError, ValueError, IndexError) as exc:
            outcome.errors.append(f"{name} unreadable: {exc!r}")


def close(got: float, want: float | None) -> bool:
    return want is not None and abs(got - want) <= ATOL  # False for nan


def read_compare_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {
                "tau_c": float(row["tau_c"]),
                "err_ttm": float(row["err_ttm"]),
                "err_tl": float(row["err_tl"]),
                "tl_flagged": row["tl_flagged"] == "true",
                "tl_spectral_stable": row["tl_spectral_stable"] == "true",
            }
            for row in csv.DictReader(fh)
        ]


def final_value(path: Path) -> float:
    """Last value of a two-column ``t,value`` CSV (the observable at t_ref)."""
    last = path.read_text().rstrip("\n").rsplit("\n", 1)[-1]
    return float(last.split(",")[1])


def check_compare(rows: list[dict], expected: list[dict]) -> tuple[list[str], list[str]]:
    """Compare rows against the expected ones; returns (errors, violations).

    ``err_tl`` is compared only where the README defines it (cutoff map
    neither flagged nor spectrally unstable); elsewhere the README requires
    nan, and a finite value is a contract violation.
    """
    got_cutoffs = [r["tau_c"] for r in rows]
    want_cutoffs = [r["tau_c"] for r in expected]
    if got_cutoffs != want_cutoffs:
        return [f"compare.csv cutoffs {got_cutoffs}, expected {want_cutoffs}"], []
    errors, violations = [], []
    for got, want in zip(rows, expected):
        where = f"compare.csv tau_c={got['tau_c']:g}"
        for flag in ("tl_flagged", "tl_spectral_stable"):
            if got[flag] != want[flag]:
                errors.append(f"{where}: {flag} {got[flag]}, expected {want[flag]}")
        if not close(got["err_ttm"], want["err_ttm"]):
            errors.append(f"{where}: err_ttm {got['err_ttm']!r}, expected {want['err_ttm']!r}")
        if got["tl_flagged"] or not got["tl_spectral_stable"]:
            if not math.isnan(got["err_tl"]):
                violations.append(
                    f"{where}: err_tl = {got['err_tl']!r} with tl_flagged={got['tl_flagged']}, "
                    f"tl_spectral_stable={got['tl_spectral_stable']}; the README requires nan"
                )
        elif not close(got["err_tl"], want["err_tl"]):
            errors.append(f"{where}: err_tl {got['err_tl']!r}, expected {want['err_tl']!r}")
    return errors, violations


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def per_invocation_medians(samples: list[list[Outcome]], attr: str) -> list[float]:
    """Median of ``attr`` across samples, for each invocation of the workload.

    Summing these gives the time of a typical workload run; it is steadier
    than the median of per-sample sums because a slow moment of the machine
    only touches the invocation it falls on.
    """
    values = defaultdict(list)
    for sample in samples:
        for outcome in sample:
            values[outcome.invocation.key].append(getattr(outcome, attr))
    return [median(v) for v in values.values()]


def end_to_end(setup_walls: list[float], samples: list[list[Outcome]]) -> dict[str, Metric]:
    outcomes = [o for sample in samples for o in sample]
    ok = sum(not o.failed for o in outcomes)
    n = len(samples)
    return {
        "wall_s": Metric(sum(per_invocation_medians(samples, "wall_s")), "s", n),
        "cpu_s": Metric(sum(per_invocation_medians(samples, "cpu_s")), "s", n),
        "setup_s": Metric(median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mb": Metric(max(per_invocation_medians(samples, "rss_mb")), "MB", n),
        "ok_frac": Metric(ok / len(outcomes), "fraction", len(outcomes)),
    }


def layer_values(sample: list[Outcome]) -> dict[str, float]:
    """Per-layer figures of one traced sample.

    ``<layer>.s`` is the summed duration of the layer's spans (inclusive of
    nested spans). ``trace.startup_s`` is the time each process spent outside
    ``cli.main`` (interpreter start, import, exit) and ``trace.unaccounted_s``
    the time inside ``cli.main`` covered by no top-level span, so the traced
    wall time is startup + top-level spans + unaccounted.
    """
    seconds = dict.fromkeys(SPAN_NAMES, 0.0)
    counts: dict[str, float] = defaultdict(float)
    min_sv = 1.0
    startup = unaccounted = 0.0
    for outcome in sample:
        if outcome.trace is None:
            continue
        top_level = 0.0
        for span in outcome.trace["spans"]:
            duration = span["end"] - span["start"]
            seconds[span["name"]] += duration
            if span["parent"] is None:
                top_level += duration
            for key, value in span.get("counts", {}).items():
                name = f"{span['name']}.{key}"
                if key == "min_sv_ratio":
                    min_sv = min(min_sv, value)
                elif key == "peak_entries":
                    counts[name] = max(counts[name], value)
                else:
                    counts[name] += value
        startup += outcome.wall_s - outcome.trace["main_s"]
        unaccounted += outcome.trace["main_s"] - top_level
    quapi_steps = counts["propagators.quapi_propagate.steps"]
    rate_steps = counts["lindblad.rate_series.attempted"]
    return {
        **{f"{name}.s": value for name, value in seconds.items()},
        "propagators.quapi_propagate.ms_per_step":
            1e3 * seconds["propagators.quapi_propagate"] / quapi_steps if quapi_steps else 0.0,
        "propagators.quapi_propagate.peak_entries": counts["propagators.quapi_propagate.peak_entries"],
        "ttm.decompose.matmuls": counts["ttm.decompose.matmuls"],
        "ttm.extrapolate.steps": counts["ttm.extrapolate.steps"],
        "timelocal.extrapolate_tl.steps": counts["timelocal.extrapolate_tl.steps"],
        "timelocal.local_maps.flagged": counts["timelocal.local_maps.flagged"],
        "timelocal.local_maps.min_sv_ratio": min_sv,
        "lindblad.rate_series.flagged_frac":
            counts["lindblad.rate_series.flagged"] / rate_steps if rate_steps else 0.0,
        "serialization.bytes": counts["serialization.bytes"],
        "trace.startup_s": startup,
        "trace.unaccounted_s": unaccounted,
    }


def per_layer(traced: list[list[Outcome]], untraced: list[list[Outcome]]) -> dict[str, Metric]:
    per_sample = [layer_values(sample) for sample in traced]
    n = len(traced)
    metrics = {name: Metric(median(v[name] for v in per_sample), PER_LAYER_UNITS[name], n)
               for name in per_sample[0]}
    overhead = (sum(per_invocation_medians(traced, "wall_s"))
                - sum(per_invocation_medians(untraced, "wall_s")))
    metrics["trace.overhead_s"] = Metric(overhead, "s", n)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict[str, Metric]
    outcomes: list[Outcome]
    record: dict


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            expected: dict) -> RunResult:
    """Warm up, then sample the workload for ``seconds``.

    A new sample (with ``trace``, a pair of an untraced and a traced sample)
    starts only while it is expected to end less than half a sample after
    ``seconds``; there is always at least one. Untraced runs time set-up before every sample and
    once at the end, so set-up is measured across the whole run.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    rng = random.Random(seed)
    environment = probe_environment(deadline)
    first_config = workload.stages[0][0].config
    setup_walls = []

    def time_setup():
        wall, *_ = spawn([sys.executable, "-c", _SETUP, first_config], deadline,
                         WORK / "setup.log")
        setup_walls.append(wall)

    samples: list[list[Outcome]] = []
    traced_flags: list[bool] = []
    start = time.monotonic()
    unit_s = 0.0
    round_index = 0
    while not samples or (time.monotonic() - start + unit_s / 2 <= seconds
                          and time.monotonic() < deadline):
        unit_start = time.monotonic()
        if not trace:
            time_setup()
            kinds = (False,)
        elif (seed + round_index) % 2:
            kinds = (False, True)
        else:
            kinds = (True, False)
        for traced in kinds:
            directory = WORK / workload.name / f"sample-{len(samples)}"
            shutil.rmtree(directory, ignore_errors=True)
            samples.append(run_sample(workload, rng, traced, deadline, directory, expected))
            traced_flags.append(traced)
        unit_s = time.monotonic() - unit_start
        round_index += 1

    if trace:
        metrics = per_layer([s for s, t in zip(samples, traced_flags) if t],
                            [s for s, t in zip(samples, traced_flags) if not t])
    else:
        time_setup()
        metrics = end_to_end(setup_walls, samples)
    outcomes = [o for sample in samples for o in sample]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment,
        "setup_s": setup_walls,
        "samples": [
            {
                "traced": traced,
                "order": [o.invocation.key for o in sample],
                "wall_s": [o.wall_s for o in sample],
                "cpu_s": [o.cpu_s for o in sample],
                "rss_mb": [o.rss_mb for o in sample],
                "exit_code": [o.exit_code for o in sample],
            }
            for sample, traced in zip(samples, traced_flags)
        ],
        "checks": [
            {"invocation": o.invocation.key, "errors": o.errors, "violations": o.violations}
            for o in outcomes if o.failed
        ],
        "metrics": {name: m.__dict__ for name, m in metrics.items()},
        "spans": ([o.trace for o in samples[traced_flags.index(True)]]
                  if trace else None),
    }
    return RunResult(metrics, outcomes, record)


def print_run(label: str, result: RunResult) -> None:
    print(f"# {label}")
    print("environment: " + json.dumps(result.record["environment"], sort_keys=True))
    for o in result.outcomes:
        for message in o.errors + o.violations:
            print(f"FAILED {o.invocation.key}: {message}")
    for name, m in result.metrics.items():
        print(f"{name:<44} {m.value:>16.8g} {m.unit:<15} samples={m.samples}")


def summary(results: dict[str, RunResult]) -> dict:
    outcomes = [o for r in results.values() for o in r.outcomes]
    prefix = len(results) > 1
    return {
        "correct": not any(o.errors for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            (f"{label}/{name}" if prefix else name): {"value": m.value, "unit": m.unit}
            for label, r in results.items()
            for name, m in r.metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the invocation in flight
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    rng = random.Random(args.seed)
    if args.workload == "all":
        runs = [(w, t) for w in rng.sample(list(WORKLOADS), len(WORKLOADS)) for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        expected = json.loads(EXPECTED.read_text())
        results = {}
        for name, trace in runs:
            label = f"{name}/trace{int(trace)}"
            result = measure(WORKLOADS[name], args.seed, args.seconds, trace, expected)
            results[label] = result
            (WORK / "results").mkdir(parents=True, exist_ok=True)
            record_path = WORK / "results" / f"{name}-seed{args.seed}-trace{int(trace)}.json"
            record_path.write_text(json.dumps(result.record, indent=1))
            print_run(label, result)
            print(f"record: {record_path.relative_to(ROOT)}")
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
