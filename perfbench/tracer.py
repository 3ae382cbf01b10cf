"""Run one ``dynamap`` command in this interpreter with layer spans recorded.

    python3 perfbench/tracer.py SPANS_JSON <dynamap arguments...>

The public functions each CLI command calls are wrapped, in every module of
the package that binds them, in spans (name, start, end, parent span, counts).
Then ``dynamap.cli.main`` runs with the given arguments, and the spans, the
import time and the time spent inside ``main`` are written to SPANS_JSON when
the command ends. Spans are kept in memory until then. The package itself is
not modified; the spans sit around the calls into each layer.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
import types

STARTED = time.perf_counter()


class Tracer:
    """In-memory span recorder; the call stack gives each span its parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` with every call recorded as a span called ``name``.

        ``count(arguments, result)`` returns a dict of counts for the span; it
        runs after the span has ended, so its cost is not attributed to it.
        """
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result

        return traced


def _quapi_counts(arg, _result):
    d2 = arg["system"].dim ** 2
    # largest intermediate of the dense recursion: the history tensor over
    # kmax path variables, times the batch axis, times the new path variable
    return {"steps": arg["n_steps"], "peak_entries": d2 ** (arg["coeffs"].kmax + 2)}


def _decompose_counts(arg, _result):
    n = len(arg["series"])
    return {"matmuls": n * (n - 1) // 2}


def _local_counts(_arg, result):
    ratios = result.sv_ratios[1:]  # entry 0 needs no inversion
    return {
        "flagged": int(result.flagged.sum()),
        "min_sv_ratio": float(ratios.min()) if len(ratios) else 1.0,
    }


def _rates_counts(_arg, result):
    return {"attempted": len(result.flagged), "flagged": int(result.flagged.sum())}


def _file_counts(arg, _result):
    return {"bytes": os.path.getsize(arg["path"])}


# (span name, defining module, function, counts)
LAYERS = (
    ("harness.load_config", "harness", "load_config", None),
    ("propagators.eta_coefficients", "propagators", "eta_coefficients", None),
    ("propagators.quapi_propagate", "propagators", "quapi_propagate", _quapi_counts),
    ("propagators.embedding_propagate", "propagators", "embedding_propagate", None),
    ("ttm.decompose", "ttm", "decompose", _decompose_counts),
    ("ttm.extrapolate", "ttm", "extrapolate",
     lambda arg, _r: {"steps": arg["total_steps"]}),
    ("timelocal.local_maps", "timelocal", "local_maps", _local_counts),
    ("timelocal.stationarity_profile", "timelocal", "stationarity_profile", None),
    ("timelocal.extrapolate_tl", "timelocal", "extrapolate_tl",
     lambda arg, _r: {"steps": arg["total_steps"]}),
    ("lindblad.rate_series", "lindblad", "rate_series", _rates_counts),
    ("maps.singular_values", "maps", "singular_values", None),
)


class _NumpyWithTracedSvd:
    """numpy as one module sees it, with ``linalg.svd`` replaced.

    The singular-value tables of ``compare`` and ``singvals`` are built with
    inline ``np.linalg.svd`` calls rather than a package function, so the
    module's ``np`` name is pointed at this view to time them.
    """

    def __init__(self, numpy, svd):
        self.linalg = types.SimpleNamespace(**{**vars(numpy.linalg), "svd": svd})
        self._numpy = numpy

    def __getattr__(self, name):
        return getattr(self._numpy, name)


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function wherever the package binds it."""
    import numpy

    import dynamap.cli

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dynamap"]
    package = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
               if name.startswith("dynamap.")}
    for span_name, module, function, count in LAYERS:
        original = getattr(package[module], function)
        _rebind(modules, original, tracer.wrap(span_name, original, count))
    # containers and CSV writers/readers: every read_*/write_* of the
    # serialization module and every write_* of the harness
    for module, prefixes in (("serialization", ("read_", "write_")), ("harness", ("write_",))):
        for function, original in list(vars(package[module]).items()):
            if function.startswith(prefixes) and inspect.isfunction(original):
                _rebind(modules, original, tracer.wrap("serialization", original, _file_counts))
    traced_np = _NumpyWithTracedSvd(
        numpy, tracer.wrap("maps.singular_values", numpy.linalg.svd)
    )
    for module in (package["harness"], dynamap.cli):
        module.np = traced_np


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import dynamap.cli

    imported = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        code = dynamap.cli.main(cli_args)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - start
    with open(spans_path, "w") as fh:
        json.dump(
            {"exit_code": code, "import_s": imported - STARTED, "main_s": main_s,
             "spans": tracer.spans},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
