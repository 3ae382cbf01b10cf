#!/usr/bin/env python3
"""Snapshot the command line of one source tree, for a byte-level identity check.

    python3 tools/cli_snapshot.py TREE OUT

Runs ``python -m dynamap`` from ``TREE/src`` on every preset, every
``configs/*.ini`` and every ``perfbench/configs/*.ini`` of TREE: ``generate
--dump-eta``, then ``ttm``, ``tl``, ``rates``, ``singvals`` and ``compare``
each on a copy of the generated ``--out``, then ``compare`` on a fresh
``--out``. Two bad inputs follow, each under ``singvals``: the mistyped
preset name ``subohmc``, and an INI whose ``custom_table`` is an empty file
(both written to ``OUT/inputs/``, and run from there so that no message
holds OUT). Three damaged map caches follow, each under ``singvals`` on the
``lindblad`` preset: copies (in ``OUT/inputs/<damage>/``) of that preset's
generated cache whose ``maps.key`` holds bytes that are not UTF-8, whose
``maps.key`` is a directory, or whose ``maps.dmap`` is cut to 100 bytes.
Three outputs that cannot be written follow, on the ``lindblad`` preset:
``generate`` on a copy of the cache whose ``maps.key`` is a directory,
``singvals`` on an ``--out`` that is a file, and ``compare`` on an ``--out``
whose ``compare.csv`` is a directory. Then ``generate`` on an INI of the
``drude_lorentz`` preset at ``kmax = 14``, beyond the memory budget (written
to ``OUT/memory-budget/`` and run from there). Last, ``tl`` on an INI of
the ``lindblad`` preset that sets the removed key ``[extrapolation]
cond_threshold`` (written to ``OUT/removed-key/`` and run from there).
The invocations run one at a time, from TREE unless said otherwise, with
BLAS and OpenMP pinned to one thread. Each writes under
``OUT/<config>/<step>/``: the files it wrote in ``out/``, and ``stdout``,
``stderr`` (with the ``--out`` path written as ``<out>``) and ``exit``.
Two trees behave the same exactly when ``diff -r`` of their snapshots is
empty.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

PRESETS = ("subohmic", "drude_lorentz", "qd_phonon", "embedding", "lindblad")
COMMANDS = ("ttm", "tl", "rates", "singvals", "compare")
CACHE = ("maps.dmap", "maps.key")
EMPTY_TABLE_INI = "[system]\npreset = drude_lorentz\n\n[bath]\nkind = custom_table\npath = empty.csv\n"
DAMAGES = ("key-not-utf8", "key-is-directory", "maps-truncated")
DEEP_MEMORY_INI = "[system]\npreset = drude_lorentz\n\n[propagator]\nkmax = 14\n"
REMOVED_KEY_INI = "[system]\npreset = lindblad\n\n[extrapolation]\ncond_threshold = 1e-6\n"


def damage(cache: Path, how: str) -> None:
    """Damage the map cache in ``cache`` the way ``how`` (one of DAMAGES) names."""
    key, maps = cache / "maps.key", cache / "maps.dmap"
    if how == "key-not-utf8":
        key.write_bytes(b"\xff\xfe")
    elif how == "key-is-directory":
        key.unlink()
        key.mkdir()
    else:
        maps.write_bytes(maps.read_bytes()[:100])


def configs(tree: Path) -> list[tuple[str, str]]:
    """(snapshot directory name, --config argument) of every config."""
    found = [(f"preset-{name}", name) for name in PRESETS]
    for folder in ("configs", "perfbench/configs"):
        for ini in sorted((tree / folder).glob("*.ini")):
            rel = ini.relative_to(tree).as_posix()
            found.append((rel.replace("/", "-").removesuffix(".ini"), rel))
    return found


def file_at(out: Path) -> None:
    out.write_bytes(b"")


def directory_csv(out: Path) -> None:
    (out / "compare.csv").mkdir(parents=True)


def invoke(tree: Path, env: dict, step: Path, args: list[str], seed: Path | None = None,
           cwd: Path | None = None, make_out: Callable[[Path], None] = Path.mkdir) -> None:
    """Run one command from ``cwd`` (default TREE) with ``--out step/out``,
    made by ``make_out``, after copying the map cache of ``seed`` there, and
    record its stdout, stderr and exit code; the copied cache is removed
    again where the command left it unchanged (a directory in its place,
    where still empty)."""
    out = step / "out"
    step.mkdir(parents=True)
    make_out(out)
    for name in CACHE if seed else ():
        if (seed / name).is_dir():
            (out / name).mkdir()
        elif (seed / name).exists():
            shutil.copy2(seed / name, out / name)
    done = subprocess.run([sys.executable, "-m", "dynamap", *args, "--out", str(out)],
                          cwd=cwd or tree, env=env, capture_output=True)
    for name in CACHE if seed else ():
        copy = out / name
        if (seed / name).is_dir() and copy.is_dir() and not any(copy.iterdir()):
            copy.rmdir()
        elif copy.is_file() and filecmp.cmp(seed / name, copy, shallow=False):
            copy.unlink()  # an input, unchanged
    (step / "stdout").write_bytes(done.stdout)
    (step / "stderr").write_bytes(done.stderr.replace(os.fsencode(out), b"<out>"))
    (step / "exit").write_text(f"{done.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (tree / "src" / "dynamap" / "__init__.py").is_file():
        print(f"no dynamap source under {tree / 'src'}", file=sys.stderr)
        return 2
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for name, config in configs(tree):
        base = out / name
        invoke(tree, env, base / "generate", ["generate", "--dump-eta", "--config", config])
        for command in COMMANDS:
            invoke(tree, env, base / command, [command, "--config", config],
                   seed=base / "generate" / "out")
        invoke(tree, env, base / "compare-fresh", ["compare", "--config", config])
        print(f"{name}: done", file=sys.stderr)
    inputs = out / "inputs"
    inputs.mkdir()
    (inputs / "empty.csv").write_text("")
    (inputs / "empty_table.ini").write_text(EMPTY_TABLE_INI)
    invoke(tree, env, out / "bad-preset-name" / "singvals", ["singvals", "--config", "subohmc"])
    invoke(tree, env, out / "bad-empty-table" / "singvals",
           ["singvals", "--config", "empty_table.ini"], cwd=inputs)
    for how in DAMAGES:
        cache = inputs / how
        cache.mkdir()
        for name in CACHE:
            shutil.copy2(out / "preset-lindblad" / "generate" / "out" / name, cache / name)
        damage(cache, how)
        invoke(tree, env, out / f"damaged-{how}" / "singvals",
               ["singvals", "--config", "lindblad"], seed=cache)
    invoke(tree, env, out / "unwritable-key" / "generate", ["generate", "--config", "lindblad"],
           seed=inputs / "key-is-directory")
    invoke(tree, env, out / "unwritable-out" / "singvals", ["singvals", "--config", "lindblad"],
           make_out=file_at)
    invoke(tree, env, out / "unwritable-csv" / "compare", ["compare", "--config", "lindblad"],
           make_out=directory_csv)
    deep = out / "memory-budget"
    deep.mkdir()
    (deep / "deep_memory.ini").write_text(DEEP_MEMORY_INI)
    invoke(tree, env, deep / "generate", ["generate", "--config", "deep_memory.ini"], cwd=deep)
    removed = out / "removed-key"
    removed.mkdir()
    (removed / "removed_key.ini").write_text(REMOVED_KEY_INI)
    invoke(tree, env, removed / "tl", ["tl", "--config", "removed_key.ini"], cwd=removed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
