"""The environment block recorded with every result.

Same code on another machine, BLAS build or thread setting must be
recognisable from the record alone.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Thread-count variables pinned to 1 in every process a workload starts,
#: so workers x BLAS threads never exceed the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set the thread variables here; child processes inherit them."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict mode
        return {}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
    }


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources (path and bytes), which
    identifies the code where no git metadata is present."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, workload: str, seed: int, scale: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root),
    }
