"""The machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _openblas():
    """The OpenBLAS library numpy loaded into this process, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in {line.split()[-1] for line in maps.splitlines() if "openblas" in line}:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_info() -> dict:
    """OpenBLAS version string and thread count in effect (numpy must be loaded)."""
    lib = _openblas()
    info = {"blas_config": "unknown", "blas_threads": None}
    if lib is None:
        return info
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        try:
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            get_config = getattr(lib, f"{prefix}_get_config{suffix}")
        except AttributeError:
            continue
        get_threads.restype = ctypes.c_int
        get_config.restype = ctypes.c_char_p
        info["blas_threads"] = int(get_threads())
        info["blas_config"] = get_config().decode()
        break
    return info


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(root: Path, blas: dict) -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "git_commit": git_commit(root),
    }
