"""Machine and thread fingerprint recorded with every benchmark result.

Two results are comparable only when the fields in :data:`IDENTITY`
agree.  The load average and the git revision are recorded as context:
an A/B compares two revisions by design, and load is a condition of the
run, not of the machine.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path
from typing import Dict, List

IDENTITY = (
    "cpu_model",
    "cpu_count",
    "blas",
    "blas_threads",
    "numpy",
    "python",
    "n_jobs",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> List[int]:
    """Thread count of every OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    counts = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            library = ctypes.CDLL(path)
            for name in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(library, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    counts.append(int(getter()))
                    break
    return counts


def _git_rev(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(root: Path, n_jobs: int) -> Dict[str, object]:
    """Fingerprint of this process's machine, libraries and threads."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "n_jobs": n_jobs,
        "load_avg_1m": os.getloadavg()[0],
        "git_rev": _git_rev(root),
    }


def mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """The :data:`IDENTITY` fields on which two fingerprints differ."""
    return [key for key in IDENTITY if a.get(key) != b.get(key)]
