"""Import qlan from this checkout's ``src`` with BLAS pinned to one thread.

Every benchmark process (run.py, its set-up probes and the self-test)
goes through :func:`load_qlan` before it touches numpy, so all of them run
the plain single-threaded baseline and import the same source tree.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP to one thread; must run before numpy is imported.

    Set in ``os.environ`` so that child processes inherit the setting.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_qlan() -> bool:
    """Import numpy and qlan; returns whether the ``np.trapz`` guard fired.

    The guard: numpy 2.4 removed ``np.trapz``, and ``qlan.lan_channels``
    names it in an eagerly evaluated default, so ``import qlan`` raises.
    Aliasing it to ``np.trapezoid`` changes no computed number, because
    qlan resolves to ``np.trapezoid`` whenever that exists.  Remove the
    guard once ``src/qlan`` no longer mentions ``np.trapz``.

    Raises ImportError when ``src/qlan`` is missing from the checkout, so
    the benchmark never picks up another installed copy.
    """
    pin_blas_threads()
    import numpy as np

    guard = not hasattr(np, "trapz")
    if guard:
        np.trapz = np.trapezoid
    if not (SRC / "qlan" / "__init__.py").is_file():
        raise ImportError(f"no qlan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlan

    if Path(qlan.__file__).resolve().parent != SRC / "qlan":
        raise ImportError(f"imported qlan from {qlan.__file__}, not from {SRC}")
    return guard
