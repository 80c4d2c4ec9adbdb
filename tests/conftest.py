"""Shared test plumbing: acceptance-verdict collection and summary printing,
and the final optimizer state of training runs.

Acceptance tests record one verdict per criterion through the ``verdict``
fixture; the terminal-summary hook prints them as a single pass/fail line
each at the end of the run, so the gate's outcome is visible even when
pytest captures stdout. A line naming the float64 kernels comes first.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import pytest

from ordproto import trainer

_VERDICTS: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def adam_states(monkeypatch):
    """The ``AdamState`` of each training loop run in this process, in run order.

    A ``TrainResult`` carries no optimizer state. The loop updates the
    state ``trainer.init_adam`` returns in place, so once a run is over its
    recorded state holds the final (S, P) ``params``, ``m`` and ``v`` (one
    row per seed of the stack) and ``step``.
    """
    states = []
    real_init_adam = trainer.init_adam

    def recording(*args, **kwargs):
        states.append(real_init_adam(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(trainer, "init_adam", recording)
    return states


@pytest.fixture(scope="session")
def verdict():
    """Callable recording (criterion number, title, passed, detail)."""

    def _record(num: int, title: str, ok: bool, detail: str = "") -> bool:
        _VERDICTS.append((int(num), title, bool(ok), detail))
        return bool(ok)

    return _record


def kernel_identity() -> str:
    """numpy's SIMD dispatch targets on this CPU and the OpenBLAS core, as one line.

    The golden digests hold only for some kernels (numpy's X86_V4 dispatch,
    OpenBLAS's SkylakeX core), so a digest failure is read against this
    line. The core comes from the OpenBLAS that numpy's wheel bundles; a
    numpy without it, or without the symbol, reads "unknown".
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        simd = "unknown"
    else:
        simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)) or "baseline"
    core = "unknown"
    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"kernels: numpy {np.__version__}, SIMD dispatch {simd}, OpenBLAS core {core}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(kernel_identity())
    for num, title, ok, detail in sorted(_VERDICTS):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {title}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
