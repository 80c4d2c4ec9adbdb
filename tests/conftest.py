"""Shared test plumbing: acceptance-verdict collection and summary printing,
and the final optimizer state of training runs.

Acceptance tests record one verdict per criterion through the ``verdict``
fixture; the terminal-summary hook prints them as a single pass/fail line
each at the end of the run, so the gate's outcome is visible even when
pytest captures stdout.
"""

from __future__ import annotations

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, title, ok, detail in sorted(_VERDICTS):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {title}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
