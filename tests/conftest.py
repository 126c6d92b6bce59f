import signal

import pytest

import helpers
from srltrace import sessionize


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def stream_passes(monkeypatch):
    """A list that grows by the stream's length on every `sessionize._StreamPass` built."""
    lengths = []
    real = sessionize._StreamPass

    def counting(events, cfg):
        lengths.append(len(events))
        return real(events, cfg)

    monkeypatch.setattr(sessionize, "_StreamPass", counting)
    return lengths


@pytest.fixture
def time_limit():
    """Fail a test that waits on a forked child for more than 60 s instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
