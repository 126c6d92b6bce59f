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
