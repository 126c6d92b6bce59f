import pytest

import helpers
from srltrace import sessionize


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def split_calls(monkeypatch):
    """A list that grows by one entry on every `sessionize._split_into_runs` call."""
    calls = []
    real = sessionize._split_into_runs

    def counting(events, cfg):
        calls.append(len(events))
        return real(events, cfg)

    monkeypatch.setattr(sessionize, "_split_into_runs", counting)
    return calls
