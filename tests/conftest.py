import pytest

# The acceptance module records one verdict line per criterion here so the
# lines always show up in the terminal summary, whether or not capture is on.
ACCEPTANCE_LINES = []


def record_criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def levinson_at_any_n(monkeypatch):
    """Levinson's recursion for 1-D Toeplitz matrices of every size, so that
    tests on small grids exercise it (solver.TOEPLITZ_MIN_N gives those to
    LU)."""
    from logop import solver

    monkeypatch.setattr(solver, "TOEPLITZ_MIN_N", 0)
